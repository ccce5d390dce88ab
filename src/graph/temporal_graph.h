#ifndef CAD_GRAPH_TEMPORAL_GRAPH_H_
#define CAD_GRAPH_TEMPORAL_GRAPH_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/node_vocabulary.h"

namespace cad {

/// \brief A temporal sequence of graph snapshots G_1, ..., G_T over a fixed
/// node set (paper §2).
///
/// Snapshots are indexed from 0; "transition t" refers to the change from
/// snapshot t to snapshot t+1, so a sequence of T snapshots has T-1
/// transitions.
class TemporalGraphSequence {
 public:
  /// Creates an empty sequence over `num_nodes` nodes.
  explicit TemporalGraphSequence(size_t num_nodes = 0)
      : num_nodes_(num_nodes) {}

  size_t num_nodes() const { return num_nodes_; }

  /// Number of snapshots T.
  size_t num_snapshots() const { return snapshots_.size(); }

  /// Number of transitions (T-1, or 0 for fewer than two snapshots).
  size_t num_transitions() const {
    return snapshots_.size() < 2 ? 0 : snapshots_.size() - 1;
  }

  /// Appends a snapshot. Its node count must match the sequence's.
  [[nodiscard]] Status Append(WeightedGraph snapshot);

  /// Appends a snapshot, growing whichever side is smaller: a larger snapshot
  /// grows the sequence (earlier snapshots gain isolated nodes), a smaller
  /// snapshot is grown to the sequence's node count. This is the ingestion
  /// path for discovered node sets (DESIGN.md §8); `Append` stays strict so
  /// fixed-size pipelines keep their node-count invariant.
  [[nodiscard]] Status AppendGrowing(WeightedGraph snapshot);

  /// Grows the node set to `num_nodes`, including every existing snapshot;
  /// the new nodes are isolated everywhere. Shrinking is rejected.
  [[nodiscard]] Status GrowTo(size_t num_nodes);

  /// Attaches a string-id vocabulary covering the node set exactly
  /// (vocabulary size must equal num_nodes()). Purely a relabeling layer:
  /// detectors and solvers never look at it.
  [[nodiscard]] Status SetVocabulary(NodeVocabulary vocabulary);

  /// The attached vocabulary, or nullptr for integer-id sequences.
  const NodeVocabulary* vocabulary() const {
    return vocabulary_.has_value() ? &*vocabulary_ : nullptr;
  }

  /// Snapshot at time t (0-based). Bounds-checked.
  const WeightedGraph& Snapshot(size_t t) const {
    CAD_CHECK_LT(t, snapshots_.size());
    return snapshots_[t];
  }

  const std::vector<WeightedGraph>& snapshots() const { return snapshots_; }

  /// Average number of nonzero-weight edges per snapshot (the paper's `m`).
  double AverageEdgesPerSnapshot() const;

  /// \brief Snapshot-consistency validation for CAD_DCHECK_OK at detector
  /// and pipeline entry points: every snapshot shares the sequence's node
  /// count and every edge has a finite, positive weight with in-range,
  /// canonically ordered endpoints. O(sum of snapshot edge counts).
  [[nodiscard]] Status CheckConsistent() const;

 private:
  size_t num_nodes_;
  std::vector<WeightedGraph> snapshots_;
  std::optional<NodeVocabulary> vocabulary_;
};

}  // namespace cad

#endif  // CAD_GRAPH_TEMPORAL_GRAPH_H_
