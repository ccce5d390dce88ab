#include "graph/temporal_stats.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <optional>
#include <ostream>
#include <utility>

#include "graph/components.h"
#include "graph/edge_delta.h"
#include "graph/snapshot.h"

namespace cad {

namespace {

/// Churn of one transition, from one merge pass over the two sorted edge
/// lists (the union support, in canonical order).
TransitionStats ProfileTransition(const Snapshot& before,
                                  const Snapshot& after) {
  TransitionStats stats;
  size_t shared = 0;
  MergeEdgeLists(before.edges(), after.edges(),
                 [&](NodeId, NodeId, double w1, double w2) {
                   stats.weight_change_l1 += std::fabs(w2 - w1);
                   if (w1 == 0.0) {
                     ++stats.edges_added;
                   } else if (w2 == 0.0) {
                     ++stats.edges_removed;
                   } else {
                     ++shared;
                     if (w1 != w2) ++stats.edges_reweighted;
                   }
                 });
  const size_t union_size = stats.edges_added + stats.edges_removed + shared;
  stats.support_jaccard =
      union_size == 0 ? 1.0
                      : static_cast<double>(shared) /
                            static_cast<double>(union_size);
  return stats;
}

}  // namespace

TemporalProfile ProfileSequence(const TemporalGraphSequence& sequence) {
  TemporalProfile profile;
  profile.snapshots.reserve(sequence.num_snapshots());
  profile.transitions.reserve(sequence.num_transitions());
  std::optional<Snapshot> previous;
  for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
    Snapshot snapshot(sequence.Snapshot(t));
    SnapshotStats stats;
    stats.num_edges = snapshot.num_edges();
    stats.volume = snapshot.volume();
    stats.mean_weight =
        stats.num_edges > 0
            ? stats.volume / (2.0 * static_cast<double>(stats.num_edges))
            : 0.0;
    const ComponentLabeling labeling = ConnectedComponents(snapshot);
    stats.num_components = labeling.num_components;
    for (size_t size : labeling.sizes) {
      stats.largest_component = std::max(stats.largest_component, size);
      if (size == 1) ++stats.isolated_nodes;
    }
    profile.snapshots.push_back(stats);
    if (previous.has_value()) {
      profile.transitions.push_back(ProfileTransition(*previous, snapshot));
    }
    previous = std::move(snapshot);
  }
  return profile;
}

void PrintTemporalProfile(const TemporalProfile& profile, std::ostream* out) {
  (*out) << "snapshot  edges  volume      mean_w  components  largest  isolated\n";
  for (size_t t = 0; t < profile.snapshots.size(); ++t) {
    const SnapshotStats& s = profile.snapshots[t];
    (*out) << std::left << std::setw(10) << t << std::setw(7) << s.num_edges
           << std::setw(12) << s.volume << std::setw(8)
           << std::setprecision(3) << s.mean_weight << std::setw(12)
           << s.num_components << std::setw(9) << s.largest_component
           << s.isolated_nodes << "\n";
  }
  (*out) << "\ntransition  added  removed  reweighted  |dA|_1      jaccard\n";
  for (size_t t = 0; t < profile.transitions.size(); ++t) {
    const TransitionStats& s = profile.transitions[t];
    (*out) << std::left << std::setw(12) << t << std::setw(7) << s.edges_added
           << std::setw(9) << s.edges_removed << std::setw(12)
           << s.edges_reweighted << std::setw(12) << s.weight_change_l1
           << std::setprecision(3) << s.support_jaccard << "\n";
  }
}

}  // namespace cad
