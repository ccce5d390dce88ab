#include "commute/exact_commute.h"

#include <algorithm>

#include "linalg/cholesky.h"
#include "linalg/woodbury.h"
#include "obs/obs.h"

namespace cad {

Result<ExactCommuteTime> ExactCommuteTime::Build(
    const Snapshot& snapshot, const CommuteTimeOptions& options) {
  CAD_TRACE_SPAN("exact_commute_build");
  CAD_METRIC_INC("commute.exact_builds");
  const size_t n = snapshot.num_nodes();
  const double volume = snapshot.volume();
  const double sentinel = CrossComponentSentinel(volume, n);
  // The adjacency CSR gives both the components and, row by row, each
  // component's edges.
  const CsrMatrix adjacency = ToAdjacencyCsr(snapshot);
  ComponentLabeling components = ConnectedComponents(adjacency);

  // Group node ids by component; local[i] is node i's index in its group.
  std::vector<std::vector<NodeId>> members(components.num_components);
  for (size_t c = 0; c < components.num_components; ++c) {
    members[c].reserve(components.sizes[c]);
  }
  std::vector<size_t> local(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<NodeId>& group = members[components.component[i]];
    local[i] = group.size();
    group.push_back(static_cast<NodeId>(i));
  }

  DenseMatrix lplus(n, n);
  const std::vector<double>& degrees = snapshot.weighted_degrees();
  const std::vector<size_t>& offsets = adjacency.row_offsets();

  for (const std::vector<NodeId>& nodes : members) {
    const size_t s = nodes.size();
    if (s <= 1) continue;  // singleton: L+ block is zero

    // Dense sub-Laplacian of this component, plus the rank-one shift
    // (1/s) 1 1^T that fills the nullspace and makes the block SPD.
    DenseMatrix shifted(s, s);
    const double shift = 1.0 / static_cast<double>(s);
    for (size_t a = 0; a < s; ++a) {
      for (size_t b = 0; b < s; ++b) shifted(a, b) = shift;
      shifted(a, a) += degrees[nodes[a]];
      for (size_t p = offsets[nodes[a]]; p < offsets[nodes[a] + 1]; ++p) {
        shifted(a, local[adjacency.col_indices()[p]]) -= adjacency.values()[p];
      }
    }

    Result<CholeskyFactorization> factor =
        CholeskyFactorization::Factor(shifted);
    if (!factor.ok()) {
      return Status::NumericalError(
          "ExactCommuteTime: Cholesky of shifted component Laplacian failed: " +
          factor.status().message());
    }
    const DenseMatrix inverse = factor->Inverse();

    // L+_block = (L + (1/s) 1 1^T)^{-1} - (1/s) 1 1^T, scattered back into
    // the global matrix.
    for (size_t a = 0; a < s; ++a) {
      for (size_t b = 0; b < s; ++b) {
        lplus(nodes[a], nodes[b]) = inverse(a, b) - shift;
      }
    }
  }

  return ExactCommuteTime(std::move(lplus), std::move(components), volume,
                          sentinel, options.use_cross_component_sentinel);
}

Result<ExactCommuteTime> ExactCommuteTime::BuildIncremental(
    const Snapshot& snapshot, const ExactCommuteTime& previous,
    const EdgeDelta& delta, const CommuteTimeOptions& options) {
  CAD_TRACE_SPAN("exact_commute_build_incremental");
  const size_t n = snapshot.num_nodes();
  if (n != previous.num_nodes()) {
    return Status::FailedPrecondition(
        "ExactCommuteTime::BuildIncremental: node count changed (" +
        std::to_string(previous.num_nodes()) + " -> " + std::to_string(n) +
        "); a grown node set needs a full rebuild");
  }
  // The Woodbury identity on the pseudoinverse requires the update to stay
  // within the existing component structure: equality of the (canonical)
  // component labelings guarantees every changed edge is range-compatible
  // with the cached L+ in both update passes.
  ComponentLabeling components = ConnectedComponents(snapshot);
  if (components.num_components != previous.components().num_components ||
      components.component != previous.components().component) {
    return Status::FailedPrecondition(
        "ExactCommuteTime::BuildIncremental: connected-component structure "
        "changed; the pseudoinverse update is not defined across a "
        "merge/split");
  }

  std::vector<IncidenceUpdate> updates;
  updates.reserve(delta.rank());
  for (const ChangedEdge& change : delta.changes) {
    updates.push_back(IncidenceUpdate{change.u, change.v, change.delta()});
  }
  DenseMatrix lplus = previous.laplacian_pseudoinverse();
  CAD_RETURN_NOT_OK(ApplyWoodburyUpdate(updates, &lplus));
  CAD_METRIC_INC("commute.exact_incremental_builds");

  const double volume = snapshot.volume();
  const double sentinel = CrossComponentSentinel(volume, n);
  return ExactCommuteTime(std::move(lplus), std::move(components), volume,
                          sentinel, options.use_cross_component_sentinel);
}

double ExactCommuteTime::CommuteTime(NodeId u, NodeId v) const {
  CAD_DCHECK(u < num_nodes() && v < num_nodes());
  if (u == v) return 0.0;
  if (use_sentinel_ && !components_.SameComponent(u, v)) return sentinel_;
  // Eq. 3 on the global pseudoinverse. Across components l+_uv = 0, so this
  // evaluates to V_G (l+_uu + l+_vv) — the paper-faithful finite value.
  const double resistance = lplus_(u, u) + lplus_(v, v) - 2.0 * lplus_(u, v);
  // Clamp tiny negative values from rounding.
  return volume_ * std::max(resistance, 0.0);
}

DenseMatrix ExactCommuteTime::CommuteTimeMatrix() const {
  const size_t n = num_nodes();
  DenseMatrix c(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double value =
          CommuteTime(static_cast<NodeId>(i), static_cast<NodeId>(j));
      c(i, j) = value;
      c(j, i) = value;
    }
  }
  return c;
}

}  // namespace cad
