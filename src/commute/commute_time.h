#ifndef CAD_COMMUTE_COMMUTE_TIME_H_
#define CAD_COMMUTE_COMMUTE_TIME_H_

#include <cstddef>

#include "graph/graph.h"

namespace cad {

/// \brief Shared numerical options for the commute-time engines.
struct CommuteTimeOptions {
  /// Diagonal regularization added to the Laplacian, as a fraction of the
  /// graph volume (with a floor of the raw value for empty graphs):
  /// epsilon = regularization_scale * max(volume, 1). Makes L strictly SPD so
  /// that disconnected snapshots are handled without special casing; pairs
  /// inside one component are perturbed only by O(epsilon).
  double regularization_scale = 1e-8;

  /// Commute times between nodes in different connected components are
  /// mathematically infinite (the walk never crosses). Two policies:
  ///
  /// false (default, paper-faithful): report Eq. 3 evaluated on the global
  /// Laplacian pseudoinverse, c = V_G (l+_uu + l+_vv - 2 l+_uv) with
  /// l+_uv = 0 across components, i.e. V_G (l+_uu + l+_vv). This is what
  /// the paper's formula computes on disconnected snapshots (isolated
  /// nodes have l+_ii = 0), keeps values moderate, and avoids routine
  /// node-inactivity (an employee sending no email one month) from
  /// dominating every score. Cross-component values in this mode are not a
  /// metric across components.
  ///
  /// true (strict): report the finite sentinel
  ///   volume * num_nodes,
  /// which dominates every within-component commute time. Preserves the
  /// metric ordering "different component = farther than anything
  /// connected" at the cost of making component churn the loudest signal.
  bool use_cross_component_sentinel = false;
};

/// \brief Interface for commute-time distance queries on one graph snapshot.
///
/// The commute time c(i, j) is the expected number of steps for a random
/// walk to travel from i to j and back (paper §3.1, Eq. 3):
///   c(i, j) = V_G * (l+_ii + l+_jj - 2 l+_ij)
/// where L+ is the pseudoinverse of the graph Laplacian and V_G the graph
/// volume. Implementations: ExactCommuteTime (dense, O(n^3) build, exact) and
/// ApproxCommuteEmbedding (sparse, near-linear build, (1±eps) accurate).
class CommuteTimeOracle {
 public:
  virtual ~CommuteTimeOracle() = default;

  /// Commute-time distance between nodes u and v. Returns 0 for u == v.
  virtual double CommuteTime(NodeId u, NodeId v) const = 0;

  /// Number of nodes in the underlying snapshot.
  virtual size_t num_nodes() const = 0;
};

/// Computes the finite stand-in for "infinite" cross-component commute time.
inline double CrossComponentSentinel(double volume, size_t num_nodes) {
  return (volume > 0.0 ? volume : 1.0) *
         static_cast<double>(num_nodes > 0 ? num_nodes : 1);
}

}  // namespace cad

#endif  // CAD_COMMUTE_COMMUTE_TIME_H_
