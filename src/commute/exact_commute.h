#ifndef CAD_COMMUTE_EXACT_COMMUTE_H_
#define CAD_COMMUTE_EXACT_COMMUTE_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "commute/commute_time.h"
#include "graph/components.h"
#include "graph/edge_delta.h"
#include "graph/snapshot.h"
#include "linalg/dense_matrix.h"

namespace cad {

/// \brief Exact commute-time distances from the dense Laplacian
/// pseudoinverse (paper §3.1, Eq. 3).
///
/// Build cost is O(n^3) time and O(n^2) memory, so this engine is meant for
/// snapshots up to a few thousand nodes — the toy example (n=17) and the
/// Enron-scale network (n=151) in the paper both use the exact computation.
///
/// For a *connected* graph the pseudoinverse is obtained without an
/// eigendecomposition through the rank-one identity
///   L+ = (L + (1/n) 1 1^T)^{-1} - (1/n) 1 1^T,
/// where L + (1/n) 1 1^T is SPD and is factorized by dense Cholesky.
/// For disconnected graphs the same identity is applied per component (each
/// component's Laplacian has a one-dimensional nullspace). Cross-component
/// distances follow the policy in CommuteTimeOptions: by default the
/// paper-faithful Eq. 3 value V_G (l+_uu + l+_vv), optionally a dominating
/// finite sentinel.
class ExactCommuteTime : public CommuteTimeOracle {
 public:
  /// Builds the oracle for one snapshot. Fails only on numerical breakdown
  /// (which would indicate a malformed Laplacian).
  [[nodiscard]] static Result<ExactCommuteTime> Build(
      const Snapshot& snapshot,
      const CommuteTimeOptions& options = CommuteTimeOptions());

  /// Builds the oracle for `snapshot` from the previous snapshot's oracle and
  /// the edge delta between them, via a rank-k Sherman–Morrison–Woodbury
  /// update of the cached pseudoinverse — O(n^2 k) against Build's O(n^3)
  /// (DESIGN.md §12).
  ///
  /// Valid only when the node count and the connected-component structure
  /// are unchanged between the snapshots; returns FailedPrecondition
  /// otherwise, and NumericalError when the decrement pass breaks down
  /// (a capacitance matrix that is not positive definite). Callers fall
  /// back to a full Build on any failure. Within validity the result
  /// matches Build to floating-point accumulation error (the tolerance
  /// contract in DESIGN.md §12, asserted by tests at 1e-8 relative).
  [[nodiscard]] static Result<ExactCommuteTime> BuildIncremental(
      const Snapshot& snapshot, const ExactCommuteTime& previous,
      const EdgeDelta& delta,
      const CommuteTimeOptions& options = CommuteTimeOptions());

  /// Reassembles an oracle from previously exported internals (see the
  /// accessors below); used by checkpoint restore, which must reproduce a
  /// built oracle exactly rather than re-run Build. The caller is
  /// responsible for passing mutually consistent parts.
  static ExactCommuteTime FromParts(DenseMatrix lplus,
                                    ComponentLabeling components, double volume,
                                    double sentinel, bool use_sentinel) {
    return ExactCommuteTime(std::move(lplus), std::move(components), volume,
                            sentinel, use_sentinel);
  }

  double CommuteTime(NodeId u, NodeId v) const override;

  size_t num_nodes() const override { return lplus_.rows(); }

  /// The Laplacian pseudoinverse (exact on the component-diagonal blocks,
  /// zero across components).
  const DenseMatrix& laplacian_pseudoinverse() const { return lplus_; }

  double volume() const { return volume_; }

  const ComponentLabeling& components() const { return components_; }
  double sentinel() const { return sentinel_; }
  bool use_sentinel() const { return use_sentinel_; }

  /// Full n x n commute-time matrix; intended for small n.
  DenseMatrix CommuteTimeMatrix() const;

 private:
  ExactCommuteTime(DenseMatrix lplus, ComponentLabeling components,
                   double volume, double sentinel, bool use_sentinel)
      : lplus_(std::move(lplus)),
        components_(std::move(components)),
        volume_(volume),
        sentinel_(sentinel),
        use_sentinel_(use_sentinel) {}

  DenseMatrix lplus_;
  ComponentLabeling components_;
  double volume_;
  double sentinel_;
  bool use_sentinel_;
};

}  // namespace cad

#endif  // CAD_COMMUTE_EXACT_COMMUTE_H_
