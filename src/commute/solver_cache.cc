#include "commute/solver_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/obs.h"

namespace cad {

namespace {

// Both cached blocks are node-major n x k; a node-count or embedding-
// dimension change invalidates them.
bool HasShape(const DenseMatrix& block, size_t num_nodes,
              size_t embedding_dim) {
  return block.rows() == num_nodes && block.cols() == embedding_dim;
}

size_t DenseBytes(const DenseMatrix& matrix) {
  return matrix.rows() * matrix.cols() * sizeof(double);
}

size_t CsrBytes(const CsrMatrix& matrix) {
  return matrix.nnz() * (sizeof(double) + sizeof(uint32_t)) +
         (matrix.rows() + 1) * sizeof(size_t);
}

}  // namespace

std::shared_ptr<const DenseMatrix> CommuteSolverCache::PreviousEmbedding(
    size_t num_nodes, size_t embedding_dim) const {
  const std::shared_ptr<const DenseMatrix>& embedding = state_.embedding;
  return embedding != nullptr && HasShape(*embedding, num_nodes, embedding_dim)
             ? embedding
             : nullptr;
}

void CommuteSolverCache::StoreEmbedding(
    std::shared_ptr<const DenseMatrix> embedding) {
  state_.embedding = std::move(embedding);
}

const DenseMatrix* CommuteSolverCache::IncrementalRhs(
    size_t num_nodes, size_t embedding_dim) const {
  const std::optional<DenseMatrix>& rhs = state_.incremental_rhs;
  return rhs.has_value() && HasShape(*rhs, num_nodes, embedding_dim) ? &*rhs
                                                                     : nullptr;
}

DenseMatrix* CommuteSolverCache::MutableIncrementalRhs(size_t num_nodes,
                                                       size_t embedding_dim) {
  std::optional<DenseMatrix>& rhs = state_.incremental_rhs;
  return rhs.has_value() && HasShape(*rhs, num_nodes, embedding_dim) ? &*rhs
                                                                     : nullptr;
}

void CommuteSolverCache::StoreIncrementalRhs(DenseMatrix rhs) {
  state_.incremental_rhs = std::move(rhs);
}

void CommuteSolverCache::RecordIncrementalBuild(size_t resolved,
                                                size_t total) {
  ++state_.incremental_builds;
  state_.rhs_resolved += resolved;
  state_.rhs_reused += total - resolved;
  state_.last_resolved_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(resolved) / static_cast<double>(total);
  CAD_METRIC_INC("commute.incremental_builds");
  CAD_METRIC_ADD("commute.incremental_rhs_resolved",
                 static_cast<int64_t>(resolved));
  CAD_METRIC_ADD("commute.incremental_rhs_reused",
                 static_cast<int64_t>(total - resolved));
}

bool CommuteSolverCache::AdmitChurn(double churn_ratio,
                                    double churn_threshold) {
  state_.last_churn_ratio = churn_ratio;
  if (churn_ratio > churn_threshold) {
    ++state_.churn_rejections;
    CAD_METRIC_INC("commute.incremental_churn_rejections");
    return false;
  }
  return true;
}

Result<const IncompleteCholesky*> CommuteSolverCache::FactorFor(
    const CsrMatrix& laplacian) {
  const std::vector<double> diagonal = laplacian.Diagonal();
  // A cached factor is only comparable when both its dimension and its
  // recorded diagonal match the incoming system; a diagonal of the wrong
  // length (possible only through a corrupted or inconsistent RestoreState,
  // which is itself rejected — this is defense in depth) must never be
  // indexed past its size.
  const std::optional<IncompleteCholesky>& cached = state_.factor;
  const std::vector<double>& cached_diagonal = state_.factor_diagonal;
  const bool have_factor = cached.has_value();
  const bool dimension_ok = have_factor &&
                            cached->dimension() == laplacian.rows() &&
                            cached_diagonal.size() == diagonal.size();
  bool stale = !dimension_ok;
  double& relative_change = state_.last_relative_change;
  if (have_factor) {
    // Drift ratio over the union index range: entries beyond either
    // diagonal's size read as zero, so node-set growth registers as the
    // large change it is instead of silently resetting the gauge.
    double change = 0.0;
    double base = 0.0;
    const size_t common = std::min(diagonal.size(), cached_diagonal.size());
    for (size_t i = 0; i < common; ++i) {
      change += std::fabs(diagonal[i] - cached_diagonal[i]);
    }
    for (size_t i = common; i < diagonal.size(); ++i) {
      change += std::fabs(diagonal[i]);
    }
    for (size_t i = common; i < cached_diagonal.size(); ++i) {
      change += std::fabs(cached_diagonal[i]);
    }
    for (size_t i = 0; i < cached_diagonal.size(); ++i) {
      base += std::fabs(cached_diagonal[i]);
    }
    if (base > 0.0) {
      relative_change = change / base;
    } else {
      // An all-zero cached diagonal can only drift to something nonzero.
      relative_change =
          change > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    }
    if (!stale) stale = relative_change > refactor_threshold_;
  } else {
    relative_change = 0.0;
  }
  if (have_factor && !dimension_ok) {
    ++state_.dimension_invalidations;
    CAD_METRIC_INC("commute.ic0_dimension_invalidations");
  }
  if (stale) {
    Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(laplacian);
    if (!factor.ok()) return factor.status();
    state_.factor.emplace(std::move(factor).ValueOrDie());
    state_.factor_diagonal = diagonal;
    ++state_.refactorizations;
    CAD_METRIC_INC("commute.ic0_refactorizations");
  } else {
    ++state_.factor_reuses;
    CAD_METRIC_INC("commute.ic0_factor_reuses");
  }
  return static_cast<const IncompleteCholesky*>(&*state_.factor);
}

Status CommuteSolverCache::RestoreState(State state) {
  if (state.factor.has_value()) {
    const CsrMatrix& lower = state.factor->lower();
    if (lower.rows() != lower.cols()) {
      return Status::InvalidArgument(
          "CommuteSolverCache::RestoreState: cached factor is not square (" +
          std::to_string(lower.rows()) + " x " + std::to_string(lower.cols()) +
          ")");
    }
    if (state.factor_diagonal.size() != lower.rows()) {
      return Status::InvalidArgument(
          "CommuteSolverCache::RestoreState: factor_diagonal has " +
          std::to_string(state.factor_diagonal.size()) +
          " entries for a factor of dimension " +
          std::to_string(lower.rows()));
    }
  } else if (!state.factor_diagonal.empty()) {
    return Status::InvalidArgument(
        "CommuteSolverCache::RestoreState: factor_diagonal present without a "
        "cached factor");
  }
  state_ = std::move(state);
  return Status::OK();
}

size_t CommuteSolverCache::ApproxBytes() const {
  size_t bytes = state_.factor_diagonal.size() * sizeof(double);
  if (state_.embedding != nullptr) bytes += DenseBytes(*state_.embedding);
  if (state_.incremental_rhs.has_value()) {
    bytes += DenseBytes(*state_.incremental_rhs);
  }
  if (state_.factor.has_value()) {
    // The factor stores its transpose alongside the lower triangle.
    bytes += 2 * CsrBytes(state_.factor->lower());
  }
  return bytes;
}

}  // namespace cad
