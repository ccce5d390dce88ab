#include "commute/solver_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.h"

namespace cad {

const DenseMatrix* CommuteSolverCache::PreviousEmbedding(
    size_t embedding_dim, size_t num_nodes) const {
  if (!embedding_.has_value() || embedding_->rows() != embedding_dim ||
      embedding_->cols() != num_nodes) {
    return nullptr;
  }
  return &*embedding_;
}

void CommuteSolverCache::StoreEmbedding(const DenseMatrix& embedding) {
  embedding_ = embedding;
}

const DenseMatrix* CommuteSolverCache::IncrementalRhs(
    size_t num_nodes, size_t embedding_dim) const {
  if (!incremental_rhs_.has_value() ||
      incremental_rhs_->rows() != num_nodes ||
      incremental_rhs_->cols() != embedding_dim) {
    return nullptr;
  }
  return &*incremental_rhs_;
}

DenseMatrix* CommuteSolverCache::MutableIncrementalRhs(size_t num_nodes,
                                                       size_t embedding_dim) {
  if (!incremental_rhs_.has_value() ||
      incremental_rhs_->rows() != num_nodes ||
      incremental_rhs_->cols() != embedding_dim) {
    return nullptr;
  }
  return &*incremental_rhs_;
}

void CommuteSolverCache::StoreIncrementalRhs(const DenseMatrix& rhs) {
  incremental_rhs_ = rhs;
}

void CommuteSolverCache::RecordIncrementalBuild(size_t resolved,
                                                size_t total) {
  ++incremental_builds_;
  rhs_resolved_ += resolved;
  rhs_reused_ += total - resolved;
  last_resolved_fraction_ =
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
  last_churn_ratio_ = churn_ratio;
  if (churn_ratio > churn_threshold) {
    ++churn_rejections_;
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
  const bool have_factor = factor_.has_value();
  const bool dimension_ok = have_factor &&
                            factor_->dimension() == laplacian.rows() &&
                            factor_diagonal_.size() == diagonal.size();
  bool stale = !dimension_ok;
  if (have_factor) {
    // Drift ratio over the union index range: entries beyond either
    // diagonal's size read as zero, so node-set growth registers as the
    // large change it is instead of silently resetting the gauge.
    double change = 0.0;
    double base = 0.0;
    const size_t common = std::min(diagonal.size(), factor_diagonal_.size());
    for (size_t i = 0; i < common; ++i) {
      change += std::fabs(diagonal[i] - factor_diagonal_[i]);
    }
    for (size_t i = common; i < diagonal.size(); ++i) {
      change += std::fabs(diagonal[i]);
    }
    for (size_t i = common; i < factor_diagonal_.size(); ++i) {
      change += std::fabs(factor_diagonal_[i]);
    }
    for (size_t i = 0; i < factor_diagonal_.size(); ++i) {
      base += std::fabs(factor_diagonal_[i]);
    }
    if (base > 0.0) {
      last_relative_change_ = change / base;
    } else {
      // An all-zero cached diagonal can only drift to something nonzero.
      last_relative_change_ =
          change > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    }
    if (!stale) stale = last_relative_change_ > refactor_threshold_;
  } else {
    last_relative_change_ = 0.0;
  }
  if (have_factor && !dimension_ok) {
    ++dimension_invalidations_;
    CAD_METRIC_INC("commute.ic0_dimension_invalidations");
  }
  if (stale) {
    Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(laplacian);
    if (!factor.ok()) return factor.status();
    factor_.emplace(std::move(factor).ValueOrDie());
    factor_diagonal_ = diagonal;
    ++refactorizations_;
    CAD_METRIC_INC("commute.ic0_refactorizations");
  } else {
    ++factor_reuses_;
    CAD_METRIC_INC("commute.ic0_factor_reuses");
  }
  return static_cast<const IncompleteCholesky*>(&*factor_);
}

CommuteSolverCache::State CommuteSolverCache::ExportState() const {
  State state;
  state.embedding = embedding_;
  if (factor_.has_value()) {
    state.factor_lower = factor_->lower();
    state.factor_shift = factor_->shift_used();
  }
  state.factor_diagonal = factor_diagonal_;
  state.factor_reuses = factor_reuses_;
  state.refactorizations = refactorizations_;
  state.last_relative_change = last_relative_change_;
  state.incremental_rhs = incremental_rhs_;
  state.incremental_builds = incremental_builds_;
  state.rhs_resolved = rhs_resolved_;
  state.rhs_reused = rhs_reused_;
  state.last_resolved_fraction = last_resolved_fraction_;
  state.last_churn_ratio = last_churn_ratio_;
  state.dimension_invalidations = dimension_invalidations_;
  state.churn_rejections = churn_rejections_;
  return state;
}

Status CommuteSolverCache::RestoreState(State state) {
  if (state.factor_lower.has_value()) {
    if (state.factor_lower->rows() != state.factor_lower->cols()) {
      return Status::InvalidArgument(
          "CommuteSolverCache::RestoreState: cached factor is not square (" +
          std::to_string(state.factor_lower->rows()) + " x " +
          std::to_string(state.factor_lower->cols()) + ")");
    }
    if (state.factor_diagonal.size() != state.factor_lower->rows()) {
      return Status::InvalidArgument(
          "CommuteSolverCache::RestoreState: factor_diagonal has " +
          std::to_string(state.factor_diagonal.size()) +
          " entries for a factor of dimension " +
          std::to_string(state.factor_lower->rows()));
    }
  } else if (!state.factor_diagonal.empty()) {
    return Status::InvalidArgument(
        "CommuteSolverCache::RestoreState: factor_diagonal present without a "
        "cached factor");
  }
  embedding_ = std::move(state.embedding);
  if (state.factor_lower.has_value()) {
    factor_ = IncompleteCholesky::FromFactor(std::move(*state.factor_lower),
                                             state.factor_shift);
  } else {
    factor_.reset();
  }
  factor_diagonal_ = std::move(state.factor_diagonal);
  factor_reuses_ = state.factor_reuses;
  refactorizations_ = state.refactorizations;
  last_relative_change_ = state.last_relative_change;
  incremental_rhs_ = std::move(state.incremental_rhs);
  incremental_builds_ = state.incremental_builds;
  rhs_resolved_ = state.rhs_resolved;
  rhs_reused_ = state.rhs_reused;
  last_resolved_fraction_ = state.last_resolved_fraction;
  last_churn_ratio_ = state.last_churn_ratio;
  dimension_invalidations_ = state.dimension_invalidations;
  churn_rejections_ = state.churn_rejections;
  return Status::OK();
}

void CommuteSolverCache::Clear() {
  embedding_.reset();
  factor_.reset();
  factor_diagonal_.clear();
  factor_reuses_ = 0;
  refactorizations_ = 0;
  last_relative_change_ = 0.0;
  incremental_rhs_.reset();
  incremental_builds_ = 0;
  rhs_resolved_ = 0;
  rhs_reused_ = 0;
  last_resolved_fraction_ = 0.0;
  last_churn_ratio_ = 0.0;
  dimension_invalidations_ = 0;
  churn_rejections_ = 0;
}

namespace {

size_t DenseBytes(const std::optional<DenseMatrix>& matrix) {
  return matrix.has_value() ? matrix->rows() * matrix->cols() * sizeof(double)
                            : 0;
}

size_t CsrBytes(const CsrMatrix& matrix) {
  return matrix.nnz() * (sizeof(double) + sizeof(uint32_t)) +
         (matrix.rows() + 1) * sizeof(size_t);
}

}  // namespace

size_t CommuteSolverCache::ApproxBytes() const {
  size_t bytes = DenseBytes(embedding_) + DenseBytes(incremental_rhs_) +
                 factor_diagonal_.size() * sizeof(double);
  if (factor_.has_value()) {
    // The factor stores its transpose alongside the lower triangle.
    bytes += 2 * CsrBytes(factor_->lower());
  }
  return bytes;
}

}  // namespace cad
