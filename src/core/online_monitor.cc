#include "core/online_monitor.h"

#include "commute/approx_commute.h"
#include "commute/commute_time.h"
#include "commute/exact_commute.h"
#include "common/timer.h"
#include "graph/components.h"
#include "linalg/dense_matrix.h"
#include "obs/obs.h"

namespace cad {

namespace {

// Extends a labeling with one singleton component per appended node. New
// nodes carry the highest ids, and component ids are assigned in order of
// each component's smallest node, so this matches a fresh labeling of the
// grown graph exactly.
ComponentLabeling GrowComponents(const ComponentLabeling& components,
                                 size_t num_nodes) {
  ComponentLabeling grown = components;
  grown.component.reserve(num_nodes);
  grown.sizes.reserve(grown.num_components +
                      (num_nodes - grown.component.size()));
  while (grown.component.size() < num_nodes) {
    grown.component.push_back(static_cast<uint32_t>(grown.num_components));
    grown.sizes.push_back(1);
    ++grown.num_components;
  }
  return grown;
}

// Zero-pads a square matrix (the exact engine's L+) to size n x n. Isolated
// nodes have l+_ii = 0, so zero rows/columns are exactly what a fresh build
// produces for them.
DenseMatrix PadSquare(const DenseMatrix& matrix, size_t n) {
  DenseMatrix padded(n, n);
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = 0; j < matrix.cols(); ++j) {
      padded(i, j) = matrix(i, j);
    }
  }
  return padded;
}

// Zero-pads a k x n embedding with columns for the appended nodes. Isolated
// nodes have no incident edges, so their JL projections are exactly zero.
DenseMatrix PadColumns(const DenseMatrix& matrix, size_t cols) {
  DenseMatrix padded(matrix.rows(), cols);
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = 0; j < matrix.cols(); ++j) {
      padded(i, j) = matrix(i, j);
    }
  }
  return padded;
}

}  // namespace

OnlineMonitorOptions OnlineCadMonitor::NormalizeOptions(
    OnlineMonitorOptions options) {
  if (options.incremental) {
    options.detector.approx.warm_start = true;
    options.detector.approx.incremental = true;
  }
  return options;
}

Status OnlineCadMonitor::GrowPreviousTo(size_t num_nodes) {
  CAD_RETURN_NOT_OK(previous_snapshot_->GrowTo(num_nodes));
  // Growing appends isolated nodes, which leave the volume and every
  // within-component pseudoinverse entry untouched; only the
  // cross-component sentinel depends on n, and a fresh build would derive
  // it from the same formula.
  if (const auto* exact =
          dynamic_cast<const ExactCommuteTime*>(previous_oracle_.get())) {
    const double sentinel = CrossComponentSentinel(
        exact->volume(), num_nodes, options_.detector.exact);
    previous_oracle_ = std::make_unique<ExactCommuteTime>(
        ExactCommuteTime::FromParts(
            PadSquare(exact->laplacian_pseudoinverse(), num_nodes),
            GrowComponents(exact->components(), num_nodes), exact->volume(),
            sentinel, exact->use_sentinel()));
    return Status::OK();
  }
  if (const auto* approx = dynamic_cast<const ApproxCommuteEmbedding*>(
          previous_oracle_.get())) {
    const double sentinel = CrossComponentSentinel(
        approx->volume(), num_nodes, options_.detector.approx.commute);
    previous_oracle_ = std::make_unique<ApproxCommuteEmbedding>(
        ApproxCommuteEmbedding::FromParts(
            PadColumns(approx->embedding(), num_nodes),
            GrowComponents(approx->components(), num_nodes), approx->volume(),
            sentinel, approx->use_sentinel(), approx->cg_stats()));
    return Status::OK();
  }
  return Status::NotImplemented(
      "cannot grow an unknown commute-time oracle type");
}

Result<std::optional<AnomalyReport>> OnlineCadMonitor::Observe(
    const WeightedGraph& snapshot) {
  CAD_CHECK(!observing_) << "OnlineCadMonitor::Observe is not re-entrant; "
                            "serialize calls per monitor";
  observing_ = true;
  const uint64_t start_ns = Timer::NowNanos();
  Result<std::optional<AnomalyReport>> result = ObserveImpl(snapshot);
  // Wall time is volatile, so it goes into a timer histogram (exported under
  // kind "timer", outside the deterministic-row contract) where mid-run
  // quantiles stay computable.
  CAD_METRIC_TIME_HIST_NS("monitor.window_latency",
                          Timer::NowNanos() - start_ns);
  if (!result.ok()) {
    CAD_METRIC_INC("monitor.windows_failed");
    CAD_FLIGHT_NOTE("monitor.observe_failed",
                    static_cast<double>(num_snapshots_));
    observing_ = false;
    return result;
  }
  CAD_METRIC_INC("monitor.windows");
  CAD_METRIC_SET("monitor.delta", delta_);
  CAD_METRIC_SET("monitor.history_depth", history_.size());
  CAD_METRIC_SET("monitor.cache_staleness",
                 solver_cache_.last_relative_change());
  if (options_.incremental) {
    CAD_METRIC_SET("monitor.churn_ratio", solver_cache_.last_churn_ratio());
    CAD_METRIC_SET("monitor.rhs_resolved_fraction",
                   solver_cache_.last_resolved_fraction());
  }
  CAD_FLIGHT_NOTE("monitor.observe", static_cast<double>(num_snapshots_));
  if (stats_ != nullptr) {
    // Count-based heartbeat: one tick per window keeps emission deterministic
    // across thread counts and runs.
    const Result<bool> emitted = stats_->Tick();
    if (!emitted.ok()) {
      observing_ = false;
      return emitted.status();
    }
  }
  observing_ = false;
  return result;
}

Result<std::optional<AnomalyReport>> OnlineCadMonitor::ObserveImpl(
    const WeightedGraph& snapshot) {
  if (previous_snapshot_.has_value() &&
      snapshot.num_nodes() != previous_snapshot_->num_nodes()) {
    if (snapshot.num_nodes() < previous_snapshot_->num_nodes()) {
      return Status::InvalidArgument(
          "snapshot node count " + std::to_string(snapshot.num_nodes()) +
          " is below the stream's " +
          std::to_string(previous_snapshot_->num_nodes()) +
          "; discovered node sets only grow");
    }
    CAD_METRIC_ADD("monitor.nodes_grown",
                   snapshot.num_nodes() - previous_snapshot_->num_nodes());
    CAD_RETURN_NOT_OK(GrowPreviousTo(snapshot.num_nodes()));
  }

  std::unique_ptr<CommuteTimeOracle> oracle;
  CommuteSolverCache* cache =
      options_.detector.approx.warm_start || options_.incremental
          ? &solver_cache_
          : nullptr;
  if (options_.incremental && previous_snapshot_.has_value()) {
    // Incremental path: update the previous window's oracle under the edge
    // delta. (After GrowPreviousTo the node counts already match; growth
    // windows then typically fall back inside BuildOracleIncremental when
    // the new nodes change the component structure or invalidate the
    // cached embedding shape.)
    CAD_ASSIGN_OR_RETURN(
        oracle, detector_.BuildOracleIncremental(
                    snapshot, *previous_snapshot_, previous_oracle_.get(),
                    cache));
  } else {
    CAD_ASSIGN_OR_RETURN(oracle, detector_.BuildOracle(snapshot, cache));
  }
  ++num_snapshots_;

  if (!previous_snapshot_.has_value()) {
    previous_snapshot_ = snapshot;
    previous_oracle_ = std::move(oracle);
    return std::optional<AnomalyReport>();
  }

  // Score the transition that just completed.
  history_.push_back(ComputeTransitionScores(
      *previous_snapshot_, snapshot, *previous_oracle_, *oracle,
      options_.detector.score_kind));
  ++num_transitions_total_;
  CAD_METRIC_INC("monitor.transitions");
  previous_snapshot_ = snapshot;
  previous_oracle_ = std::move(oracle);

  // Sliding calibration window: drop the oldest scores once past capacity so
  // a long-lived stream holds O(max_history) transitions instead of O(T).
  if (options_.max_history > 0 && history_.size() > options_.max_history) {
    history_.erase(history_.begin(),
                   history_.end() - static_cast<std::ptrdiff_t>(
                                        options_.max_history));
  }

  // Online threshold update over the retained history (paper §4.2).
  delta_ = CalibrateDelta(history_, options_.nodes_per_transition);

  if (num_transitions_total_ <= options_.warmup_transitions) {
    return std::optional<AnomalyReport>();
  }
  const TransitionScores& latest = history_.back();
  AnomalyReport report;
  report.transition = num_transitions_total_ - 1;
  const std::vector<size_t> selected = SelectAnomalousEdges(latest, delta_);
  report.edges.reserve(selected.size());
  for (size_t index : selected) report.edges.push_back(latest.edges[index]);
  report.nodes = EndpointUnion(latest, selected);
  return std::optional<AnomalyReport>(std::move(report));
}

}  // namespace cad
