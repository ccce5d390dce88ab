#include "core/cad_detector.h"

#include "commute/solver_cache.h"
#include "obs/obs.h"

namespace cad {

namespace {

// Node-count crossover for CommuteEngine::kAuto: the dense O(n^3) exact
// engine up to here, the approximate embedding beyond.
constexpr size_t kExactNodeLimit = 400;

Result<std::unique_ptr<CommuteTimeOracle>> Boxed(
    Result<ExactCommuteTime> oracle) {
  if (!oracle.ok()) return oracle.status();
  return std::unique_ptr<CommuteTimeOracle>(
      new ExactCommuteTime(std::move(oracle).ValueOrDie()));
}

Result<std::unique_ptr<CommuteTimeOracle>> Boxed(
    Result<ApproxCommuteEmbedding> oracle) {
  if (!oracle.ok()) return oracle.status();
  return std::unique_ptr<CommuteTimeOracle>(
      new ApproxCommuteEmbedding(std::move(oracle).ValueOrDie()));
}

/// Scores the transitions of the timeline `snapshots` (at least two, in
/// order).
Result<std::vector<TransitionScores>> ScoreTimeline(
    const CadDetector& detector,
    const std::vector<const WeightedGraph*>& snapshots) {
  const CadOptions& options = detector.options();
  std::vector<TransitionScores> all_scores;
  all_scores.reserve(snapshots.size() - 1);
  // One cache per timeline: snapshot t's embedding and IC(0) factor carry
  // into snapshot t+1's build (no-op unless approx.warm_start is set and
  // the approximate engine is selected).
  CommuteSolverCache cache(options.approx.refactor_threshold);
  CommuteSolverCache* cache_ptr = options.approx.warm_start ? &cache : nullptr;
  // Each snapshot and its oracle are derived once and shared by its build
  // and its two adjacent transitions, so at most two of each are live.
  // Threads work inside each step: the build's column groups
  // (approx.cg.num_threads) and the transition's commute lookups
  // (analysis_threads).
  Snapshot previous_snapshot(*snapshots[0]);
  std::unique_ptr<CommuteTimeOracle> previous;
  CAD_ASSIGN_OR_RETURN(previous,
                       detector.BuildOracle(previous_snapshot, cache_ptr));
  for (size_t t = 1; t < snapshots.size(); ++t) {
    Snapshot snapshot(*snapshots[t]);
    std::unique_ptr<CommuteTimeOracle> current;
    CAD_ASSIGN_OR_RETURN(current, detector.BuildOracle(snapshot, cache_ptr));
    all_scores.push_back(ComputeTransitionScores(
        previous_snapshot, snapshot, *previous, *current, options.score_kind,
        options.analysis_threads));
    previous = std::move(current);
    previous_snapshot = std::move(snapshot);
  }
  return all_scores;
}

}  // namespace

bool CadDetector::UsesExactEngine(size_t num_nodes) const {
  return options_.engine == CommuteEngine::kExact ||
         (options_.engine == CommuteEngine::kAuto &&
          num_nodes <= kExactNodeLimit);
}

Result<std::unique_ptr<CommuteTimeOracle>> CadDetector::BuildOracle(
    const Snapshot& snapshot, CommuteSolverCache* cache) const {
  if (UsesExactEngine(snapshot.num_nodes())) {
    return Boxed(ExactCommuteTime::Build(snapshot, options_.exact));
  }
  return Boxed(ApproxCommuteEmbedding::Build(snapshot, options_.approx, cache));
}

Result<std::unique_ptr<CommuteTimeOracle>> CadDetector::BuildOracleIncremental(
    const Snapshot& snapshot, const Snapshot& previous_snapshot,
    const CommuteTimeOracle* previous_oracle,
    CommuteSolverCache* cache) const {
  const bool use_exact = UsesExactEngine(snapshot.num_nodes());
  // The approximate paths (incremental and its full-rebuild fallbacks) run
  // with incremental mode forced on, so every full build re-seeds the
  // cache's RHS block and the next window can try the update again.
  ApproxCommuteOptions approx = options_.approx;
  approx.incremental = true;
  approx.warm_start = true;
  const auto full_build =
      [&]() -> Result<std::unique_ptr<CommuteTimeOracle>> {
    if (use_exact) return BuildOracle(snapshot, cache);
    return Boxed(ApproxCommuteEmbedding::Build(snapshot, approx, cache));
  };
  if (previous_oracle == nullptr ||
      snapshot.num_nodes() != previous_snapshot.num_nodes()) {
    // First window of a stream, or node-set growth: nothing valid to update.
    CAD_METRIC_INC("commute.incremental_rebuild_structure");
    return full_build();
  }
  const EdgeDelta delta = DiffSnapshots(previous_snapshot, snapshot);
  const bool admitted =
      cache != nullptr
          ? cache->AdmitChurn(delta.ChurnRatio(), options_.churn_threshold)
          : delta.ChurnRatio() <= options_.churn_threshold;
  if (!admitted) {
    CAD_METRIC_INC("commute.incremental_rebuild_churn");
    return full_build();
  }
  if (use_exact) {
    const auto* previous =
        dynamic_cast<const ExactCommuteTime*>(previous_oracle);
    if (previous == nullptr) {
      // Engine switched (auto crossover) since the previous window.
      CAD_METRIC_INC("commute.incremental_rebuild_structure");
      return full_build();
    }
    // The Woodbury update also has to beat the O(n^3) rebuild on cost: its
    // O(n^2 k) only wins while k is a fraction of n.
    if (4 * delta.rank() > snapshot.num_nodes()) {
      CAD_METRIC_INC("commute.incremental_rebuild_churn");
      return full_build();
    }
    Result<ExactCommuteTime> oracle = ExactCommuteTime::BuildIncremental(
        snapshot, *previous, delta, options_.exact);
    if (!oracle.ok()) {
      if (oracle.status().code() == StatusCode::kNumericalError) {
        CAD_METRIC_INC("commute.incremental_rebuild_breakdown");
      } else {
        CAD_METRIC_INC("commute.incremental_rebuild_structure");
      }
      return full_build();
    }
    if (cache != nullptr) {
      cache->RecordIncrementalBuild(0, 0);
    }
    return Boxed(std::move(oracle));
  }
  Result<ApproxCommuteEmbedding> oracle =
      ApproxCommuteEmbedding::BuildIncremental(snapshot, delta, approx, cache);
  if (!oracle.ok()) {
    if (oracle.status().code() == StatusCode::kInvalidArgument) {
      // A genuinely unusable configuration (k == 0), not a missing cache:
      // surface it instead of silently rebuilding every window.
      return oracle.status();
    }
    if (oracle.status().code() == StatusCode::kNumericalError) {
      CAD_METRIC_INC("commute.incremental_rebuild_breakdown");
    } else {
      CAD_METRIC_INC("commute.incremental_rebuild_structure");
    }
    return full_build();
  }
  return Boxed(std::move(oracle));
}

Result<std::vector<TransitionScores>> CadDetector::Analyze(
    const TemporalGraphSequence& sequence) const {
  if (sequence.num_snapshots() < 2) {
    return Status::InvalidArgument(
        "CadDetector::Analyze needs at least two snapshots, got " +
        std::to_string(sequence.num_snapshots()));
  }
  CAD_DCHECK_OK(sequence.CheckConsistent());
  CAD_TRACE_SPAN("cad_analyze");
  CAD_METRIC_INC("cad.analyses");
  CAD_METRIC_ADD("cad.transitions_scored", sequence.num_transitions());
  std::vector<const WeightedGraph*> snapshots;
  snapshots.reserve(sequence.num_snapshots());
  for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
    snapshots.push_back(&sequence.Snapshot(t));
  }
  return ScoreTimeline(*this, snapshots);
}

Result<TransitionScores> CadDetector::AnalyzeTransition(
    const WeightedGraph& before, const WeightedGraph& after) const {
  if (before.num_nodes() != after.num_nodes()) {
    return Status::InvalidArgument("snapshot node counts differ");
  }
  // A two-snapshot timeline still benefits from warm-starting `after` with
  // `before`'s embedding and factorization.
  std::vector<TransitionScores> scores;
  CAD_ASSIGN_OR_RETURN(scores, ScoreTimeline(*this, {&before, &after}));
  return std::move(scores.front());
}

Result<TransitionNodeScores> CadDetector::ScoreTransitions(
    const TemporalGraphSequence& sequence) const {
  std::vector<TransitionScores> analyses;
  CAD_ASSIGN_OR_RETURN(analyses, Analyze(sequence));
  TransitionNodeScores node_scores;
  node_scores.reserve(analyses.size());
  for (TransitionScores& analysis : analyses) {
    node_scores.push_back(std::move(analysis.node_scores));
  }
  return node_scores;
}

}  // namespace cad
