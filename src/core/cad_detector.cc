#include "core/cad_detector.h"

#include "common/parallel.h"
#include "commute/solver_cache.h"
#include "obs/obs.h"

namespace cad {

Result<std::unique_ptr<CommuteTimeOracle>> CadDetector::BuildOracle(
    const WeightedGraph& graph) const {
  return BuildOracle(graph, nullptr);
}

Result<std::unique_ptr<CommuteTimeOracle>> CadDetector::BuildOracle(
    const WeightedGraph& graph, CommuteSolverCache* cache) const {
  const bool use_exact =
      options_.engine == CommuteEngine::kExact ||
      (options_.engine == CommuteEngine::kAuto &&
       graph.num_nodes() <= options_.exact_node_limit);
  if (use_exact) {
    Result<ExactCommuteTime> oracle =
        ExactCommuteTime::Build(graph, options_.exact);
    if (!oracle.ok()) return oracle.status();
    return std::unique_ptr<CommuteTimeOracle>(
        new ExactCommuteTime(std::move(oracle).ValueOrDie()));
  }
  Result<ApproxCommuteEmbedding> oracle =
      ApproxCommuteEmbedding::Build(graph, options_.approx, cache);
  if (!oracle.ok()) return oracle.status();
  return std::unique_ptr<CommuteTimeOracle>(
      new ApproxCommuteEmbedding(std::move(oracle).ValueOrDie()));
}

Result<std::unique_ptr<CommuteTimeOracle>> CadDetector::BuildOracleIncremental(
    const WeightedGraph& graph, const WeightedGraph& previous_graph,
    const CommuteTimeOracle* previous_oracle,
    CommuteSolverCache* cache) const {
  const bool use_exact =
      options_.engine == CommuteEngine::kExact ||
      (options_.engine == CommuteEngine::kAuto &&
       graph.num_nodes() <= options_.exact_node_limit);
  // The approximate paths (incremental and its full-rebuild fallbacks) run
  // with incremental mode forced on, so every full build re-seeds the
  // cache's RHS block and the next window can try the update again.
  ApproxCommuteOptions approx = options_.approx;
  approx.incremental = true;
  approx.warm_start = true;
  const auto full_build =
      [&]() -> Result<std::unique_ptr<CommuteTimeOracle>> {
    if (use_exact) return BuildOracle(graph, cache);
    Result<ApproxCommuteEmbedding> oracle =
        ApproxCommuteEmbedding::Build(graph, approx, cache);
    if (!oracle.ok()) return oracle.status();
    return std::unique_ptr<CommuteTimeOracle>(
        new ApproxCommuteEmbedding(std::move(oracle).ValueOrDie()));
  };
  if (previous_oracle == nullptr ||
      graph.num_nodes() != previous_graph.num_nodes()) {
    // First window of a stream, or node-set growth: nothing valid to update.
    CAD_METRIC_INC("commute.incremental_rebuild_structure");
    return full_build();
  }
  const EdgeDelta delta = DiffSnapshots(previous_graph, graph);
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
    if (4 * delta.rank() > graph.num_nodes()) {
      CAD_METRIC_INC("commute.incremental_rebuild_churn");
      return full_build();
    }
    Result<ExactCommuteTime> oracle = ExactCommuteTime::BuildIncremental(
        graph, *previous, delta, options_.exact);
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
    return std::unique_ptr<CommuteTimeOracle>(
        new ExactCommuteTime(std::move(oracle).ValueOrDie()));
  }
  Result<ApproxCommuteEmbedding> oracle =
      ApproxCommuteEmbedding::BuildIncremental(graph, delta, approx, cache);
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
  return std::unique_ptr<CommuteTimeOracle>(
      new ApproxCommuteEmbedding(std::move(oracle).ValueOrDie()));
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
  // Build each snapshot's oracle once; transition t uses oracles t and t+1.
  // Warm-started timelines must visit snapshots in order (each build feeds
  // the next one's initial guesses), so they always take the serial loop.
  if (options_.analysis_threads > 1 && !options_.approx.warm_start) {
    // Parallel path: materialize all oracles, then score all transitions.
    // Costs O(T) oracles of memory instead of 2 but parallelizes both the
    // dominant build stage and the scoring stage.
    const size_t num_snapshots = sequence.num_snapshots();
    std::vector<std::unique_ptr<CommuteTimeOracle>> oracles(num_snapshots);
    std::vector<Status> statuses(num_snapshots);
    ParallelFor(num_snapshots, options_.analysis_threads, [&](size_t t) {
      Result<std::unique_ptr<CommuteTimeOracle>> oracle =
          BuildOracle(sequence.Snapshot(t));
      if (oracle.ok()) {
        oracles[t] = std::move(oracle).ValueOrDie();
      } else {
        statuses[t] = oracle.status();
      }
    });
    for (const Status& status : statuses) {
      if (!status.ok()) return status;
    }
    std::vector<TransitionScores> all_scores(sequence.num_transitions());
    ParallelFor(all_scores.size(), options_.analysis_threads, [&](size_t t) {
      all_scores[t] = ComputeTransitionScores(
          sequence.Snapshot(t), sequence.Snapshot(t + 1), *oracles[t],
          *oracles[t + 1], options_.score_kind);
    });
    return all_scores;
  }

  std::vector<TransitionScores> all_scores;
  all_scores.reserve(sequence.num_transitions());
  // One cache per timeline: snapshot t's embedding and IC(0) factor carry
  // into snapshot t+1's build (no-op unless approx.warm_start is set and
  // the approximate engine is selected).
  CommuteSolverCache cache(options_.approx.refactor_threshold);
  CommuteSolverCache* cache_ptr =
      options_.approx.warm_start ? &cache : nullptr;
  std::unique_ptr<CommuteTimeOracle> previous;
  CAD_ASSIGN_OR_RETURN(previous, BuildOracle(sequence.Snapshot(0), cache_ptr));
  for (size_t t = 0; t + 1 < sequence.num_snapshots(); ++t) {
    std::unique_ptr<CommuteTimeOracle> current;
    CAD_ASSIGN_OR_RETURN(current,
                         BuildOracle(sequence.Snapshot(t + 1), cache_ptr));
    all_scores.push_back(
        ComputeTransitionScores(sequence.Snapshot(t), sequence.Snapshot(t + 1),
                                *previous, *current, options_.score_kind));
    previous = std::move(current);
  }
  return all_scores;
}

Result<TransitionScores> CadDetector::AnalyzeTransition(
    const WeightedGraph& before, const WeightedGraph& after) const {
  if (before.num_nodes() != after.num_nodes()) {
    return Status::InvalidArgument("snapshot node counts differ");
  }
  // A two-snapshot timeline still benefits from warm-starting `after` with
  // `before`'s embedding and factorization.
  CommuteSolverCache cache(options_.approx.refactor_threshold);
  CommuteSolverCache* cache_ptr =
      options_.approx.warm_start ? &cache : nullptr;
  std::unique_ptr<CommuteTimeOracle> oracle_before;
  CAD_ASSIGN_OR_RETURN(oracle_before, BuildOracle(before, cache_ptr));
  std::unique_ptr<CommuteTimeOracle> oracle_after;
  CAD_ASSIGN_OR_RETURN(oracle_after, BuildOracle(after, cache_ptr));
  return ComputeTransitionScores(before, after, *oracle_before, *oracle_after,
                                 options_.score_kind);
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
