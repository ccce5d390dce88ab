// batch_rmat: the cad_cli facade, in process. Each pass runs
// RunAnomalyPipeline (score every transition, calibrate delta, localize,
// classify) over seeded R-MAT sequences with an anomaly burst in the last
// snapshot, and writes each edge report CSV. Cold Laplacian solves dominate.
// A pass covers several sequences, so no one graph sets its cost.

#include <memory>
#include <set>
#include <sstream>

#include "app/pipeline.h"
#include "core/case_classifier.h"
#include "inputs.h"
#include "layers.h"
#include "process.h"
#include "spans.h"
#include "workloads.h"

namespace cadbench {
namespace {

constexpr size_t kNodes = 8000;
constexpr size_t kEdges = 64000;
constexpr size_t kSnapshots = 3;
constexpr size_t kSequencesPerPass = 3;
// The paper's scalability setting (§4.1.3).
constexpr size_t kEmbeddingDim = 10;
constexpr int kSetupRepeats = 3;
// Correctness floor: at least this share of the edges reported at the burst
// transition must be injected burst edges.
constexpr double kBurstPrecisionFloor = 0.5;

// What cad_cli --method CAD --engine approx --k 10 runs: one thread, and
// every perf-only switch (block solver, relabel, arena, tiling) at its
// shipped default.
cad::PipelineOptions MakeOptions() {
  cad::PipelineOptions options;
  options.cad.engine = cad::CommuteEngine::kApprox;
  options.cad.approx.embedding_dim = kEmbeddingDim;
  return options;
}

struct Pass {
  std::string csv;
  double seconds = 0.0;
};

cad::Result<Pass> EndToEndPass(const std::vector<BatchInput>& inputs,
                               const cad::PipelineOptions& options) {
  const uint64_t start = NowNs();
  std::ostringstream csv;
  for (const BatchInput& input : inputs) {
    cad::PipelineResult result;
    CAD_ASSIGN_OR_RETURN(result,
                         cad::RunAnomalyPipeline(input.sequence, options));
    CAD_RETURN_NOT_OK(cad::WriteEdgeReportCsv(result, &csv));
  }
  return Pass{csv.str(), static_cast<double>(NowNs() - start) / 1e9};
}

struct Replay {
  std::vector<cad::PipelineResult> results;
  std::string csv;
  SpanLog log;
  double total_ns = 0.0;
  double spmv_bytes = 0.0;
  uint64_t scored_edges = 0;
  LibraryTotals totals;
};

// RunAnomalyPipeline replayed through the public calls it makes, in the
// same order, with a span around each: BuildOracle per snapshot (PCG time
// from the library's own timers as its child), ComputeTransitionScores,
// CalibrateDelta + ApplyThreshold, classification, and the CSV write.
cad::Status ReplayOne(const BatchInput& input,
                      const cad::PipelineOptions& options, Replay* out) {
  Replay& replay = *out;
  cad::CadOptions cad_options = options.cad;
  cad_options.score_kind = cad::EdgeScoreKind::kCad;
  cad_options.approx.warm_start = options.warm_start;
  cad_options.approx.refactor_threshold = options.refactor_threshold;
  cad_options.approx.cg.use_block_solver = options.block_solver;
  const cad::CadDetector detector(cad_options);
  const cad::TemporalGraphSequence& sequence = input.sequence;

  const auto build = [&](const cad::WeightedGraph& graph)
      -> cad::Result<std::unique_ptr<cad::CommuteTimeOracle>> {
    const LibraryTotals before = ReadLibraryTotals();
    const int span = replay.log.Open("commute.build");
    cad::Result<std::unique_ptr<cad::CommuteTimeOracle>> oracle =
        detector.BuildOracle(graph);
    replay.log.Close(span);
    const LibraryTotals used = ReadLibraryTotals() - before;
    replay.log.Add(span, "linalg.pcg", used.pcg_ns);
    replay.spmv_bytes +=
        static_cast<double>(used.pcg_iterations) * SpmvBytes(graph);
    return oracle;
  };

  std::vector<cad::TransitionScores> analyses;
  std::unique_ptr<cad::CommuteTimeOracle> previous;
  CAD_ASSIGN_OR_RETURN(previous, build(sequence.Snapshot(0)));
  for (size_t t = 0; t + 1 < sequence.num_snapshots(); ++t) {
    std::unique_ptr<cad::CommuteTimeOracle> current;
    CAD_ASSIGN_OR_RETURN(current, build(sequence.Snapshot(t + 1)));
    ScopedSpan span(&replay.log, "core.score");
    analyses.push_back(cad::ComputeTransitionScores(
        sequence.Snapshot(t), sequence.Snapshot(t + 1), *previous, *current,
        cad_options.score_kind));
    replay.scored_edges += analyses.back().edges.size();
    previous = std::move(current);
  }

  replay.results.emplace_back();
  cad::PipelineResult& result = replay.results.back();
  result.method = options.method;
  {
    ScopedSpan span(&replay.log, "core.calibrate");
    result.delta = cad::CalibrateDelta(analyses, options.nodes_per_transition);
    result.reports = cad::ApplyThreshold(analyses, result.delta);
  }
  {
    ScopedSpan span(&replay.log, "app.classify");
    for (const cad::AnomalyReport& report : result.reports) {
      if (report.edges.empty()) continue;
      std::unique_ptr<cad::CommuteTimeOracle> oracle;
      CAD_ASSIGN_OR_RETURN(oracle, build(sequence.Snapshot(report.transition)));
      for (const cad::ScoredEdge& edge : report.edges) {
        cad::ReportedEdge reported;
        reported.transition = report.transition;
        reported.edge = edge;
        reported.anomaly_case = cad::ClassifyAnomalousEdge(
            edge, oracle->CommuteTime(edge.pair.u, edge.pair.v),
            sequence.Snapshot(report.transition),
            sequence.Snapshot(report.transition + 1));
        result.edges.push_back(reported);
      }
    }
  }
  {
    ScopedSpan span(&replay.log, "app.report");
    std::ostringstream csv;
    CAD_RETURN_NOT_OK(cad::WriteEdgeReportCsv(result, &csv));
    replay.csv += csv.str();
  }
  return cad::Status::OK();
}

cad::Result<Replay> TracedReplay(const std::vector<BatchInput>& inputs,
                                 const cad::PipelineOptions& options) {
  EnableLibraryMetrics(true);
  Replay replay;
  const uint64_t start = NowNs();
  for (const BatchInput& input : inputs) {
    CAD_RETURN_NOT_OK(ReplayOne(input, options, &replay));
  }
  replay.total_ns = static_cast<double>(NowNs() - start);
  replay.totals = ReadLibraryTotals();
  EnableLibraryMetrics(false);
  return replay;
}

// Every transition has a report, and the burst transition's report is
// mostly injected burst edges.
void CheckReplay(const BatchInput& input, const cad::PipelineResult& result,
                 Outcome* outcome) {
  outcome->Check(result.reports.size() == kSnapshots - 1,
                 "expected a report for each of the " +
                     std::to_string(kSnapshots - 1) + " transitions, got " +
                     std::to_string(result.reports.size()));
  if (result.reports.size() <= input.burst_transition) return;
  std::set<uint64_t> injected;
  for (const cad::Edge& edge : input.injected) {
    injected.insert(cad::NodePair::Make(edge.u, edge.v).Key());
  }
  const cad::AnomalyReport& burst = result.reports[input.burst_transition];
  size_t hits = 0;
  for (const cad::ScoredEdge& edge : burst.edges) {
    hits += injected.count(edge.pair.Key());
  }
  const double precision =
      burst.edges.empty() ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(burst.edges.size());
  Log("burst transition: " + std::to_string(hits) + " of " +
      std::to_string(burst.edges.size()) + " reported edges are injected");
  outcome->Check(hits > 0 && precision >= kBurstPrecisionFloor,
                 "burst edges recalled below the floor: " +
                     std::to_string(hits) + " of " +
                     std::to_string(burst.edges.size()));
}

Counters ReplayCounters(const Replay& replay) {
  return Counters{
      {"pcg_iterations", replay.totals.pcg_iterations},
      {"pcg_nonconverged", replay.totals.pcg_nonconverged},
      {"calibration_iterations", replay.totals.calibration_iterations},
      {"scored_edges", replay.scored_edges},
      {"report_bytes", replay.csv.size()},
  };
}

}  // namespace

cad::Status RunBatchRmat(const Context& context, Outcome* outcome) {
  const cad::PipelineOptions options = MakeOptions();

  std::vector<double> setup_s;
  std::vector<BatchInput> inputs(kSequencesPerPass);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const uint64_t start = NowNs();
    for (size_t i = 0; i < kSequencesPerPass; ++i) {
      CAD_ASSIGN_OR_RETURN(
          inputs[i],
          MakeBatchInput(context.seed, i, kNodes, kEdges, kSnapshots));
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  // Measured interval: end-to-end passes, alternating with traced replays
  // when tracing. A pass is started only while it is expected to finish
  // inside the interval.
  std::vector<double> pass_s;
  std::vector<Replay> replays;
  std::string expected_csv;
  const uint64_t start = NowNs();
  const auto elapsed_s = [&] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  while (pass_s.size() < 2 ||
         (elapsed_s() + Median(pass_s) * (context.trace ? 2.0 : 1.0) <=
          context.seconds)) {
    outcome->Attempt();
    cad::Result<Pass> pass = EndToEndPass(inputs, options);
    if (!pass.ok()) {
      outcome->Fail("pipeline pass failed: " + pass.status().ToString());
      break;
    }
    pass_s.push_back(pass->seconds);
    if (expected_csv.empty()) expected_csv = pass->csv;
    outcome->Check(pass->csv == expected_csv,
                   "a pipeline pass reported different edges");
    if (context.trace) {
      Replay replay;
      CAD_ASSIGN_OR_RETURN(replay, TracedReplay(inputs, options));
      replays.push_back(std::move(replay));
    }
  }
  // The end-to-end run replays once after the interval: its output must
  // equal the passes', and it yields the work counters.
  if (replays.empty()) {
    Replay replay;
    CAD_ASSIGN_OR_RETURN(replay, TracedReplay(inputs, options));
    replays.push_back(std::move(replay));
  }
  outcome->Attempt();
  outcome->Check(replays.front().csv == expected_csv,
                 "the traced replay's report differs from the pipeline's");
  for (size_t i = 0; i < inputs.size(); ++i) {
    CheckReplay(inputs[i], replays.front().results[i], outcome);
  }
  std::string difference;
  const Counters counters = ReplayCounters(replays.front());
  for (const Replay& replay : replays) {
    outcome->Check(ReplayCounters(replay) == counters,
                   "work counters differ between replays of one input");
  }
  const bool counters_match = CountersMatchEarlierRuns(
      "seed" + std::to_string(context.seed), counters, &difference);
  outcome->Check(counters_match,
                 "work counters differ from an earlier run of this seed: " +
                     difference);
  Log(std::to_string(pass_s.size()) + " passes, median " +
      std::to_string(Median(pass_s)) +
      " s; too few for a tail percentile, so the tail reported is the " +
      "highest quantile with ten samples beyond it");

  if (!context.trace) {
    AddEndToEndMetrics(Median(setup_s), SelfPeakRssMb(),
                       Median(pass_s) * 1e3,
                       Quantile(pass_s, TailLevel(pass_s.size())) * 1e3,
                       outcome);
    return cad::Status::OK();
  }

  // Per-layer values: medians over the traced replays.
  std::map<std::string, std::vector<double>> samples;
  for (const Replay& replay : replays) {
    const std::map<std::string, double> total = replay.log.TotalNs();
    const auto ms = [&](const std::string& name) {
      const auto found = total.find(name);
      return found == total.end() ? 0.0 : found->second / 1e6;
    };
    const double traced_total_ms = replay.total_ns / 1e6;
    samples["linalg.pcg_ms"].push_back(ms("linalg.pcg"));
    samples["commute.build_ms"].push_back(ms("commute.build"));
    samples["commute.build_other_ms"].push_back(ms("commute.build") -
                                                ms("linalg.pcg"));
    samples["core.score_ms"].push_back(ms("core.score"));
    samples["core.calibrate_ms"].push_back(ms("core.calibrate"));
    samples["app.classify_ms"].push_back(ms("app.classify"));
    samples["app.report_ms"].push_back(ms("app.report"));
    samples["linalg.spmm_gb_computed"].push_back(replay.spmv_bytes / 1e9);
    samples["bench.traced_total_ms"].push_back(traced_total_ms);
    samples["bench.unattributed_frac"].push_back(
        replay.log.UnattributedNs(replay.total_ns) / replay.total_ns);
  }
  LayerValues values;
  for (const auto& [name, series] : samples) values[name] = Median(series);
  values["linalg.pcg_iterations"] =
      static_cast<double>(counters.at("pcg_iterations"));
  values["linalg.pcg_nonconverged"] =
      static_cast<double>(counters.at("pcg_nonconverged"));
  values["core.scored_edges"] =
      static_cast<double>(counters.at("scored_edges"));
  values["core.calibration_iterations"] =
      static_cast<double>(counters.at("calibration_iterations"));
  values["bench.trace_overhead_frac"] =
      (values["bench.traced_total_ms"] - Median(pass_s) * 1e3) /
      (Median(pass_s) * 1e3);
  if (values["bench.unattributed_frac"] > 0.05) {
    Log("flag: unattributed remainder above 5%");
  }
  AddLayerMetrics(values, outcome);
  return cad::Status::OK();
}

}  // namespace cadbench
