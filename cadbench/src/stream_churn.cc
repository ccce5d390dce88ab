// stream_churn: the cad_stream binary replaying a generated event file with
// --incremental. Windows differ by 0.1% edge churn, so after window 0 few
// embedding columns are re-solved, except in one burst window mid-stream;
// the time goes to parsing, window aggregation, edge diffs, the residual
// gate, scoring, calibration, and periodic checkpoints.

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "common/strings.h"
#include "commute/solver_cache.h"
#include "core/online_monitor.h"
#include "graph/edge_delta.h"
#include "io/event_stream.h"
#include "obs/metrics.h"
#include "inputs.h"
#include "layers.h"
#include "process.h"
#include "spans.h"
#include "workloads.h"

namespace cadbench {
namespace {

constexpr StreamShape kShape{
    .num_nodes = 6000, .num_edges = 48000, .windows = 20, .churn = 0.001,
    .burst = 0.02};
constexpr size_t kEmbeddingDim = 50;
// Divides the window count, so the final window is checkpointed too.
constexpr size_t kCheckpointEvery = 5;
// A bounded calibration window, as a long-running stream would use.
constexpr size_t kMaxHistory = 4;
constexpr int kSetupRepeats = 3;

constexpr char kEvents[] = "events.txt";
constexpr char kReportHeader[] =
    "transition,u,v,score,weight_delta,commute_delta\n";

std::vector<std::string> StreamCommand(const Context& context) {
  return {context.bin_dir + "/cad_stream",
          "--events", kEvents,
          "--window", "1",
          "--num_nodes", std::to_string(kShape.num_nodes),
          "--engine", "approx",
          "--k", std::to_string(kEmbeddingDim),
          "--incremental",
          "--max_history", std::to_string(kMaxHistory),
          "--checkpoint", "stream.ckpt",
          "--checkpoint_every", std::to_string(kCheckpointEvery),
          "--output", "stream.csv"};
}

// The options cad_stream builds from StreamCommand's flags.
cad::OnlineMonitorOptions MonitorOptions() {
  cad::OnlineMonitorOptions options;
  options.detector.engine = cad::CommuteEngine::kApprox;
  options.detector.approx.embedding_dim = kEmbeddingDim;
  options.max_history = kMaxHistory;
  options.incremental = true;
  return options;
}

struct StreamReplay {
  std::string csv;
  SpanLog log;
  double total_ns = 0.0;
  std::vector<double> observe_ms;
  std::vector<double> checkpoint_ms;
  double spmv_bytes = 0.0;
  uint64_t incremental_ns = 0;
  uint64_t events = 0;
  uint64_t changed_edges = 0;
  Counters counters;
};

// \brief cad_stream's loop, in process, through the same public calls:
// EventStreamReader::Next, EventWindowAggregator::Add/Flush,
// OnlineCadMonitor::Observe, the report rows, SaveCheckpointFile.
//
// Time inside Observe comes from the library's span timers (commute builds,
// PCG). With `beside`, the layers Observe reaches only internally are timed
// by calling the same public functions on the same inputs next to it —
// DiffSnapshots, the oracle build chain, ComputeTransitionScores and
// CalibrateDelta — and recorded as children of that Observe. Beside time is
// excluded from the traced total.
cad::Result<StreamReplay> ReplayStream(bool beside) {
  EnableLibraryMetrics(true);
  StreamReplay replay;
  SpanLog& log = replay.log;
  const cad::OnlineMonitorOptions options = MonitorOptions();
  cad::OnlineCadMonitor monitor(options);
  std::ostringstream out;
  out << kReportHeader;

  // The beside replica of Observe's oracle chain (what NormalizeOptions
  // makes of `options` for an incremental monitor).
  cad::CadOptions detector_options = options.detector;
  detector_options.approx.warm_start = true;
  detector_options.approx.incremental = true;
  const cad::CadDetector detector(detector_options);
  cad::CommuteSolverCache cache(options.detector.approx.refactor_threshold);
  std::optional<cad::WeightedGraph> previous;
  std::unique_ptr<cad::CommuteTimeOracle> previous_oracle;
  uint64_t beside_ns = 0;
  uint64_t scored_edges = 0;
  uint64_t report_rows = 0;
  uint64_t checkpoint_bytes = 0;

  const uint64_t start = NowNs();
  std::ifstream events(kEvents);
  if (!events.is_open()) return cad::Status::IoError("cannot open events");
  cad::NodeVocabulary vocabulary;
  cad::EventStreamReader reader(&events, cad::EventErrorPolicy::kStrict,
                                &vocabulary);
  cad::EventWindowOptions window_options;
  window_options.window_length = 1.0;
  window_options.num_nodes = kShape.num_nodes;
  cad::Result<cad::EventWindowAggregator> created =
      cad::EventWindowAggregator::Create(window_options);
  if (!created.ok()) return created.status();
  cad::EventWindowAggregator& aggregator = *created;

  uint64_t parse_ns = 0;
  uint64_t aggregate_ns = 0;
  const auto flush_io_spans = [&] {
    log.Add(-1, "io.parse", parse_ns);
    log.Add(-1, "io.aggregate", aggregate_ns);
    parse_ns = 0;
    aggregate_ns = 0;
  };

  const auto observe = [&](const cad::WeightedGraph& snapshot) -> cad::Status {
    const LibraryTotals before = ReadLibraryTotals();
    const size_t transitions = monitor.num_transitions();
    const int span = log.Open("core.observe", /*layer=*/false);
    cad::Result<std::optional<cad::AnomalyReport>> report =
        monitor.Observe(snapshot);
    log.Close(span);
    if (!report.ok()) return report.status();
    replay.observe_ms.push_back(
        static_cast<double>(log.spans()[span].duration_ns) / 1e6);
    const LibraryTotals used = ReadLibraryTotals() - before;
    const int build = log.Add(span, "commute.build", used.build_ns());
    log.Add(build, "linalg.pcg", used.pcg_ns);
    log.Add(build, "linalg.cholesky", used.cholesky_ns);
    replay.incremental_ns += used.incremental_build_ns;
    replay.spmv_bytes +=
        static_cast<double>(used.pcg_iterations) * SpmvBytes(snapshot);
    const bool scored = monitor.num_transitions() > transitions;
    if (scored) scored_edges += monitor.history().back().edges.size();

    if (beside) {
      const uint64_t beside_start = NowNs();
      cad::obs::SetMetricsEnabled(false);
      std::unique_ptr<cad::CommuteTimeOracle> oracle;
      if (previous.has_value()) {
        uint64_t t0 = NowNs();
        const cad::EdgeDelta delta = cad::DiffSnapshots(*previous, snapshot);
        log.Add(span, "graph.diff", NowNs() - t0);
        replay.changed_edges += delta.rank();
        CAD_ASSIGN_OR_RETURN(
            oracle, detector.BuildOracleIncremental(
                        snapshot, *previous, previous_oracle.get(), &cache));
        t0 = NowNs();
        const cad::TransitionScores scores = cad::ComputeTransitionScores(
            *previous, snapshot, *previous_oracle, *oracle,
            options.detector.score_kind);
        log.Add(span, "core.score", NowNs() - t0);
        if (!scored || !(scores.edges.size() ==
                             monitor.history().back().edges.size() &&
                         scores.total_score ==
                             monitor.history().back().total_score)) {
          return cad::Status::Internal(
              "the beside scoring replica diverged from Observe");
        }
        t0 = NowNs();
        const double delta_now = cad::CalibrateDelta(
            monitor.history(), options.nodes_per_transition);
        if (report->has_value()) {
          (void)cad::SelectAnomalousEdges(monitor.history().back(), delta_now);
        }
        log.Add(span, "core.calibrate", NowNs() - t0);
      } else {
        CAD_ASSIGN_OR_RETURN(oracle, detector.BuildOracle(snapshot, &cache));
      }
      previous = snapshot;
      previous_oracle = std::move(oracle);
      cad::obs::SetMetricsEnabled(true);
      beside_ns += NowNs() - beside_start;
    }

    if (report->has_value()) {
      ScopedSpan rows(&log, "app.report");
      for (const cad::ScoredEdge& edge : (*report)->edges) {
        out << (*report)->transition << "," << edge.pair.u << ","
            << edge.pair.v << "," << cad::FormatDouble(edge.score, 9) << ","
            << cad::FormatDouble(edge.weight_delta, 9) << ","
            << cad::FormatDouble(edge.commute_delta, 9) << "\n";
        ++report_rows;
      }
    }
    if (monitor.num_snapshots() % kCheckpointEvery == 0) {
      const int saved = log.Open("core.checkpoint");
      const cad::Status written = monitor.SaveCheckpointFile("replay.ckpt");
      log.Close(saved);
      CAD_RETURN_NOT_OK(written);
      replay.checkpoint_ms.push_back(
          static_cast<double>(log.spans()[saved].duration_ns) / 1e6);
      checkpoint_bytes = FileSize("replay.ckpt");
    }
    return cad::Status::OK();
  };

  std::vector<cad::WeightedGraph> completed;
  while (true) {
    uint64_t t0 = NowNs();
    cad::Result<std::optional<cad::TimestampedEvent>> next = reader.Next();
    parse_ns += NowNs() - t0;
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    ++replay.events;
    t0 = NowNs();
    completed.clear();
    cad::Result<size_t> window = aggregator.WindowIndex((*next)->timestamp);
    if (!window.ok()) return window.status();
    CAD_RETURN_NOT_OK(aggregator.Add(**next, &completed));
    aggregate_ns += NowNs() - t0;
    for (const cad::WeightedGraph& snapshot : completed) {
      flush_io_spans();
      CAD_RETURN_NOT_OK(observe(snapshot));
    }
  }
  uint64_t t0 = NowNs();
  const cad::WeightedGraph last = aggregator.Flush();
  aggregate_ns += NowNs() - t0;
  flush_io_spans();
  CAD_RETURN_NOT_OK(observe(last));
  {
    ScopedSpan rows(&log, "app.report");
    replay.csv = out.str();
  }
  replay.total_ns = static_cast<double>(NowNs() - start - beside_ns);

  const LibraryTotals totals = ReadLibraryTotals();
  replay.counters = Counters{
      {"events_fed", replay.events},
      {"pcg_iterations", totals.pcg_iterations},
      {"pcg_nonconverged", totals.pcg_nonconverged},
      {"rhs_resolved", totals.rhs_resolved},
      {"rhs_reused", totals.rhs_reused},
      {"rebuilds", totals.rebuilds},
      {"calibration_iterations", totals.calibration_iterations},
      {"scored_edges", scored_edges},
      {"report_rows", report_rows},
      {"checkpoint_bytes", checkpoint_bytes},
  };
  EnableLibraryMetrics(false);
  return replay;
}

}  // namespace

cad::Status RunStreamChurn(const Context& context, Outcome* outcome) {
  std::vector<double> setup_s;
  StreamInput input;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const uint64_t start = NowNs();
    CAD_ASSIGN_OR_RETURN(input,
                         WriteStreamEvents(context.seed, kShape, kEvents));
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  Log(std::to_string(input.events) + " events in " +
      std::to_string(kShape.windows) + " windows, burst in window " +
      std::to_string(input.burst_window));

  // Measured interval: cad_stream runs (alternating with traced replays
  // when tracing), each started only while expected to fit.
  std::vector<double> stream_s;
  std::vector<double> rss_mb;
  std::vector<StreamReplay> replays;
  std::string expected_csv;
  const uint64_t start = NowNs();
  const auto elapsed_s = [&] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  while (stream_s.empty() ||
         elapsed_s() + Median(stream_s) * (context.trace ? 3.0 : 1.0) <=
             context.seconds) {
    outcome->Attempt();
    ExitInfo exit;
    CAD_ASSIGN_OR_RETURN(exit, RunChild(StreamCommand(context), "stream.out",
                                        "stream.err"));
    if (exit.code != 0) {
      outcome->Fail("cad_stream exited with " + std::to_string(exit.code) +
                    " (see stream.err)");
      break;
    }
    stream_s.push_back(exit.wall_s);
    rss_mb.push_back(exit.peak_rss_mb);
    cad::Result<std::string> csv = ReadFile("stream.csv");
    if (!csv.ok()) return csv.status();
    if (expected_csv.empty()) expected_csv = *csv;
    outcome->Check(*csv == expected_csv,
                   "a cad_stream run reported different edges");
    if (context.trace) {
      StreamReplay replay;
      CAD_ASSIGN_OR_RETURN(replay, ReplayStream(/*beside=*/true));
      replays.push_back(std::move(replay));
    }
  }
  if (replays.empty()) {
    StreamReplay replay;
    CAD_ASSIGN_OR_RETURN(replay, ReplayStream(/*beside=*/false));
    replays.push_back(std::move(replay));
  }

  // Correctness: the replay's report equals cad_stream's byte for byte, so
  // do the final checkpoints, and the burst window is flagged.
  outcome->Attempt();
  const StreamReplay& first = replays.front();
  outcome->Check(first.csv == expected_csv,
                 "cad_stream's report differs from the in-process replay's");
  cad::Result<std::string> stream_checkpoint = ReadFile("stream.ckpt");
  cad::Result<std::string> replay_checkpoint = ReadFile("replay.ckpt");
  outcome->Check(stream_checkpoint.ok() && replay_checkpoint.ok() &&
                     *stream_checkpoint == *replay_checkpoint,
                 "cad_stream's final checkpoint differs from the replay's");
  const std::string burst_prefix =
      "\n" + std::to_string(input.burst_window - 1) + ",";
  outcome->Check(expected_csv.find(burst_prefix) != std::string::npos,
                 "the burst window (transition " +
                     std::to_string(input.burst_window - 1) +
                     ") was not flagged");
  outcome->Check(first.counters.at("events_fed") == input.events,
                 "the replay fed " +
                     std::to_string(first.counters.at("events_fed")) +
                     " events, the file holds " + std::to_string(input.events));
  for (const StreamReplay& replay : replays) {
    outcome->Check(replay.counters == first.counters,
                   "work counters differ between replays of one input");
  }
  std::string difference;
  const bool counters_match =
      CountersMatchEarlierRuns("seed" + std::to_string(context.seed),
                                          first.counters, &difference);
  outcome->Check(counters_match,
                 "work counters differ from an earlier run of this seed: " +
                     difference);
  Log(std::to_string(stream_s.size()) + " cad_stream runs, median " +
      std::to_string(Median(stream_s)) + " s");

  if (!context.trace) {
    AddEndToEndMetrics(Median(setup_s), Median(rss_mb), Median(stream_s) * 1e3,
                       Quantile(stream_s, TailLevel(stream_s.size())) * 1e3,
                       outcome);
    return cad::Status::OK();
  }

  std::map<std::string, std::vector<double>> samples;
  for (const StreamReplay& replay : replays) {
    const std::map<std::string, double> total = replay.log.TotalNs();
    const auto ms = [&](const std::string& name) {
      const auto found = total.find(name);
      return found == total.end() ? 0.0 : found->second / 1e6;
    };
    samples["io.parse_ms"].push_back(ms("io.parse"));
    samples["io.aggregate_ms"].push_back(ms("io.aggregate"));
    samples["graph.diff_ms"].push_back(ms("graph.diff"));
    samples["linalg.pcg_ms"].push_back(ms("linalg.pcg"));
    samples["linalg.cholesky_ms"].push_back(ms("linalg.cholesky"));
    samples["commute.build_ms"].push_back(ms("commute.build"));
    samples["commute.build_other_ms"].push_back(
        ms("commute.build") - ms("linalg.pcg") - ms("linalg.cholesky"));
    samples["commute.incremental_ms"].push_back(
        static_cast<double>(replay.incremental_ns) / 1e6);
    samples["core.score_ms"].push_back(ms("core.score"));
    samples["core.calibrate_ms"].push_back(ms("core.calibrate"));
    samples["core.observe_p50_ms"].push_back(Median(replay.observe_ms));
    samples["core.observe_p99_ms"].push_back(
        Quantile(replay.observe_ms, 0.99));
    samples["core.checkpoint_p50_ms"].push_back(Median(replay.checkpoint_ms));
    samples["core.checkpoint_p99_ms"].push_back(
        Quantile(replay.checkpoint_ms, 0.99));
    samples["app.report_ms"].push_back(ms("app.report"));
    samples["linalg.spmm_gb_computed"].push_back(replay.spmv_bytes / 1e9);
    samples["bench.traced_total_ms"].push_back(replay.total_ns / 1e6);
    samples["bench.unattributed_frac"].push_back(
        replay.log.UnattributedNs(replay.total_ns) / replay.total_ns);
  }
  LayerValues values;
  for (const auto& [name, series] : samples) values[name] = Median(series);
  const Counters& counters = first.counters;
  const auto count = [&](const char* name) {
    return static_cast<double>(counters.at(name));
  };
  values["io.events"] = count("events_fed");
  values["graph.changed_edges"] = static_cast<double>(first.changed_edges);
  values["linalg.pcg_iterations"] = count("pcg_iterations");
  values["linalg.pcg_nonconverged"] = count("pcg_nonconverged");
  values["commute.rhs_resolved_frac"] =
      count("rhs_resolved") /
      std::max(1.0, count("rhs_resolved") + count("rhs_reused"));
  values["commute.rebuilds"] = count("rebuilds");
  values["core.scored_edges"] = count("scored_edges");
  values["core.calibration_iterations"] = count("calibration_iterations");
  values["core.checkpoint_mb"] = count("checkpoint_bytes") / 1e6;
  values["bench.trace_overhead_frac"] =
      (values["bench.traced_total_ms"] - Median(stream_s) * 1e3) /
      (Median(stream_s) * 1e3);
  if (values["bench.unattributed_frac"] > 0.05) {
    Log("flag: unattributed remainder above 5%");
  }
  AddLayerMetrics(values, outcome);
  return cad::Status::OK();
}

}  // namespace cadbench
