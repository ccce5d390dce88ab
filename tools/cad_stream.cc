// cad_stream — fault-tolerant streaming anomaly monitor over an event file.
//
// Reads timestamped events '<u> <v> <t> [w]' in time order, aggregates them
// into fixed-length windows, and feeds each completed window to an
// OnlineCadMonitor, printing one CSV row per reported anomalous edge. Unlike
// cad_cli --events, the file is never materialized as a whole sequence:
// memory stays O(window + max_history).
//
// Endpoints may be string names instead of integer ids ('alice bob 3.5'):
// the id mode is auto-detected from the first data line, names are interned
// in first-appearance order, and report rows render the original names.
// With --num_nodes 0 the node set is discovered rather than declared — it
// grows as unseen endpoints arrive (DESIGN.md §8).
//
// Checkpointing makes the stream restartable:
//
//   cad_stream --events ev.txt --window 1 --num_nodes 64
//              --checkpoint ck.bin --checkpoint_every 10 --output run.csv
//   # ...process dies / is killed...
//   cad_stream --events ev.txt --window 1 --num_nodes 64
//              --resume_from ck.bin --output rest.csv
//
// The resumed run skips already-processed windows and emits exactly the
// reports the uninterrupted run would have produced from that point, with
// no CSV header, so `cat run_killed.csv rest.csv` is byte-identical to the
// uninterrupted run's output (monitor options must match across runs; they
// are not stored in the checkpoint).
//
// SIGINT/SIGTERM request a graceful stop: the monitor loop checks the stop
// flag at window granularity, writes a final checkpoint (if --checkpoint is
// set), dumps the flight recorder (if enabled), and exits with code 3 —
// distinct from 0 (completed), 1 (runtime error), and 2 (usage error) — so
// a supervisor can tell an interrupted run from a failed one.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "core/online_monitor.h"
#include "graph/node_vocabulary.h"
#include "core/checkpoint.h"
#include "io/event_stream.h"
#include "obs/obs.h"
#include "server/signal_util.h"

namespace cad {
namespace {

void WriteReportRows(const AnomalyReport& report,
                     const NodeVocabulary* vocabulary, std::ostream* out) {
  for (const ScoredEdge& edge : report.edges) {
    (*out) << report.transition << "," << NodeLabel(vocabulary, edge.pair.u)
           << "," << NodeLabel(vocabulary, edge.pair.v) << ","
           << FormatDouble(edge.score, 9) << ","
           << FormatDouble(edge.weight_delta, 9) << ","
           << FormatDouble(edge.commute_delta, 9) << "\n";
  }
}

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string events;
  double window = 0.0;
  int64_t num_nodes = 0;
  double start_time = 0.0;
  std::string error_policy = "strict";
  std::string output = "-";
  std::string checkpoint;
  int64_t checkpoint_every = 0;
  std::string resume_from;
  int64_t max_snapshots = 0;
  double l = 5.0;
  int64_t warmup = 2;
  int64_t max_history = 0;
  std::string engine = "auto";
  int64_t k = 50;
  int64_t seed = 1;
  auto threads = static_cast<int64_t>(HardwareThreads());
  bool warm_start = false;
  double refactor_threshold = 0.1;
  bool incremental = false;
  double churn_threshold = 0.25;
  double incremental_tolerance = 0.15;
  std::string stats_json;
  int64_t stats_every = 0;
  std::string metrics_csv;
  std::string trace_json;
  std::string flight_recorder;
  flags.AddString("events", &events,
                  "timestamped event file '<u> <v> <t> [w]', time-ordered");
  flags.AddDouble("window", &window, "window length in timestamp units");
  flags.AddInt64("num_nodes", &num_nodes,
                 "fixed node-set size shared by every window; 0 discovers "
                 "the node set from the events (it grows as unseen "
                 "endpoints arrive)");
  flags.AddDouble("start_time", &start_time, "timestamp of window 0's start");
  flags.AddString("error_policy", &error_policy,
                  "malformed-record handling: strict (fail fast) or skip "
                  "(drop and count)");
  flags.AddString("output", &output,
                  "anomalous-edge CSV destination ('-' for stdout)");
  flags.AddString("checkpoint", &checkpoint,
                  "write monitor checkpoints to this file");
  flags.AddInt64("checkpoint_every", &checkpoint_every,
                 "checkpoint after every N observed windows (requires "
                 "--checkpoint)");
  flags.AddString("resume_from", &resume_from,
                  "restore monitor state from this checkpoint before "
                  "streaming; already-processed windows are skipped");
  flags.AddInt64("max_snapshots", &max_snapshots,
                 "stop after observing this many windows (0 = no limit); "
                 "the in-progress window is not flushed, simulating a kill");
  flags.AddDouble("l", &l, "target anomalous nodes per transition");
  flags.AddInt64("warmup", &warmup,
                 "transitions observed before reports are emitted");
  flags.AddInt64("max_history", &max_history,
                 "calibration window in transitions (0 = unbounded)");
  flags.AddString("engine", &engine,
                  "commute engine: auto, exact, or approx");
  flags.AddInt64("k", &k, "embedding dimension for the approximate engine");
  flags.AddInt64("seed", &seed, "seed for the approximate engine");
  flags.AddBool("warm_start", &warm_start,
                "carry each window's embedding and IC(0) factor into the "
                "next (approximate engine)");
  flags.AddDouble("refactor_threshold", &refactor_threshold,
                  "IC(0) staleness trigger under --warm_start");
  flags.AddBool("incremental", &incremental,
                "maintain each window's commute state incrementally from "
                "the previous window's (implies --warm_start; DESIGN.md "
                "§12)");
  flags.AddDouble("churn_threshold", &churn_threshold,
                  "edge-churn ratio above which --incremental falls back to "
                  "a full rebuild for that window");
  flags.AddDouble("incremental_tolerance", &incremental_tolerance,
                  "relative-residual bound for reusing a cached embedding "
                  "column under --incremental (approximate engine)");
  flags.AddInt64("threads", &threads,
                 "worker threads for the per-window Laplacian solves and "
                 "scoring lookups; outputs do not depend on it (default: "
                 "the CPUs this process may run on)");
  flags.AddString("stats_json", &stats_json,
                  "write one heartbeat JSON line per --stats_every windows "
                  "here ('-' for stdout); see DESIGN.md §10 for the schema");
  flags.AddInt64("stats_every", &stats_every,
                 "emit a heartbeat after every N observed windows "
                 "(0 disables; enables metrics recording)");
  flags.AddString("metrics_csv", &metrics_csv,
                  "record runtime metrics and write them as CSV here at "
                  "exit ('-' for stdout)");
  flags.AddString("trace_json", &trace_json,
                  "record trace spans and write Chrome trace JSON here at "
                  "exit (open in chrome://tracing; '-' for stdout)");
  flags.AddString("flight_recorder", &flight_recorder,
                  "keep a bounded ring of recent spans/events and dump it "
                  "as JSON to this file if the stream fails");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) return 0;
  if (events.empty()) {
    std::cerr << "--events is required\n" << flags.Usage();
    return 2;
  }
  if (window <= 0.0) {
    std::cerr << "--window must be positive\n";
    return 2;
  }
  if (num_nodes < 0) {
    std::cerr << "--num_nodes must be >= 0 (0 = discover the node set)\n";
    return 2;
  }
  const bool grow_mode = num_nodes == 0;
  if (checkpoint_every > 0 && checkpoint.empty()) {
    std::cerr << "--checkpoint_every requires --checkpoint\n";
    return 2;
  }
  EventErrorPolicy policy = EventErrorPolicy::kStrict;
  if (error_policy == "skip") {
    policy = EventErrorPolicy::kSkip;
  } else if (error_policy != "strict") {
    std::cerr << "unknown --error_policy '" << error_policy << "'\n";
    return 2;
  }
  if (threads < 1) {
    std::cerr << "--threads must be >= 1\n";
    return 2;
  }
  if (stats_every < 0) {
    std::cerr << "--stats_every must be >= 0\n";
    return 2;
  }
  if ((stats_every > 0) != !stats_json.empty()) {
    std::cerr << "--stats_every and --stats_json must be used together\n";
    return 2;
  }
  // A bad target would trip CalibrateDelta's CHECK at the first window.
  const Status valid_l = ValidateNodesPerTransition(l);
  if (!valid_l.ok()) {
    std::cerr << valid_l.ToString() << "\n";
    return 1;
  }

  // Turn observability on before the monitor is built so every window is
  // covered. The heartbeat contract (one record per N windows, non-timer
  // fields byte-identical across same-seed runs at any thread count) needs
  // metrics recording on.
  if (!metrics_csv.empty() || stats_every > 0) {
    obs::ResetMetrics();
    obs::SetMetricsEnabled(true);
  }
  if (!trace_json.empty()) {
    obs::ResetTracing();
    obs::SetTracingEnabled(true);
  }
  if (!flight_recorder.empty()) {
    obs::ResetFlightRecorder();
    obs::SetFlightRecorderEnabled(true);
  }
  // On any failure or interrupt path, dump the flight-recorder ring (last
  // spans and events before the error) for the postmortem. `note` labels
  // why; `line` is the input line being processed, or 0 when the dump was
  // not tied to one.
  const auto dump_flight_as = [&](const char* note, double line) {
    if (flight_recorder.empty()) return;
    CAD_FLIGHT_NOTE(note, line);
    std::ofstream ring_out(flight_recorder);
    if (!ring_out.is_open()) {
      std::cerr << "cannot open --flight_recorder " << flight_recorder << "\n";
      return;
    }
    const Status written = obs::WriteFlightRecorderJson(&ring_out);
    if (written.ok()) {
      std::cerr << "flight recorder dumped to " << flight_recorder << "\n";
    } else {
      std::cerr << written.ToString() << "\n";
    }
  };

  // Graceful-stop plumbing: SIGINT/SIGTERM raise a flag the monitor loop
  // checks at window granularity (async-signal-safe; src/server/signal_util).
  const Status signals_installed = server::InstallStopSignalHandlers();
  if (!signals_installed.ok()) {
    std::cerr << signals_installed.ToString() << "\n";
    return 1;
  }

  OnlineMonitorOptions monitor_options;
  monitor_options.nodes_per_transition = l;
  monitor_options.warmup_transitions = static_cast<size_t>(warmup);
  monitor_options.max_history = static_cast<size_t>(max_history);
  monitor_options.detector.approx.embedding_dim = static_cast<size_t>(k);
  monitor_options.detector.approx.seed = static_cast<uint64_t>(seed);
  monitor_options.detector.approx.warm_start = warm_start;
  monitor_options.detector.approx.refactor_threshold = refactor_threshold;
  monitor_options.incremental = incremental;
  monitor_options.detector.churn_threshold = churn_threshold;
  monitor_options.detector.approx.incremental_tolerance =
      incremental_tolerance;
  monitor_options.detector.analysis_threads = static_cast<size_t>(threads);
  monitor_options.detector.approx.cg.num_threads = static_cast<size_t>(threads);
  if (engine == "exact") {
    monitor_options.detector.engine = CommuteEngine::kExact;
  } else if (engine == "approx") {
    monitor_options.detector.engine = CommuteEngine::kApprox;
  } else if (engine != "auto") {
    std::cerr << "unknown --engine '" << engine << "'\n";
    return 2;
  }

  OnlineCadMonitor monitor(monitor_options);

  // Heartbeat sink + reporter must outlive the monitor loop. Constructed
  // before any window is observed, so the first record's deltas cover the
  // stream from its very first event.
  std::ofstream stats_file;
  std::unique_ptr<obs::StatsReporter> stats;
  if (stats_every > 0) {
    std::ostream* stats_out = &std::cout;
    if (stats_json != "-") {
      stats_file.open(stats_json);
      if (!stats_file.is_open()) {
        std::cerr << "cannot open --stats_json file " << stats_json << "\n";
        return 1;
      }
      stats_out = &stats_file;
    }
    stats = std::make_unique<obs::StatsReporter>(
        stats_out, static_cast<uint64_t>(stats_every));
    monitor.SetStatsReporter(stats.get());
  }

  const bool resumed = !resume_from.empty();
  if (resumed) {
    const Status loaded = monitor.LoadCheckpointFile(resume_from);
    if (!loaded.ok()) {
      std::cerr << "resume failed: " << loaded.ToString() << "\n";
      dump_flight_as("stream.failure", 0.0);
      return 1;
    }
    std::cerr << "resumed at window " << monitor.num_snapshots() << " ("
              << monitor.num_transitions() << " transitions, delta="
              << FormatDouble(monitor.current_delta(), 9) << ")\n";
  }
  // Windows before this index were fully observed before the checkpoint was
  // taken; their events are skipped below using the same bucketing
  // arithmetic, so resumption never re-feeds or splits a window.
  const size_t first_window = monitor.num_snapshots();

  // Working vocabulary: the reader interns string endpoints here in
  // first-appearance order. On resume it is seeded from the checkpoint, so
  // replaying the stream prefix re-interns every name to the same id; on an
  // integer-keyed run it stays empty and nothing changes.
  NodeVocabulary vocab;
  if (resumed && monitor.vocabulary() != nullptr) {
    vocab = *monitor.vocabulary();
  }

  std::ofstream output_file;
  std::ostream* out = &std::cout;
  if (output != "-") {
    output_file.open(output);
    if (!output_file.is_open()) {
      std::cerr << "cannot open --output " << output << "\n";
      return 1;
    }
    out = &output_file;
  }
  // Header only on fresh runs: a resumed run's rows concatenate onto the
  // killed run's file to reproduce the uninterrupted output byte-for-byte.
  if (!resumed) {
    (*out) << "transition,u,v,score,weight_delta,commute_delta\n";
  }

  std::ifstream events_file(events);
  if (!events_file.is_open()) {
    std::cerr << "cannot open --events " << events << "\n";
    return 1;
  }
  EventStreamReader reader(&events_file, policy, &vocab);

  EventWindowOptions window_options;
  window_options.window_length = window;
  window_options.start_time = start_time;
  // In grow mode a resumed run seeds the aggregator at the checkpoint's
  // high-water mark (events from already-processed windows are skipped, so
  // they can no longer grow it); the node set then keeps growing from there.
  window_options.num_nodes =
      grow_mode ? std::max(vocab.size(), monitor.num_nodes())
                : static_cast<size_t>(num_nodes);
  window_options.grow_nodes = grow_mode;
  window_options.first_window = first_window;
  Result<EventWindowAggregator> aggregator_result =
      EventWindowAggregator::Create(window_options);
  if (!aggregator_result.ok()) {
    std::cerr << aggregator_result.status().ToString() << "\n";
    return 1;
  }
  EventWindowAggregator& aggregator = *aggregator_result;

  const auto observe = [&](WeightedGraph snapshot) -> Result<bool> {
    Result<std::optional<AnomalyReport>> report =
        monitor.Observe(std::move(snapshot));
    if (!report.ok()) return report.status();
    if (report->has_value()) {
      WriteReportRows(**report, vocab.empty() ? nullptr : &vocab, out);
    }
    if (checkpoint_every > 0 &&
        monitor.num_snapshots() %
                static_cast<size_t>(checkpoint_every) == 0) {
      // Named streams checkpoint in format v2 carrying the vocabulary so a
      // resumed run renders the same names; integer streams stay v1
      // byte-identical.
      if (!vocab.empty()) monitor.SetVocabulary(vocab);
      CAD_RETURN_NOT_OK(monitor.SaveCheckpointFile(checkpoint));
      CAD_METRIC_INC("stream.checkpoints");
      CAD_FLIGHT_NOTE("stream.checkpoint",
                      static_cast<double>(monitor.num_snapshots()));
      std::cerr << "checkpoint written at window " << monitor.num_snapshots()
                << "\n";
    }
    return max_snapshots > 0 &&
           monitor.num_snapshots() >= static_cast<size_t>(max_snapshots);
  };

  size_t events_fed = 0;
  size_t events_skipped_resume = 0;
  size_t events_rejected_range = 0;
  // Highest window index any event mapped to (including events skipped on
  // resume): the stale-checkpoint check below compares it against
  // first_window once the stream ends.
  std::optional<size_t> max_window_seen;
  bool stopped_early = false;
  bool interrupted = false;
  std::vector<WeightedGraph> completed;
  while (!stopped_early && !interrupted) {
    if (server::StopRequested()) {
      interrupted = true;
      break;
    }
    Result<std::optional<TimestampedEvent>> next = reader.Next();
    if (!next.ok()) {
      std::cerr << next.status().ToString() << "\n";
      dump_flight_as("stream.failure", static_cast<double>(reader.line_number()));
      return 1;
    }
    if (!next->has_value()) break;
    const TimestampedEvent& event = **next;
    Result<size_t> event_window = aggregator.WindowIndex(event.timestamp);
    if (!event_window.ok()) {
      // Timestamps before --start_time are dropped, matching the batch
      // aggregator; anything else (non-finite, absurdly far out) follows
      // the error policy.
      if (event.timestamp < start_time) continue;
      if (policy == EventErrorPolicy::kStrict) {
        std::cerr << event_window.status().ToString() << "\n";
        dump_flight_as("stream.failure", static_cast<double>(reader.line_number()));
        return 1;
      }
      CAD_METRIC_INC("io.events_rejected");
      continue;
    }
    if (!max_window_seen.has_value() || *event_window > *max_window_seen) {
      max_window_seen = *event_window;
    }
    if (*event_window < first_window) {
      ++events_skipped_resume;  // consumed by the run that checkpointed
      continue;
    }
    completed.clear();
    const Status added = aggregator.Add(event, *event_window, &completed);
    if (!added.ok()) {
      if (policy == EventErrorPolicy::kStrict) {
        std::cerr << "event at line " << reader.line_number() << ": "
                  << added.ToString() << "\n";
        dump_flight_as("stream.failure", static_cast<double>(reader.line_number()));
        return 1;
      }
      // Endpoints past a declared --num_nodes are data loss of a different
      // kind than malformed lines; count them separately so a too-small
      // node set is diagnosable (moot in grow mode, where they grow the
      // window instead).
      if (added.code() == StatusCode::kOutOfRange) {
        ++events_rejected_range;
        CAD_METRIC_INC("io.events_rejected_range");
      }
      CAD_METRIC_INC("io.events_rejected");
      continue;
    }
    ++events_fed;
    // Windows completed by this event but not yet fed to the monitor: the
    // backlog an out-of-order burst creates. Deterministic (a function of
    // the event data alone), so it is a plain gauge.
    CAD_METRIC_SET("stream.queue_depth", completed.size());
    for (WeightedGraph& snapshot : completed) {
      Result<bool> stop = observe(std::move(snapshot));
      if (!stop.ok()) {
        std::cerr << stop.status().ToString() << "\n";
        dump_flight_as("stream.failure", static_cast<double>(reader.line_number()));
        return 1;
      }
      if (*stop) {
        stopped_early = true;
        break;
      }
      // Window boundaries are the consistent points: a stop request between
      // backlogged windows takes effect before the next Observe.
      if (server::StopRequested()) {
        interrupted = true;
        break;
      }
    }
  }

  if (interrupted) {
    std::cerr << "interrupted by signal " << server::StopSignal()
              << " at window " << monitor.num_snapshots() << "\n";
    if (!checkpoint.empty()) {
      // Final checkpoint at the interrupt's window boundary: the run can be
      // resumed with --resume_from as if the interval had just fired.
      if (!vocab.empty()) monitor.SetVocabulary(vocab);
      const Status saved = monitor.SaveCheckpointFile(checkpoint);
      if (!saved.ok()) {
        std::cerr << saved.ToString() << "\n";
        dump_flight_as("stream.failure", 0.0);
        return 1;
      }
      CAD_METRIC_INC("stream.checkpoints");
      CAD_FLIGHT_NOTE("stream.checkpoint",
                      static_cast<double>(monitor.num_snapshots()));
      std::cerr << "checkpoint written at window " << monitor.num_snapshots()
                << "\n";
    }
    dump_flight_as("stream.interrupted",
                   static_cast<double>(server::StopSignal()));
  }

  // A checkpoint "ahead" of the stream — resuming at a window the replayed
  // events never reach — means the stream and checkpoint do not belong
  // together (wrong file, or a different --window/--start_time bucketing).
  // Silently accepting it would re-feed the trailing windows into monitor
  // state that already contains them, double-counting them in the
  // calibration history.
  if (!interrupted && !stopped_early && resumed) {
    const size_t stream_windows =
        max_window_seen.has_value() ? *max_window_seen + 1 : 0;
    if (first_window > stream_windows) {
      const Status stale = Status::IoError(
          "resume checkpoint is ahead of the event stream: it resumes at "
          "window " +
          std::to_string(first_window) + " but the stream ends at " +
          (max_window_seen.has_value()
               ? "window " + std::to_string(*max_window_seen)
               : "no window at all") +
          " (events file line " + std::to_string(reader.line_number()) +
          "); wrong --events file, or mismatched --window/--start_time");
      std::cerr << stale.ToString() << "\n";
      dump_flight_as("stream.failure",
                     static_cast<double>(reader.line_number()));
      return 1;
    }
  }

  // End of stream: close the in-progress window so the final (possibly
  // partial) snapshot is scored, matching the batch aggregation. A
  // max_snapshots stop simulates a kill and an interrupt is a suspension,
  // so neither flushes; a resumed run that added no events has nothing of
  // its own to flush either.
  if (!stopped_early && !interrupted && (!resumed || events_fed > 0)) {
    Result<bool> stop = observe(aggregator.Flush());
    if (!stop.ok()) {
      std::cerr << stop.status().ToString() << "\n";
      dump_flight_as("stream.failure", 0.0);
      return 1;
    }
  }

  if (!out->good()) {
    std::cerr << "output write failed\n";
    dump_flight_as("stream.failure", 0.0);
    return 1;
  }

  // Exit-time observability exports (mirrors cad_cli).
  const auto write_export = [&](const std::string& target,
                                auto writer) -> Status {
    if (target == "-") return writer(&std::cout);
    std::ofstream file(target);
    if (!file.is_open()) return Status::IoError("cannot open " + target);
    return writer(&file);
  };
  if (!metrics_csv.empty()) {
    const Status written = write_export(metrics_csv, [](std::ostream* sink) {
      return obs::WriteMetricsCsv(obs::SnapshotMetrics(), sink);
    });
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
  }
  if (!trace_json.empty()) {
    const Status written = write_export(trace_json, [](std::ostream* sink) {
      return obs::WriteChromeTraceJson(sink);
    });
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
  }
  std::cerr << "processed " << monitor.num_snapshots() << " windows, "
            << monitor.num_transitions() << " transitions (fed " << events_fed
            << " events";
  if (resumed) std::cerr << ", skipped " << events_skipped_resume;
  if (policy == EventErrorPolicy::kSkip) {
    std::cerr << ", rejected "
              << reader.events_rejected_parse() + events_rejected_range
              << " (parse " << reader.events_rejected_parse() << ", range "
              << events_rejected_range << ")";
  }
  std::cerr << "), delta=" << FormatDouble(monitor.current_delta(), 9) << "\n";
  // Exit 3 marks "interrupted, state saved": distinct from success and from
  // errors so supervisors and the CI drain test can tell them apart.
  return interrupted ? 3 : 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
