// cad_stream — fault-tolerant streaming anomaly monitor over an event file.
//
// Reads timestamped events '<u> <v> <t> [w]' in time order and drives a
// StreamSession (src/app/stream_session.h) with them: events are aggregated
// into fixed-length windows, each completed window is fed to an
// OnlineCadMonitor, and one CSV row is printed per reported anomalous edge.
// The server's tenants run the same session over wire events. Unlike
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

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "app/stream_session.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "core/checkpoint.h"
#include "io/event_stream.h"
#include "obs/obs.h"
#include "server/signal_util.h"

namespace cad {
namespace {

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
  // Reports a runtime error, dumps the flight recorder, and gives the exit
  // code; `line` as for dump_flight_as.
  const auto fail = [&](const std::string& message, size_t line) {
    std::cerr << message << "\n";
    dump_flight_as("stream.failure", static_cast<double>(line));
    return 1;
  };

  // Graceful-stop plumbing: SIGINT/SIGTERM raise a flag the monitor loop
  // checks at window granularity (async-signal-safe; src/server/signal_util).
  const Status signals_installed = server::InstallStopSignalHandlers();
  if (!signals_installed.ok()) {
    std::cerr << signals_installed.ToString() << "\n";
    return 1;
  }

  StreamSessionOptions session_options;
  session_options.window_length = window;
  session_options.start_time = start_time;
  session_options.num_nodes = static_cast<size_t>(num_nodes);
  session_options.error_policy = policy;
  session_options.checkpoint_every = static_cast<size_t>(checkpoint_every);
  OnlineMonitorOptions& monitor_options = session_options.monitor;
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

  Result<StreamSession> created =
      StreamSession::Create(std::move(session_options));
  if (!created.ok()) {
    std::cerr << created.status().ToString() << "\n";
    return 1;
  }
  StreamSession& session = *created;
  const OnlineCadMonitor& monitor = session.monitor();

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
    session.mutable_monitor()->SetStatsReporter(stats.get());
  }

  // A resumed run skips the events of windows the checkpoint holds, using
  // the same bucketing arithmetic, so resumption never re-feeds or splits a
  // window.
  const bool resumed = !resume_from.empty();
  if (resumed) {
    std::ifstream resume_file(resume_from, std::ios::binary);
    const Status loaded =
        resume_file.is_open()
            ? session.Resume(&resume_file)
            : Status::IoError("cannot open for reading: " + resume_from);
    if (!loaded.ok()) return fail("resume failed: " + loaded.ToString(), 0);
    std::cerr << "resumed at window " << monitor.num_snapshots() << " ("
              << monitor.num_transitions() << " transitions, delta="
              << FormatDouble(monitor.current_delta(), 9) << ")\n";
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
  if (!resumed) (*out) << kReportCsvHeader;

  std::ifstream events_file(events);
  if (!events_file.is_open()) {
    std::cerr << "cannot open --events " << events << "\n";
    return 1;
  }
  EventStreamReader reader(&events_file, policy, session.vocabulary());

  const auto write_checkpoint = [&]() -> Status {
    CAD_RETURN_NOT_OK(WriteFileAtomic(checkpoint, [&](std::ostream* file) {
      return session.SaveCheckpoint(file);
    }));
    CAD_METRIC_INC("stream.checkpoints");
    CAD_FLIGHT_NOTE("stream.checkpoint",
                    static_cast<double>(monitor.num_snapshots()));
    std::cerr << "checkpoint written at window " << monitor.num_snapshots()
              << "\n";
    return Status::OK();
  };
  const auto limit_reached = [&] {
    return max_snapshots > 0 &&
           monitor.num_snapshots() >= static_cast<size_t>(max_snapshots);
  };
  // Observes the session's pending windows, writing report rows and
  // interval checkpoints. True when the run must stop before the next
  // window: --max_snapshots is reached, or a stop signal arrived (window
  // boundaries are the consistent points).
  const auto observe_pending = [&]() -> Result<bool> {
    while (session.pending_windows() > 0) {
      Result<StreamSession::Window> observed = session.ObserveNext();
      if (!observed.ok()) return observed.status();
      for (const std::string& row : observed->report_rows) {
        (*out) << row << "\n";
      }
      if (observed->checkpoint_due) CAD_RETURN_NOT_OK(write_checkpoint());
      if (limit_reached() || server::StopRequested()) return true;
    }
    return false;
  };

  bool stopped_early = false;
  bool interrupted = false;
  while (true) {
    if (server::StopRequested()) {
      interrupted = true;
      break;
    }
    Result<std::optional<TimestampedEvent>> next = reader.Next();
    const size_t line = reader.line_number();
    if (!next.ok()) return fail(next.status().ToString(), line);
    if (!next->has_value()) break;
    const Result<bool> fed = session.Offer(**next);
    if (!fed.ok()) {
      return fail("event at line " + std::to_string(line) + ": " +
                      fed.status().ToString(),
                  line);
    }
    if (*fed) {
      // Windows completed by this event but not yet fed to the monitor: the
      // backlog an out-of-order burst creates. Deterministic (a function of
      // the event data alone), so it is a plain gauge.
      CAD_METRIC_SET("stream.queue_depth", session.pending_windows());
    }
    const Result<bool> stop = observe_pending();
    if (!stop.ok()) return fail(stop.status().ToString(), line);
    if (*stop) {
      stopped_early = limit_reached();
      interrupted = !stopped_early;
      break;
    }
  }

  if (interrupted) {
    std::cerr << "interrupted by signal " << server::StopSignal()
              << " at window " << monitor.num_snapshots() << "\n";
    if (!checkpoint.empty()) {
      // Final checkpoint at the interrupt's window boundary: the run can be
      // resumed with --resume_from as if the interval had just fired.
      const Status saved = write_checkpoint();
      if (!saved.ok()) return fail(saved.ToString(), 0);
    }
    dump_flight_as("stream.interrupted",
                   static_cast<double>(server::StopSignal()));
  }

  // End of stream: the stale-checkpoint check, then the final (possibly
  // partial) window, matching the batch aggregation. A max_snapshots stop
  // simulates a kill and an interrupt is a suspension, so neither ends the
  // stream.
  if (!stopped_early && !interrupted) {
    const Status ended = session.Finish();
    if (!ended.ok()) {
      return fail(ended.ToString() + " (events file line " +
                      std::to_string(reader.line_number()) + ")",
                  reader.line_number());
    }
    const Result<bool> flushed = observe_pending();
    if (!flushed.ok()) return fail(flushed.status().ToString(), 0);
  }

  if (!out->good()) return fail("output write failed", 0);

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
  const StreamEventCounts& counts = session.counts();
  std::cerr << "processed " << monitor.num_snapshots() << " windows, "
            << monitor.num_transitions() << " transitions (fed " << counts.fed
            << " events";
  if (resumed) std::cerr << ", skipped " << counts.skipped_resume;
  if (policy == EventErrorPolicy::kSkip) {
    std::cerr << ", rejected "
              << reader.events_rejected_parse() + counts.rejected_range
              << " (parse " << reader.events_rejected_parse() << ", range "
              << counts.rejected_range << ")";
  }
  std::cerr << "), delta=" << FormatDouble(monitor.current_delta(), 9) << "\n";
  // Exit 3 marks "interrupted, state saved": distinct from success and from
  // errors so supervisors and the CI drain test can tell them apart.
  return interrupted ? 3 : 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
