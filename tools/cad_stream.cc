// cad_stream — fault-tolerant streaming anomaly monitor over an event file.
//
// Reads timestamped events '<u> <v> <t> [w]' in time order and drives a
// StreamSession (src/app/stream_session.h) with them: events are aggregated
// into fixed-length windows, each completed window is fed to an
// OnlineCadMonitor, and one CSV row is printed per reported anomalous edge.
// RunStreamPipeline (src/app/stream_pipeline.h) reads and windows the next
// window's events on a reader thread while this one is observed; outputs
// are those of a serial loop. The server's tenants run the same session
// over wire events. Unlike
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
#include <optional>
#include <string>

#include "app/stream_pipeline.h"
#include "app/stream_session.h"
#include "app/tool_flags.h"
#include "common/strings.h"
#include "core/checkpoint.h"
#include "obs/obs.h"
#include "server/signal_util.h"

namespace cad {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  StreamSessionOptions session_options;
  // No default window: --window must be given, and 0 fails Create.
  session_options.window_length = 0.0;
  std::string events;
  std::string output = "-";
  std::string checkpoint;
  std::string resume_from;
  size_t max_snapshots = 0;
  std::string flight_recorder;
  AddEventsFlag(&flags, &events);
  AddSessionFlags(&flags, &session_options);
  AddThreadsFlag(&flags, &session_options.monitor.detector);
  ObservabilityFlags observability(&flags);
  flags.AddCount("num_nodes", &session_options.num_nodes,
                 "fixed node-set size shared by every window; 0 discovers "
                 "the node set from the events (it grows as unseen "
                 "endpoints arrive)");
  flags.AddString("output", &output,
                  "anomalous-edge CSV destination ('-' for stdout)");
  flags.AddString("checkpoint", &checkpoint,
                  "write monitor checkpoints to this file");
  flags.AddString("resume_from", &resume_from,
                  "restore monitor state from this checkpoint before "
                  "streaming; already-processed windows are skipped");
  flags.AddCount("max_snapshots", &max_snapshots,
                 "stop after observing this many windows (0 = no limit); "
                 "the in-progress window is not flushed, simulating a kill");
  flags.AddString("flight_recorder", &flight_recorder,
                  "keep a bounded ring of recent spans/events and dump it "
                  "as JSON to this file if the stream fails");
  if (const std::optional<int> exit = ParseToolFlags(&flags, argc, argv)) {
    return *exit;
  }
  if (events.empty()) {
    std::cerr << "--events is required\n" << flags.Usage();
    return 2;
  }
  if (session_options.checkpoint_every > 0 && checkpoint.empty()) {
    std::cerr << "--checkpoint_every requires --checkpoint\n";
    return 2;
  }
  // Turn observability on before the monitor is built so every window is
  // covered.
  const Status started = observability.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 2;
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

  const EventErrorPolicy policy = session_options.error_policy;
  Result<StreamSession> created =
      StreamSession::Create(std::move(session_options));
  if (!created.ok()) {
    std::cerr << created.status().ToString() << "\n";
    return 1;
  }
  StreamSession& session = *created;
  StreamObserver& observer = *session.observer();
  const OnlineCadMonitor& monitor = observer.monitor();

  // Constructed before any window is observed, so the first heartbeat's
  // deltas cover the stream from its very first event.
  const Result<obs::StatsReporter*> stats = observability.OpenStats();
  if (!stats.ok()) {
    std::cerr << stats.status().ToString() << "\n";
    return 1;
  }
  observer.mutable_monitor()->SetStatsReporter(*stats);

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

  const auto write_checkpoint = [&]() -> Status {
    CAD_RETURN_NOT_OK(WriteFileAtomic(checkpoint, [&](std::ostream* file) {
      return observer.SaveCheckpoint(file);
    }));
    CAD_METRIC_INC("stream.checkpoints");
    CAD_FLIGHT_NOTE("stream.checkpoint",
                    static_cast<double>(monitor.num_snapshots()));
    std::cerr << "checkpoint written at window " << monitor.num_snapshots()
              << "\n";
    return Status::OK();
  };
  // Reading and windowing run on a reader thread; this thread observes the
  // windows, writes their report rows and interval checkpoints, and stops
  // at a window boundary (the consistent points) once --max_snapshots is
  // reached or a stop signal arrives. A --max_snapshots stop simulates a
  // kill and an interrupt is a suspension, so neither ends the stream; at
  // its end the final (possibly partial) window is observed, matching the
  // batch aggregation.
  StreamPipelineHooks hooks;
  hooks.max_snapshots = max_snapshots;
  hooks.stop_requested = server::StopRequested;
  hooks.on_window = [&](const StreamSession::Window& window) -> Status {
    for (const std::string& row : window.report_rows) (*out) << row << "\n";
    return window.checkpoint_due ? write_checkpoint() : Status::OK();
  };
  const StreamPipelineResult run =
      RunStreamPipeline(&session, &events_file, hooks);
  if (run.end == StreamPipelineResult::End::kFailed) {
    return fail(run.message, run.line);
  }
  const bool interrupted = run.end == StreamPipelineResult::End::kStopped;
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

  if (!out->good()) return fail("output write failed", 0);

  const Status exported = observability.WriteExports(obs::SnapshotMetrics());
  if (!exported.ok()) {
    std::cerr << exported.ToString() << "\n";
    return 1;
  }
  // The counts as of the last observed window: what the reader read ahead
  // of it is not reported.
  const StreamEventCounts& counts = observer.counts();
  std::cerr << "processed " << monitor.num_snapshots() << " windows, "
            << monitor.num_transitions() << " transitions (fed " << counts.fed
            << " events";
  if (resumed) std::cerr << ", skipped " << counts.skipped_resume;
  if (policy == EventErrorPolicy::kSkip) {
    std::cerr << ", rejected " << counts.rejected_parse + counts.rejected_range
              << " (parse " << counts.rejected_parse << ", range "
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
