#include "app/tool_flags.h"

#include <iostream>

#include "obs/obs.h"

namespace cad {

void AddEngineFlags(FlagParser* flags, CadOptions* cad) {
  flags->AddChoice("engine", &cad->engine,
                   {{"auto", CommuteEngine::kAuto},
                    {"exact", CommuteEngine::kExact},
                    {"approx", CommuteEngine::kApprox}},
                   "commute engine: auto, exact, or approx");
  flags->AddCount("k", &cad->approx.embedding_dim,
                  "embedding dimension for the approximate engine");
  flags->AddCount("seed", &cad->approx.seed,
                  "seed for the approximate engine");
}

void AddWarmStartFlags(FlagParser* flags, bool* warm_start,
                       double* refactor_threshold) {
  flags->AddBool("warm_start", warm_start,
                 "start each window's solves from the previous window's "
                 "embedding (approximate engine); cad_cli's --preconditioner "
                 "auto|ic0 also reuses its IC(0) factor");
  flags->AddDouble("refactor_threshold", refactor_threshold,
                   "relative Laplacian-diagonal drift above which a reused "
                   "IC(0) factor is rebuilt; read only with --warm_start and "
                   "cad_cli's --preconditioner auto|ic0");
}

void AddPreconditionerFlag(FlagParser* flags,
                           std::optional<CgPreconditioner>* preconditioner) {
  flags->AddChoice("preconditioner", preconditioner,
                   {{"auto", std::nullopt},
                    {"none", CgPreconditioner::kNone},
                    {"jacobi", CgPreconditioner::kJacobi},
                    {"ic0", CgPreconditioner::kIncompleteCholesky}},
                   "CG preconditioner: auto, none, jacobi, or ic0 (auto = "
                   "ic0 under --warm_start, else jacobi)");
}

void AddThreadsFlag(FlagParser* flags, CadOptions* cad) {
  flags->AddCount("threads", cad->analysis_threads,
                  "worker threads for each window's Laplacian solves and "
                  "scoring lookups; outputs do not depend on it (default: "
                  "the CPUs this process may run on)",
                  1, [cad](uint64_t threads) {
                    cad->analysis_threads = threads;
                    cad->approx.cg.num_threads = threads;
                  });
}

void AddTargetFlag(FlagParser* flags, double* nodes_per_transition) {
  flags->AddDouble("l", nodes_per_transition,
                   "target anomalous nodes per transition");
}

void AddEventsFlag(FlagParser* flags, std::string* path) {
  flags->AddString("events", path,
                   "timestamped event file '<u> <v> <t> [w]' (time-ordered "
                   "for cad_stream); endpoints may be integer ids or string "
                   "names (auto-detected)");
}

void AddWindowFlags(FlagParser* flags, double* window_length,
                    EventErrorPolicy* error_policy) {
  flags->AddDouble("window", window_length,
                   "window length in timestamp units");
  flags->AddChoice("error_policy", error_policy,
                   {{"strict", EventErrorPolicy::kStrict},
                    {"skip", EventErrorPolicy::kSkip}},
                   "malformed-event handling: strict (fail fast) or skip "
                   "(drop and count)");
}

void AddStatsEveryFlag(FlagParser* flags, size_t* every) {
  flags->AddCount("stats_every", every,
                  "emit a heartbeat after every N observed windows (cad_cli: "
                  "pipeline stages); 0 disables");
}

void AddSessionFlags(FlagParser* flags, StreamSessionOptions* options) {
  AddWindowFlags(flags, &options->window_length, &options->error_policy);
  flags->AddDouble("start_time", &options->start_time,
                   "timestamp of window 0's start");
  flags->AddCount("checkpoint_every", &options->checkpoint_every,
                  "checkpoint after every N observed windows (0 = no "
                  "interval checkpoints); needs a checkpoint destination");
  OnlineMonitorOptions* monitor = &options->monitor;
  AddEngineFlags(flags, &monitor->detector);
  AddWarmStartFlags(flags, &monitor->detector.approx.warm_start,
                    &monitor->detector.approx.refactor_threshold);
  AddTargetFlag(flags, &monitor->nodes_per_transition);
  flags->AddCount("warmup", &monitor->warmup_transitions,
                  "transitions observed before reports are emitted");
  flags->AddCount("max_history", &monitor->max_history,
                  "calibration window in transitions (0 = unbounded)");
  flags->AddBool("incremental", &monitor->incremental,
                 "maintain each window's commute state incrementally from "
                 "the previous window's (implies --warm_start; DESIGN.md "
                 "§12)");
  flags->AddDouble("churn_threshold", &monitor->detector.churn_threshold,
                   "edge-churn ratio above which --incremental falls back to "
                   "a full rebuild for that window");
  flags->AddDouble("incremental_tolerance",
                   &monitor->detector.approx.incremental_tolerance,
                   "relative-residual bound for reusing a cached embedding "
                   "column under --incremental (approximate engine)");
}

Status WriteToTarget(const std::string& target,
                     const std::function<Status(std::ostream*)>& write) {
  if (target == "-") return write(&std::cout);
  std::ofstream file(target);
  if (!file.is_open()) return Status::IoError("cannot open " + target);
  return write(&file);
}

ObservabilityFlags::ObservabilityFlags(FlagParser* flags) {
  flags->AddString("metrics_csv", &metrics_csv_,
                   "record runtime metrics and write them as CSV here at "
                   "exit ('-' for stdout)");
  flags->AddString("trace_json", &trace_json_,
                   "record trace spans and write Chrome trace JSON here at "
                   "exit (open in chrome://tracing; '-' for stdout)");
  flags->AddString("stats_json", &stats_json_,
                   "write heartbeat JSON lines here ('-' for stdout; "
                   "requires --stats_every); see DESIGN.md §10 for the "
                   "schema");
  AddStatsEveryFlag(flags, &stats_every_);
}

Status ObservabilityFlags::Start() const {
  if ((stats_every_ > 0) != !stats_json_.empty()) {
    return Status::InvalidArgument(
        "--stats_every and --stats_json must be used together");
  }
  // Heartbeats need metrics recording: their non-timer fields are the
  // registry's deltas.
  if (!metrics_csv_.empty() || stats_every_ > 0) {
    obs::ResetMetrics();
    obs::SetMetricsEnabled(true);
  }
  if (!trace_json_.empty()) {
    obs::ResetTracing();
    obs::SetTracingEnabled(true);
  }
  return Status::OK();
}

Result<obs::StatsReporter*> ObservabilityFlags::OpenStats() {
  if (stats_every_ == 0) return nullptr;
  std::ostream* out = &std::cout;
  if (stats_json_ != "-") {
    stats_file_.open(stats_json_);
    if (!stats_file_.is_open()) {
      return Status::IoError("cannot open --stats_json file " + stats_json_);
    }
    out = &stats_file_;
  }
  stats_ = std::make_unique<obs::StatsReporter>(out, stats_every_);
  return stats_.get();
}

Status ObservabilityFlags::WriteExports(
    const obs::MetricsSnapshot& metrics) const {
  if (!metrics_csv_.empty()) {
    CAD_RETURN_NOT_OK(WriteToTarget(metrics_csv_, [&](std::ostream* out) {
      return obs::WriteMetricsCsv(metrics, out);
    }));
  }
  if (!trace_json_.empty()) {
    CAD_RETURN_NOT_OK(WriteToTarget(trace_json_, [](std::ostream* out) {
      return obs::WriteChromeTraceJson(out);
    }));
  }
  return Status::OK();
}

}  // namespace cad
