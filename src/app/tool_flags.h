#ifndef CAD_APP_TOOL_FLAGS_H_
#define CAD_APP_TOOL_FLAGS_H_

#include <fstream>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "app/stream_session.h"
#include "common/flags.h"
#include "common/result.h"
#include "core/cad_detector.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"

namespace cad {

// The flags cad_cli, cad_stream and cad_server share. Each is registered
// once, here, and bound straight into the option struct the library takes,
// so a shared flag means the same thing and is validated the same way in
// every tool: a malformed or negative count and an unknown name fail Parse
// (a usage error). A tool sets its own defaults on the struct before
// registering; Usage shows the value a field holds then.

/// --engine --k --seed (all three tools).
void AddEngineFlags(FlagParser* flags, CadOptions* cad);

/// --warm_start --refactor_threshold (all three tools; cad_cli binds the
/// PipelineOptions switches, which override `cad.approx`).
void AddWarmStartFlags(FlagParser* flags, bool* warm_start,
                       double* refactor_threshold);

/// --preconditioner (cad_cli, repro_enron_timeline): auto, none, jacobi or
/// ic0, with "auto" bound as nullopt for the tool to resolve.
void AddPreconditionerFlag(FlagParser* flags,
                           std::optional<CgPreconditioner>* preconditioner);

/// --threads, into both of `cad`'s thread counts (cad_cli, cad_stream).
void AddThreadsFlag(FlagParser* flags, CadOptions* cad);

/// --l (all three tools).
void AddTargetFlag(FlagParser* flags, double* nodes_per_transition);

/// --events (cad_cli, cad_stream).
void AddEventsFlag(FlagParser* flags, std::string* path);

/// --window --error_policy (all three tools).
void AddWindowFlags(FlagParser* flags, double* window_length,
                    EventErrorPolicy* error_policy);

/// --stats_every (all three tools).
void AddStatsEveryFlag(FlagParser* flags, size_t* every);

/// The session and monitor sets (cad_stream, cad_server): AddWindowFlags,
/// --start_time and --checkpoint_every into `options`; AddEngineFlags,
/// AddWarmStartFlags, AddTargetFlag, --warmup --max_history --incremental
/// --churn_threshold and --incremental_tolerance into its monitor. StreamSession::Create
/// checks the values the flags cannot (a positive window, a valid --l).
void AddSessionFlags(FlagParser* flags, StreamSessionOptions* options);

/// Runs `write` on stdout when `target` is "-", else on the file `target`
/// (created or truncated). IoError when the file cannot be opened.
[[nodiscard]] Status WriteToTarget(
    const std::string& target,
    const std::function<Status(std::ostream*)>& write);

/// \brief The observability set (cad_cli, cad_stream): --metrics_csv
/// --trace_json --stats_json --stats_every, their start-up checks, the
/// heartbeat reporter and the exit-time exports (DESIGN.md §5, §10).
class ObservabilityFlags {
 public:
  /// Registers the four flags, bound to this object.
  explicit ObservabilityFlags(FlagParser* flags);

  ObservabilityFlags(const ObservabilityFlags&) = delete;
  ObservabilityFlags& operator=(const ObservabilityFlags&) = delete;

  /// After Parse. InvalidArgument (a usage error) unless --stats_every and
  /// --stats_json come together; otherwise turns on metrics recording (for
  /// --metrics_csv or heartbeats) and tracing (for --trace_json). Call
  /// before the work they should cover.
  [[nodiscard]] Status Start() const;

  /// The heartbeat reporter writing to --stats_json, or nullptr without
  /// --stats_every. Its metrics baseline is taken here, so call it right
  /// before the monitored work. IoError when the file cannot be opened.
  [[nodiscard]] Result<obs::StatsReporter*> OpenStats();

  /// Writes --metrics_csv from `metrics`, then --trace_json.
  [[nodiscard]] Status WriteExports(const obs::MetricsSnapshot& metrics) const;

 private:
  std::string metrics_csv_;
  std::string trace_json_;
  std::string stats_json_;
  size_t stats_every_ = 0;
  std::ofstream stats_file_;
  std::unique_ptr<obs::StatsReporter> stats_;
};

}  // namespace cad

#endif  // CAD_APP_TOOL_FLAGS_H_
