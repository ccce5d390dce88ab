#ifndef CAD_CORE_ONLINE_MONITOR_H_
#define CAD_CORE_ONLINE_MONITOR_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "commute/solver_cache.h"
#include "core/cad_detector.h"
#include "core/threshold.h"
#include "graph/node_vocabulary.h"

namespace cad {

namespace obs {
class StatsReporter;
}  // namespace obs

/// \brief Options for the streaming CAD monitor.
struct OnlineMonitorOptions {
  /// Detector configuration (engine, score kind, embedding dimension).
  CadOptions detector;
  /// Target average number of anomalous nodes per transition; the threshold
  /// delta is re-calibrated after every snapshot from all scores seen so
  /// far (the paper's §4.2 online variant: "aggregating scores up to the
  /// current graph instance and updating the threshold").
  double nodes_per_transition = 5.0;
  /// Number of transitions to observe before reports are emitted; earlier
  /// transitions still feed the calibration. Guards against a wild
  /// threshold from a one-transition history.
  size_t warmup_transitions = 2;
  /// Maximum number of transition scores retained for calibration. 0 keeps
  /// the full history (bit-identical to the historical behavior, O(T)
  /// memory). A positive value W bounds memory at O(W): delta is calibrated
  /// over the W most recent transitions — nodes_per_transition then targets
  /// the average over that window — which is the production setting for
  /// unbounded streams.
  size_t max_history = 0;
  /// Per-window incremental maintenance (DESIGN.md §12): each Observe diffs
  /// the snapshot against the previous one and updates the previous oracle
  /// (Woodbury on the exact pseudoinverse, churn-scoped re-solves of the
  /// approximate embedding) instead of rebuilding, while the churn ratio
  /// stays within detector.churn_threshold; any inapplicable window falls
  /// back to a full rebuild that re-seeds the state. Implies
  /// detector.approx.warm_start (edge-keyed JL draws). Checkpoints written
  /// with this flag use format v3; v1/v2 checkpoints still load, with the
  /// first resumed window rebuilding to re-seed.
  bool incremental = false;
};

/// \brief Streaming variant of CAD: feed snapshots one at a time and receive
/// an anomaly report per transition, thresholded with a delta calibrated
/// online over the history so far.
///
/// Each snapshot's commute-time oracle is built exactly once and reused for
/// its two adjacent transitions, so the total work matches the batch
/// CadDetector::Analyze pass.
///
/// A monitor is single-caller state: Observe mutates the score history, the
/// online threshold, and the warm-start solver cache in place, and is
/// neither thread-safe nor re-entrant. Drive each monitor from one thread
/// at a time (the multi-tenant server schedules at most one worker per
/// tenant); a CHECK tripwire in Observe catches scheduler bugs that would
/// otherwise corrupt results silently.
class OnlineCadMonitor {
 public:
  explicit OnlineCadMonitor(OnlineMonitorOptions options = {})
      : options_(NormalizeOptions(std::move(options))),
        detector_(options_.detector) {}

  /// Feeds the next snapshot. Returns:
  ///  - nullopt for the first snapshot (no transition yet) and during
  ///    warmup,
  ///  - otherwise the AnomalyReport for the transition that just completed,
  ///    thresholded at the current online delta.
  /// The snapshot's node count may exceed the previous snapshot's (a
  /// discovered node set growing, DESIGN.md §8): the previous snapshot is
  /// reinterpreted with the new nodes isolated, which leaves its commute
  /// oracle's scores on existing pairs bit-identical. Shrinking is rejected.
  ///
  /// Instrumented (DESIGN.md §10): each call records its wall time into the
  /// `monitor.window_latency` timer histogram, bumps `monitor.windows` /
  /// `monitor.transitions`, refreshes the `monitor.delta`,
  /// `monitor.history_depth`, and `monitor.cache_staleness` gauges, and — if
  /// a StatsReporter is attached — ticks it once per successful call.
  [[nodiscard]] Result<std::optional<AnomalyReport>> Observe(
      const Snapshot& snapshot);

  /// The currently calibrated threshold (0 until the first transition).
  double current_delta() const { return delta_; }

  /// Number of snapshots observed so far.
  size_t num_snapshots() const { return num_snapshots_; }

  /// Node count of the most recently observed snapshot (0 before the first).
  /// Under node growth this is the high-water mark the next snapshot must
  /// meet or exceed; stream drivers use it to re-seed their aggregator on
  /// resume.
  size_t num_nodes() const {
    return previous_snapshot_.has_value() ? previous_snapshot_->num_nodes()
                                          : 0;
  }

  /// Number of completed transitions over the stream's lifetime (not capped
  /// by max_history). AnomalyReport::transition indexes this count, so
  /// report indices stay global under a sliding window.
  size_t num_transitions() const { return num_transitions_total_; }

  /// Transition scores currently retained for calibration: the full stream
  /// history when max_history == 0, else the trailing window.
  const std::vector<TransitionScores>& history() const { return history_; }

  const OnlineMonitorOptions& options() const { return options_; }

  /// Attaches a heartbeat reporter (not owned; must outlive the monitor or
  /// be detached with nullptr). Observe ticks it after every successful
  /// window, so with StatsReporter(out, N) one heartbeat line is emitted per
  /// N windows. A heartbeat write failure is reported as the Observe error.
  void SetStatsReporter(obs::StatsReporter* reporter) { stats_ = reporter; }

  /// The most recent window's commute-time oracle (nullptr before the
  /// first). Under warm start its approximate embedding is the block the
  /// solver cache holds for the next window.
  const CommuteTimeOracle* previous_oracle() const {
    return previous_oracle_.get();
  }

  /// The warm-start solver cache (embedding, IC(0) factor, incremental RHS
  /// block); its ApproxBytes feeds the server's shared-cache memory budget
  /// (DESIGN.md §13).
  const CommuteSolverCache& solver_cache() const { return solver_cache_; }

  /// Drops the warm-start solver cache. Safe at any window boundary: the
  /// next Observe rebuilds cold, exactly like a fresh monitor's first
  /// window, so reports stay valid — but warm-started CG iterates (and
  /// hence approximate-engine scores) can differ from the uninterrupted
  /// timeline afterwards. The previous oracle keeps its own reference to
  /// the embedding the cache shared with it, so only the cache's reference
  /// is dropped. The server's cache-budget eviction calls this on idle
  /// tenants.
  void EvictSolverCache() { solver_cache_.Clear(); }

  /// \brief Serializes the complete monitor state (previous snapshot and
  /// oracle, retained score history, calibrated delta, solver-cache
  /// contents) in the versioned binary format of core/checkpoint.h. A monitor
  /// restored from the checkpoint produces byte-identical reports for the
  /// remaining stream. A named stream passes its string-id vocabulary, which
  /// the checkpoint carries (format v2, or v3's vocabulary section) so a
  /// resumed run renders the same names; the monitor itself only sees dense
  /// integer ids.
  [[nodiscard]] Status SaveCheckpoint(
      std::ostream* out, const NodeVocabulary* vocabulary = nullptr) const;
  [[nodiscard]] Status SaveCheckpointFile(
      const std::string& path,
      const NodeVocabulary* vocabulary = nullptr) const;

  /// \brief Restores state written by SaveCheckpoint, replacing this
  /// monitor's progress. Options are NOT serialized: the monitor must be
  /// constructed with the same options as the one that saved (the stream
  /// driver re-supplies its configuration on resume); a mismatched engine
  /// kind is detected and rejected, other mismatches silently change future
  /// reports. `*vocabulary` (optional) receives the checkpoint's vocabulary,
  /// or nullopt when it carries none; it is written only on success. Defined
  /// in core/checkpoint.cc alongside the format.
  [[nodiscard]] Status LoadCheckpoint(
      std::istream* in, std::optional<NodeVocabulary>* vocabulary = nullptr);
  [[nodiscard]] Status LoadCheckpointFile(
      const std::string& path,
      std::optional<NodeVocabulary>* vocabulary = nullptr);

 private:
  /// Applies option implications: incremental forces the approximate
  /// engine's warm-start + incremental modes (the cached RHS block and
  /// edge-keyed draws are what make per-window updates well-defined).
  static OnlineMonitorOptions NormalizeOptions(OnlineMonitorOptions options);

  /// Grows the previous snapshot and its oracle to `num_nodes` by appending
  /// isolated nodes (zero-padded pseudoinverse/embedding rows, singleton
  /// components, unchanged volume, sentinel recomputed for the new size) —
  /// exactly what a fresh build of the grown snapshot produces, without
  /// re-running the solver.
  [[nodiscard]] Status GrowPreviousTo(size_t num_nodes);

  /// The actual Observe body; the public wrapper adds the window-latency
  /// timing, metric updates, flight-recorder notes, and heartbeat tick.
  [[nodiscard]] Result<std::optional<AnomalyReport>> ObserveImpl(
      const Snapshot& snapshot);

  OnlineMonitorOptions options_;
  CadDetector detector_;
  // Streaming timelines are the natural fit for temporal warm-starting: the
  // cache carries each snapshot's embedding and IC(0) factor into the next
  // Observe call (active only under detector.approx.warm_start).
  CommuteSolverCache solver_cache_{options_.detector.approx.refactor_threshold};
  // The previous window: the diff, the scoring merge and the checkpoint
  // read it.
  std::optional<Snapshot> previous_snapshot_;
  std::unique_ptr<CommuteTimeOracle> previous_oracle_;
  std::vector<TransitionScores> history_;
  obs::StatsReporter* stats_ = nullptr;
  double delta_ = 0.0;
  size_t num_snapshots_ = 0;
  size_t num_transitions_total_ = 0;
  // Re-entrancy tripwire, not synchronization: a concurrent Observe is a
  // caller bug, and under TSan the unsynchronized flag itself reports the
  // race at the exact offending call site.
  bool observing_ = false;
};

}  // namespace cad

#endif  // CAD_CORE_ONLINE_MONITOR_H_
