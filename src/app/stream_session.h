#ifndef CAD_APP_STREAM_SESSION_H_
#define CAD_APP_STREAM_SESSION_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/online_monitor.h"
#include "graph/node_vocabulary.h"
#include "io/event_stream.h"

namespace cad {

/// Header line of the anomaly-report CSV every stream front end writes.
inline constexpr char kReportCsvHeader[] =
    "transition,u,v,score,weight_delta,commute_delta\n";

/// \brief Configuration of one event stream: its windowing, its error
/// policy and its checkpoint cadence, plus the monitor it feeds.
struct StreamSessionOptions {
  OnlineMonitorOptions monitor;
  /// Window length / start of window 0 in event-timestamp units.
  double window_length = 1.0;
  double start_time = 0.0;
  /// Fixed node-set size shared by every window; 0 discovers the node set
  /// from the events (grow mode, DESIGN.md §8).
  size_t num_nodes = 0;
  /// Under kStrict the first event the windowing rejects fails Offer; under
  /// kSkip it is counted and dropped.
  EventErrorPolicy error_policy = EventErrorPolicy::kStrict;
  /// A checkpoint is due after every N observed windows (0 = never).
  size_t checkpoint_every = 0;
};

/// What became of the events offered so far, by cause.
struct StreamEventCounts {
  uint64_t fed = 0;
  /// In windows the resume checkpoint already holds.
  uint64_t skipped_resume = 0;
  /// Timestamped before start_time: dropped, as the batch aggregator does.
  uint64_t before_start = 0;
  /// Rejected under kSkip: an endpoint past a fixed node set.
  uint64_t rejected_range = 0;
  /// Rejected under kSkip for any other reason (a timestamp too far out, a
  /// self-loop, an event older than the open window).
  uint64_t rejected_other = 0;
};

/// \brief The online loop of the paper's §4.2 behind both stream front ends
/// (`cad_stream` and the server's tenants): bucket decoded events into
/// windows, Observe each closed window, and say when a checkpoint is due.
/// The session owns the monitor, the window aggregator and the vocabulary
/// the caller's decoder interns into; front ends keep their input format,
/// timing, and where report rows and checkpoints go:
///
///   for each decoded event:
///     session.Offer(event)
///     while (session.pending_windows() > 0) handle(session.ObserveNext())
///   session.Finish(), then observe the pending windows the same way
///
/// Offer makes no callback and no allocation of its own.
class StreamSession {
 public:
  /// Report rows and checkpoint cadence of one observed window.
  struct Window {
    /// One CSV row per reported edge, without newlines.
    std::vector<std::string> report_rows;
    /// The window count reached a multiple of checkpoint_every.
    bool checkpoint_due = false;
  };

  /// A fresh session. InvalidArgument on a non-positive or non-finite
  /// window length, a non-finite start time, or a negative or NaN target
  /// (checked here so a bad --l is an error, not a CHECK at window one).
  [[nodiscard]] static Result<StreamSession> Create(
      StreamSessionOptions options);

  /// Restores the monitor from a checkpoint (v1-v3) read from `in`, seeds
  /// the vocabulary from it, and re-opens the windows at the checkpoint's
  /// window count; events of earlier windows are then skipped. In grow mode
  /// the node set restarts at the checkpoint's high-water mark. Call before
  /// the first Offer.
  [[nodiscard]] Status Resume(std::istream* in);

  /// Buckets one decoded event and adds it to the open window. Returns true
  /// when the event was fed, false when it was dropped (before start_time,
  /// already in the checkpoint, or rejected under kSkip). Under kStrict a
  /// rejection is returned as the error, without a location. Windows the
  /// event closed become pending; observe them all before the next Offer.
  [[nodiscard]] Result<bool> Offer(const TimestampedEvent& event);

  /// Windows closed but not yet observed.
  size_t pending_windows() const { return pending_.size() - next_pending_; }

  /// Observes the oldest pending window and formats its report rows.
  [[nodiscard]] Result<Window> ObserveNext();

  /// End of stream. IoError when a resumed session's checkpoint is ahead of
  /// every event offered (the stream and the checkpoint do not belong
  /// together). Otherwise the in-progress window becomes pending, so the
  /// final, possibly partial, snapshot is scored as the batch aggregation
  /// scores it; a resumed session that fed nothing has nothing to flush.
  [[nodiscard]] Status Finish();

  /// Writes the monitor checkpoint, carrying the vocabulary of a named
  /// stream (format v2/v3) so a resumed run renders the same names.
  [[nodiscard]] Status SaveCheckpoint(std::ostream* out);

  /// Where the caller's decoder interns endpoint names.
  NodeVocabulary* vocabulary() { return &vocab_; }

  const OnlineCadMonitor& monitor() const { return monitor_; }
  /// For attaching a stats reporter or evicting the solver cache; events
  /// must still go through Offer.
  OnlineCadMonitor* mutable_monitor() { return &monitor_; }

  bool resumed() const { return resumed_; }
  /// First window this session observes (the checkpoint's window count).
  size_t first_window() const { return first_window_; }
  /// Node-set high-water mark over the monitor and the open window.
  size_t num_nodes() const;
  const StreamEventCounts& counts() const { return counts_; }

 private:
  explicit StreamSession(StreamSessionOptions options);

  /// (Re)creates the aggregator at first_window_ and the current node set.
  [[nodiscard]] Status OpenWindows();
  /// The error policy for an event the windowing rejected.
  [[nodiscard]] Status Reject(const Status& error);

  StreamSessionOptions options_;
  OnlineCadMonitor monitor_;
  NodeVocabulary vocab_;
  std::optional<EventWindowAggregator> aggregator_;
  /// Closed windows; [next_pending_, size) are still to be observed.
  std::vector<WeightedGraph> pending_;
  size_t next_pending_ = 0;
  bool resumed_ = false;
  size_t first_window_ = 0;
  /// Highest window any event mapped to, including events skipped on
  /// resume: Finish's stale-checkpoint check compares it to first_window_.
  std::optional<size_t> max_window_seen_;
  StreamEventCounts counts_;
};

}  // namespace cad

#endif  // CAD_APP_STREAM_SESSION_H_
