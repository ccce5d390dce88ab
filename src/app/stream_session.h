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
#include "graph/snapshot.h"
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
  /// Malformed records a text reader dropped under kSkip before they became
  /// events (cad_stream's; tenants count their decoder's rejections apart).
  uint64_t rejected_parse = 0;
  /// Rejected under kSkip: an endpoint past a fixed node set.
  uint64_t rejected_range = 0;
  /// Rejected under kSkip for any other reason (a timestamp too far out, a
  /// self-loop, an event older than the open window).
  uint64_t rejected_other = 0;

  bool operator==(const StreamEventCounts& other) const = default;
  StreamEventCounts& operator+=(const StreamEventCounts& other);
  /// Field-wise difference; `earlier` must be a prefix of these counts.
  StreamEventCounts Since(const StreamEventCounts& earlier) const;
};

/// What the intake half saw between two hand-offs to the observe half.
struct IntakeTally {
  /// Names interned since the previous hand-off, in id order.
  std::vector<std::string> new_names;
  StreamEventCounts counts;
  /// Windows the last fed event closed, when an event was fed since the
  /// previous hand-off: the value of cad_stream's `stream.queue_depth`.
  std::optional<size_t> queue_depth;
};

/// A closed window as the intake half hands it to the observe half.
struct ClosedWindow {
  Snapshot snapshot;
  /// Everything intake saw from the previous hand-off up to and including
  /// the event that closed this window.
  IntakeTally tally;
};

/// \brief The intake half of a stream session: buckets decoded events into
/// windows and turns each closed window into a Snapshot. It owns the window
/// aggregator, the vocabulary the caller's decoder interns into, and the
/// live event counts. Only tallies and closed windows leave it, so it can
/// run on its own thread ahead of the observe half.
class StreamIntake {
 public:
  /// Buckets one decoded event and adds it to the open window. Returns true
  /// when the event was fed, false when it was dropped (before start_time,
  /// already in the checkpoint, or rejected under kSkip). Under kStrict a
  /// rejection is returned as the error, without a location. Windows the
  /// event closed become closed_windows(); take them all before the next
  /// Offer.
  [[nodiscard]] Result<bool> Offer(const TimestampedEvent& event);

  /// Counts records the front end's text reader dropped under kSkip, so
  /// they travel with the window they fell in.
  void AddParseRejections(uint64_t count) { counts_.rejected_parse += count; }

  /// Windows closed but not yet taken.
  size_t closed_windows() const { return closed_.size() - next_closed_; }

  /// The oldest closed window as a Snapshot, with the tally up to now. Its
  /// hash map is released here, so it is never held through a solve.
  ClosedWindow TakeClosedWindow();

  /// Everything seen since the previous hand-off, without a window: what
  /// remains at the end of the stream.
  IntakeTally TakeTally();

  /// End of stream. IoError when a resumed session's checkpoint is ahead of
  /// every event offered (the stream and the checkpoint do not belong
  /// together). Otherwise the in-progress window is closed, so the final,
  /// possibly partial, snapshot is scored as the batch aggregation scores
  /// it; a resumed session that fed nothing has nothing to close.
  [[nodiscard]] Status Finish();

  /// Where the caller's decoder interns endpoint names.
  NodeVocabulary* vocabulary() { return &vocab_; }
  /// Live totals, per event.
  const StreamEventCounts& counts() const { return counts_; }
  /// Node-set size of the open window.
  size_t num_nodes() const { return aggregator_->num_nodes(); }

 private:
  friend class StreamSession;

  explicit StreamIntake(const StreamSessionOptions& options);

  /// (Re)creates the aggregator at first_window_ on `num_nodes` nodes (the
  /// starting size in grow mode).
  [[nodiscard]] Status OpenWindows(size_t num_nodes);
  /// The error policy for an event the windowing rejected.
  [[nodiscard]] Status Reject(const Status& error);

  double window_length_;
  double start_time_;
  size_t fixed_num_nodes_;
  EventErrorPolicy error_policy_;
  NodeVocabulary vocab_;
  std::optional<EventWindowAggregator> aggregator_;
  /// Closed windows; [next_closed_, size) are still to be taken.
  std::vector<WeightedGraph> closed_;
  size_t next_closed_ = 0;
  bool resumed_ = false;
  size_t first_window_ = 0;
  /// Highest window any event mapped to, including events skipped on
  /// resume: Finish's stale-checkpoint check compares it to first_window_.
  std::optional<size_t> max_window_seen_;
  StreamEventCounts counts_;
  /// counts_ and the vocabulary size at the previous hand-off.
  StreamEventCounts handed_counts_;
  size_t handed_names_ = 0;
  std::optional<size_t> queue_depth_;
};

/// \brief The observe half of a stream session: feeds each closed window to
/// the monitor, formats its report rows and says when a checkpoint is due.
/// It keeps its own copy of the vocabulary (for labels and checkpoints) and
/// the event counts as of the last window it observed, both built from the
/// tallies intake hands over, so nothing intake has read beyond that window
/// shows in its output. The `io.events_rejected*` metrics are recorded here,
/// from the tallies, just before the window they came with is observed.
class StreamObserver {
 public:
  /// Report rows and checkpoint cadence of one observed window.
  struct Window {
    /// One CSV row per reported edge, without newlines.
    std::vector<std::string> report_rows;
    /// The window count reached a multiple of checkpoint_every.
    bool checkpoint_due = false;
  };

  /// Absorbs the window's tally, then observes it and formats its rows.
  [[nodiscard]] Result<Window> Observe(ClosedWindow window);

  /// Absorbs a tally that came without a window (the end of the stream).
  void Absorb(IntakeTally tally);

  /// Writes the monitor checkpoint, carrying the vocabulary of a named
  /// stream (format v2/v3) so a resumed run renders the same names.
  [[nodiscard]] Status SaveCheckpoint(std::ostream* out) const;

  const OnlineCadMonitor& monitor() const { return monitor_; }
  /// For attaching a stats reporter or evicting the solver cache; windows
  /// must still go through Observe.
  OnlineCadMonitor* mutable_monitor() { return &monitor_; }
  /// Event counts as of the last absorbed tally.
  const StreamEventCounts& counts() const { return counts_; }

 private:
  friend class StreamSession;

  explicit StreamObserver(const StreamSessionOptions& options);

  OnlineCadMonitor monitor_;
  size_t checkpoint_every_;
  NodeVocabulary vocab_;
  StreamEventCounts counts_;
};

/// \brief The online loop of the paper's §4.2 behind both stream front ends
/// (`cad_stream` and the server's tenants), as two halves that share no
/// state once the session is set up: a StreamIntake that windows decoded
/// events, and a StreamObserver that observes the closed windows. Front
/// ends keep their input format, timing, and where report rows and
/// checkpoints go. A tenant drives both halves on its one worker thread:
///
///   for each decoded event:
///     session.intake()->Offer(event)
///     while (session.intake()->closed_windows() > 0)
///       handle(session.ObserveNext())
///   session.intake()->Finish(), observe the closed windows the same way,
///   then session.observer()->Absorb(session.intake()->TakeTally())
///
/// cad_stream runs the halves on two threads (RunStreamPipeline).
class StreamSession {
 public:
  using Window = StreamObserver::Window;

  /// A fresh session. InvalidArgument on a non-positive or non-finite
  /// window length, a non-finite start time, or a negative or NaN target
  /// (checked here so a bad --l is an error, not a CHECK at window one).
  [[nodiscard]] static Result<StreamSession> Create(
      StreamSessionOptions options);

  /// Restores the monitor from a checkpoint (v1-v3) read from `in`, seeds
  /// both vocabularies from it, and re-opens the windows at the
  /// checkpoint's window count; events of earlier windows are then skipped.
  /// In grow mode the node set restarts at the checkpoint's high-water
  /// mark. Call before the first Offer.
  [[nodiscard]] Status Resume(std::istream* in);

  StreamIntake* intake() { return &intake_; }
  StreamObserver* observer() { return &observer_; }

  /// Takes the oldest closed window and observes it (single-thread use).
  [[nodiscard]] Result<Window> ObserveNext() {
    return observer_.Observe(intake_.TakeClosedWindow());
  }

  const StreamSessionOptions& options() const { return options_; }
  bool resumed() const { return intake_.resumed_; }
  /// First window this session observes (the checkpoint's window count).
  size_t first_window() const { return intake_.first_window_; }
  /// Node-set high-water mark over the monitor and the open window. Reads
  /// both halves: not while they run on separate threads.
  size_t num_nodes() const;

 private:
  explicit StreamSession(StreamSessionOptions options);

  StreamSessionOptions options_;
  StreamIntake intake_;
  StreamObserver observer_;
};

}  // namespace cad

#endif  // CAD_APP_STREAM_SESSION_H_
