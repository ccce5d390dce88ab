#ifndef CAD_IO_EVENT_STREAM_H_
#define CAD_IO_EVENT_STREAM_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/node_vocabulary.h"
#include "graph/temporal_graph.h"

namespace cad {

/// \brief One timestamped interaction (an email, a co-authored paper, a
/// message) between two nodes.
struct TimestampedEvent {
  NodeId u = 0;
  NodeId v = 0;
  double timestamp = 0.0;
  /// Contribution to the edge weight of its window (emails: 1 each).
  double weight = 1.0;
};

/// \brief Aggregates events into a TemporalGraphSequence: each event adds
/// its weight to edge {u, v} of the window containing its timestamp. Window 0
/// starts at the earliest event, and the node set is the discovered one
/// (max endpoint + 1). The windows are built by a grow-mode
/// EventWindowAggregator, so the validation and bucketing are the streaming
/// path's: events need not be in time order, but each window's events are
/// summed in input order. An empty stream gives one empty window over no
/// nodes. Self-loop events are rejected (InvalidArgument), as are
/// non-positive window lengths, events with non-finite fields or negative
/// weights, and spans of 1e12 windows or more.
[[nodiscard]] Result<TemporalGraphSequence> AggregateEventStream(
    const std::vector<TimestampedEvent>& events, double window_length);

/// \brief Per-record failure handling for streaming ingestion.
enum class EventErrorPolicy {
  /// Fail fast: the first malformed record aborts the read with a
  /// line-numbered error (the historical behavior).
  kStrict,
  /// Drop-and-count: malformed records are skipped and counted so operators
  /// can alert on rejection rates (the `io.events_rejected*` metrics)
  /// instead of losing the whole stream.
  kSkip,
};

/// \brief How event endpoint tokens are interpreted (DESIGN.md §8). The
/// values are persisted (server tenant checkpoints); do not renumber.
enum class EventIdMode {
  /// Decide from the first data line: if both endpoint tokens parse as
  /// non-negative integers the stream is integer-keyed, otherwise named.
  /// Without a vocabulary the reader is always integer-keyed.
  kAuto,
  /// Endpoints are dense integer ids (the historical format).
  kInteger,
  /// Every endpoint token — numeric-looking or not — is interned into the
  /// vocabulary in first-appearance order.
  kNamed,
};

/// \brief The record step of EventStreamReader, for callers whose records
/// arrive already split into endpoints, timestamp and weight (the server's
/// wire events). Decode commits the id mode on the first record it sees,
/// validates every field, and only then interns names. A rejected record
/// leaves both the vocabulary and the id mode as they were, so garbage
/// neither pollutes the vocabulary nor locks the mode.
class EventDecoder {
 public:
  /// Without a vocabulary the decoder is always integer-keyed.
  explicit EventDecoder(NodeVocabulary* vocabulary = nullptr,
                        EventIdMode id_mode = EventIdMode::kAuto);

  /// One record. Malformed fields are InvalidArgument with the reader's
  /// messages ("malformed event", "node id exceeds ...", ...), without a
  /// location: the caller knows where the record came from.
  [[nodiscard]] Result<TimestampedEvent> Decode(std::string_view u,
                                                std::string_view v,
                                                double timestamp,
                                                double weight);

  /// The resolved id mode: kAuto until the first accepted record commits it.
  EventIdMode id_mode() const { return id_mode_; }

 private:
  NodeVocabulary* vocabulary_;
  EventIdMode id_mode_;
};

/// \brief Incremental reader for the event text format:
///
///   # comment lines start with '#', blank lines are ignored
///   <u> <v> <timestamp> [weight]
///
/// Fields are separated by runs of whitespace. Records with missing/extra
/// fields, unparsable numbers, negative ids or ids past the 32-bit NodeId
/// range, non-finite timestamps or weights, or negative weights are
/// malformed; EventErrorPolicy decides whether they abort the read or are
/// counted and skipped. Unlike the bulk ReadEventStream, the reader holds
/// one record at a time, so arbitrarily long streams can be consumed in O(1)
/// memory.
///
/// With a vocabulary attached, endpoint tokens are interned as string names
/// per EventIdMode. Each line's fields go through an EventDecoder, so
/// rejected lines never pollute the vocabulary. The caller owns the
/// vocabulary; replaying a stream prefix reproduces a vocabulary prefix,
/// which is what makes checkpoint resume of named streams exact.
class EventStreamReader {
 public:
  explicit EventStreamReader(
      std::istream* in, EventErrorPolicy policy = EventErrorPolicy::kStrict,
      NodeVocabulary* vocabulary = nullptr,
      EventIdMode id_mode = EventIdMode::kAuto);

  /// The next well-formed event, or nullopt at end of stream. A mid-file
  /// read failure (stream badbit) reports IoError rather than a silent
  /// truncation at EOF.
  [[nodiscard]] Result<std::optional<TimestampedEvent>> Next();

  /// 1-based line number of the most recently consumed line.
  size_t line_number() const { return line_number_; }

  /// Records dropped so far under EventErrorPolicy::kSkip because they
  /// failed to parse. The reader records no metric itself: its caller
  /// reports the count as `io.events_rejected_parse` (ReadEventStream at the
  /// end, a stream session with the window the records fell in). Range
  /// rejections happen downstream, at the window aggregator.
  size_t events_rejected_parse() const { return events_rejected_parse_; }

  /// The resolved id mode: kAuto until the first data line commits it.
  EventIdMode id_mode() const { return decoder_.id_mode(); }

 private:
  std::istream* in_;
  EventErrorPolicy policy_;
  EventDecoder decoder_;
  // Reused across Next() calls so reading a line allocates only when it is
  // longer than every line before it.
  std::string line_;
  size_t line_number_ = 0;
  size_t events_rejected_parse_ = 0;
};

/// Reads a whole stream in the text format (see EventStreamReader) under
/// `policy`; strict by default, so the first malformed line aborts with a
/// line-numbered error. Under kSkip, `*events_rejected` (optional) receives
/// the dropped-record count. With a vocabulary, endpoint tokens are
/// interpreted per `id_mode` (auto-detected from the first data line by
/// default), interning names into `*vocabulary` in first-appearance order;
/// integer-keyed streams leave it empty.
[[nodiscard]] Result<std::vector<TimestampedEvent>> ReadEventStream(
    std::istream* in, EventErrorPolicy policy = EventErrorPolicy::kStrict,
    size_t* events_rejected = nullptr, NodeVocabulary* vocabulary = nullptr,
    EventIdMode id_mode = EventIdMode::kAuto);

/// File variant of ReadEventStream.
[[nodiscard]] Result<std::vector<TimestampedEvent>> ReadEventStreamFile(
    const std::string& path,
    EventErrorPolicy policy = EventErrorPolicy::kStrict,
    size_t* events_rejected = nullptr, NodeVocabulary* vocabulary = nullptr,
    EventIdMode id_mode = EventIdMode::kAuto);

/// \brief Configuration for EventWindowAggregator.
struct EventWindowOptions {
  /// Window length in timestamp units. Must be positive and finite.
  double window_length = 1.0;
  /// Start of window 0. Must be finite (streaming cannot infer it after the
  /// fact; infer from the first event before constructing if needed).
  double start_time = 0.0;
  /// Node-set size of the first emitted snapshot. Must be > 0 unless
  /// `grow_nodes` is set, in which case 0 means "start empty and discover".
  size_t num_nodes = 0;
  /// Index of the first window to materialize; events in earlier windows
  /// are rejected by Add. Used to resume a stream from a checkpoint.
  size_t first_window = 0;
  /// When true the node set is discovered rather than declared: an event
  /// endpoint past the current size grows the open window instead of being
  /// rejected as out of range. Emitted snapshot sizes are non-decreasing
  /// (each window keeps the size the node set had when it closed); consumers
  /// that need a fixed size grow earlier snapshots afterwards.
  bool grow_nodes = false;
};

/// \brief The window builder for events: feed time-ordered events one at a
/// time; each window's snapshot is emitted as soon as an event lands past its
/// end, so only the one in-progress window is held in memory. Window t holds
/// the events with floor((timestamp - start_time) / window_length) == t.
/// cad_stream and server tenants drive it live; AggregateEventStream drives
/// it over a whole event vector.
class EventWindowAggregator {
 public:
  /// Validates options. InvalidArgument on a non-positive/non-finite window
  /// length, non-finite start, or zero node count without `grow_nodes`.
  [[nodiscard]] static Result<EventWindowAggregator> Create(
      const EventWindowOptions& options);

  /// Window index containing `timestamp`. InvalidArgument for timestamps
  /// before start_time, non-finite, or 1e12 or more windows past it.
  [[nodiscard]] Result<size_t> WindowIndex(double timestamp) const;

  /// Feeds one event. Windows that closed strictly before the event's
  /// window are appended to `*completed` in order (possibly none, possibly
  /// several empty ones for quiet periods). Malformed events (self-loop,
  /// endpoint >= num_nodes, non-finite fields, negative weight) and events
  /// before the current open window (out of order, or before first_window)
  /// return InvalidArgument without consuming the event — the caller's
  /// error policy decides whether that is fatal.
  [[nodiscard]] Status Add(const TimestampedEvent& event,
                           std::vector<WeightedGraph>* completed);

  /// Add for a caller that already computed the event's window, which must
  /// be WindowIndex(event.timestamp); saves bucketing the timestamp twice.
  [[nodiscard]] Status Add(const TimestampedEvent& event, size_t window,
                           std::vector<WeightedGraph>* completed);

  /// Closes and returns the in-progress window (the final, possibly
  /// partial, snapshot). The aggregator then continues with the next
  /// window index.
  WeightedGraph Flush();

  /// Index of the currently open window.
  size_t current_window() const { return current_window_; }

  /// Current node-set size (grows under EventWindowOptions::grow_nodes).
  size_t num_nodes() const { return current_.num_nodes(); }

 private:
  explicit EventWindowAggregator(const EventWindowOptions& options)
      : options_(options),
        current_window_(options.first_window),
        current_(WeightedGraph(options.num_nodes)) {}

  /// The per-event checks of Add: self-loop, endpoint range, weight.
  [[nodiscard]] Status ValidateEvent(const TimestampedEvent& event) const;

  EventWindowOptions options_;
  size_t current_window_;
  WeightedGraph current_;
};

}  // namespace cad

#endif  // CAD_IO_EVENT_STREAM_H_
