#include "io/event_stream.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "obs/obs.h"

namespace cad {

namespace {

// Exclusive bound on the window indices EventWindowAggregator::WindowIndex
// returns. Guards the size_t cast against the overflow class of bugs: a
// timestamp far past the start or a tiny window length must fail loudly
// instead of opening ~2^64 windows.
constexpr double kMaxWindows = 1e12;

/// True when `token` parses as a non-negative integer, i.e. a valid dense
/// node id (used by EventIdMode::kAuto to commit a stream's id mode).
bool LooksLikeIntegerId(std::string_view token) {
  Result<int64_t> value = ParseInt64(token);
  return value.ok() && *value >= 0;
}

/// A data line's whitespace-separated tokens, viewed in place. Tokenizing
/// stops after kMaxTokens: a fifth token already makes the line malformed.
struct LineTokens {
  static constexpr size_t kMaxTokens = 5;
  std::string_view token[kMaxTokens];
  size_t count = 0;
};

/// std::isspace in the "C" locale (which the tools never change): space,
/// \t, \n, \v, \f and \r. Inline, since it runs on every byte.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Characters strtod and from_chars read alike in a plain decimal.
bool IsDecimalChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

/// Same separators as SplitTokens, without materializing a vector of
/// strings per line.
LineTokens TokenizeLine(std::string_view line) {
  LineTokens tokens;
  size_t i = 0;
  while (tokens.count < LineTokens::kMaxTokens) {
    while (i < line.size() && IsSpace(line[i])) ++i;
    if (i == line.size()) break;
    const size_t start = i;
    while (i < line.size() && !IsSpace(line[i])) ++i;
    tokens.token[tokens.count++] = line.substr(start, i - start);
  }
  return tokens;
}

/// ParseDouble for one token. Plain decimals take std::from_chars, which
/// rounds exactly as strtod does; every token the fast path is not certain
/// to read identically goes to ParseDouble, so the accepted set and the
/// parsed bits are unchanged. That covers a leading '+', hex, inf/nan and
/// any character outside [0-9.eE+-] (from_chars and strtod disagree on
/// those), any from_chars failure, and results where glibc's strtod reports
/// ERANGE: subnormals, and zero from nonzero digits.
Result<double> ParseDoubleToken(std::string_view token) {
  const char* end = token.data() + token.size();
  // Unsigned integers below 10^15 (counts, unix seconds) are exact doubles,
  // so the cheaper integer read gives strtod's result.
  if (!token.empty() && token.size() < 16 &&
      std::all_of(token.begin(), token.end(),
                  [](char c) { return c >= '0' && c <= '9'; })) {
    uint64_t integer = 0;
    std::from_chars(token.data(), end, integer);
    return static_cast<double>(integer);
  }
  if (!token.empty() && token.front() != '+' &&
      std::all_of(token.begin(), token.end(), IsDecimalChar)) {
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc() && ptr == end) {
      const bool underflow =
          std::fpclassify(value) == FP_SUBNORMAL ||
          (value == 0.0 &&
           token.find_first_of("123456789") != std::string_view::npos);
      if (!underflow) return value;
    }
  }
  return ParseDouble(token);
}

/// ParseInt64 for one token: std::from_chars reads the same base-10 grammar
/// as strtoll except a leading '+', and reports overflow as an error, so
/// anything it does not consume whole goes to ParseInt64.
Result<int64_t> ParseInt64Token(std::string_view token) {
  int64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc() && ptr == end) return value;
  return ParseInt64(token);
}

/// Parses the tokens of one non-blank, non-comment line of the event
/// format, then hands the fields to `decoder`. The timestamp is checked here
/// before the weight token is read, so a line with both defects reports its
/// timestamp, as the reference parser does.
Result<TimestampedEvent> ParseEventLine(const LineTokens& fields,
                                        size_t line_number,
                                        EventDecoder* decoder) {
  const auto error_at = [line_number](const std::string& message) {
    return Status::InvalidArgument("line " + std::to_string(line_number) +
                                   ": " + message);
  };
  if (fields.count != 3 && fields.count != 4) {
    return error_at("expected '<u> <v> <timestamp> [weight]'");
  }
  Result<double> timestamp = ParseDoubleToken(fields.token[2]);
  if (!timestamp.ok()) {
    return error_at("malformed event");
  }
  if (!std::isfinite(*timestamp)) {
    return error_at("non-finite timestamp");
  }
  double weight = 1.0;
  if (fields.count == 4) {
    Result<double> parsed_weight = ParseDoubleToken(fields.token[3]);
    if (!parsed_weight.ok()) {
      return error_at("malformed weight");
    }
    weight = *parsed_weight;
  }
  Result<TimestampedEvent> event =
      decoder->Decode(fields.token[0], fields.token[1], *timestamp, weight);
  if (!event.ok()) return error_at(event.status().message());
  return event;
}

}  // namespace

Result<TemporalGraphSequence> AggregateEventStream(
    const std::vector<TimestampedEvent>& events, double window_length) {
  // Window 0 starts at the earliest event, so a non-finite timestamp is
  // rejected before it can become the start.
  double start = events.empty() ? 0.0 : events.front().timestamp;
  for (const TimestampedEvent& event : events) {
    if (!std::isfinite(event.timestamp)) {
      return Status::InvalidArgument("non-finite timestamp");
    }
    start = std::min(start, event.timestamp);
  }
  EventWindowOptions options;
  options.window_length = window_length;
  options.start_time = start;
  options.grow_nodes = true;
  Result<EventWindowAggregator> aggregator =
      EventWindowAggregator::Create(options);
  if (!aggregator.ok()) return aggregator.status();

  // (window, input index) per event. The aggregator takes events in window
  // order; a stable sort keeps each window's events in input order, so
  // their weights are summed in that order.
  std::vector<std::pair<size_t, size_t>> order(events.size());
  bool in_order = true;
  for (size_t i = 0; i < events.size(); ++i) {
    CAD_ASSIGN_OR_RETURN(order[i].first,
                         aggregator->WindowIndex(events[i].timestamp));
    order[i].second = i;
    in_order = in_order && (i == 0 || order[i - 1].first <= order[i].first);
  }
  if (!in_order) {
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }

  TemporalGraphSequence sequence;
  std::vector<WeightedGraph> completed;
  for (const auto& [window, index] : order) {
    completed.clear();
    CAD_RETURN_NOT_OK(aggregator->Add(events[index], window, &completed));
    for (WeightedGraph& snapshot : completed) {
      CAD_RETURN_NOT_OK(sequence.AppendGrowing(std::move(snapshot)));
    }
  }
  CAD_RETURN_NOT_OK(sequence.AppendGrowing(aggregator->Flush()));
  return sequence;
}

EventDecoder::EventDecoder(NodeVocabulary* vocabulary, EventIdMode id_mode)
    : vocabulary_(vocabulary), id_mode_(id_mode) {
  // Named interpretation needs somewhere to put the names.
  if (vocabulary_ == nullptr) id_mode_ = EventIdMode::kInteger;
}

Result<TimestampedEvent> EventDecoder::Decode(std::string_view u,
                                              std::string_view v,
                                              double timestamp,
                                              double weight) {
  if (!std::isfinite(timestamp)) {
    return Status::InvalidArgument("non-finite timestamp");
  }
  if (!std::isfinite(weight) || weight < 0.0) {
    return Status::InvalidArgument("weight must be finite and >= 0");
  }
  TimestampedEvent event;
  event.timestamp = timestamp;
  event.weight = weight;
  // Commit the stream's id mode on its first record so every later record
  // is interpreted consistently (a numeric token in a named stream is a
  // name; an alphabetic token in an integer stream is malformed).
  const bool named = id_mode_ == EventIdMode::kNamed ||
                     (id_mode_ == EventIdMode::kAuto &&
                      !(LooksLikeIntegerId(u) && LooksLikeIntegerId(v)));
  if (!named) {
    Result<int64_t> u_id = ParseInt64Token(u);
    Result<int64_t> v_id = ParseInt64Token(v);
    if (!u_id.ok() || !v_id.ok() || *u_id < 0 || *v_id < 0) {
      return Status::InvalidArgument("malformed event");
    }
    constexpr int64_t kMaxId = std::numeric_limits<NodeId>::max();
    if (*u_id > kMaxId || *v_id > kMaxId) {
      return Status::InvalidArgument("node id exceeds " +
                                     std::to_string(kMaxId));
    }
    event.u = static_cast<NodeId>(*u_id);
    event.v = static_cast<NodeId>(*v_id);
  } else {
    // Validate both names before interning either, so a record rejected on
    // its second endpoint leaves the vocabulary untouched.
    CAD_RETURN_NOT_OK(NodeVocabulary::ValidateNodeName(u));
    CAD_RETURN_NOT_OK(NodeVocabulary::ValidateNodeName(v));
    CAD_ASSIGN_OR_RETURN(event.u, vocabulary_->Intern(u));
    CAD_ASSIGN_OR_RETURN(event.v, vocabulary_->Intern(v));
  }
  // Only an accepted record commits the mode: a rejected one interned
  // nothing, so the next well-formed record should decide.
  if (id_mode_ == EventIdMode::kAuto) {
    id_mode_ = named ? EventIdMode::kNamed : EventIdMode::kInteger;
  }
  return event;
}

EventStreamReader::EventStreamReader(std::istream* in,
                                     EventErrorPolicy policy,
                                     NodeVocabulary* vocabulary,
                                     EventIdMode id_mode)
    : in_(in), policy_(policy), decoder_(vocabulary, id_mode) {
  CAD_CHECK(in != nullptr);
}

Result<std::optional<TimestampedEvent>> EventStreamReader::Next() {
  while (std::getline(*in_, line_)) {
    ++line_number_;
    const LineTokens fields = TokenizeLine(line_);
    if (fields.count == 0 || fields.token[0].front() == '#') continue;
    Result<TimestampedEvent> event =
        ParseEventLine(fields, line_number_, &decoder_);
    if (event.ok()) {
      return std::optional<TimestampedEvent>(*event);
    }
    if (policy_ == EventErrorPolicy::kStrict) {
      return event.status();
    }
    ++events_rejected_parse_;
  }
  // getline stopped: distinguish clean EOF from a mid-file read failure,
  // which would otherwise silently truncate the stream.
  if (in_->bad()) {
    return Status::IoError("event stream read failed at line " +
                           std::to_string(line_number_));
  }
  return std::optional<TimestampedEvent>();
}

Result<std::vector<TimestampedEvent>> ReadEventStream(
    std::istream* in, EventErrorPolicy policy, size_t* events_rejected,
    NodeVocabulary* vocabulary, EventIdMode id_mode) {
  EventStreamReader reader(in, policy, vocabulary, id_mode);
  std::vector<TimestampedEvent> events;
  while (true) {
    std::optional<TimestampedEvent> event;
    CAD_ASSIGN_OR_RETURN(event, reader.Next());
    if (!event.has_value()) break;
    events.push_back(*event);
  }
  const size_t rejected = reader.events_rejected_parse();
  if (rejected > 0) {
    CAD_METRIC_ADD("io.events_rejected_parse", rejected);
    CAD_METRIC_ADD("io.events_rejected", rejected);
  }
  if (events_rejected != nullptr) *events_rejected = rejected;
  return events;
}

Result<std::vector<TimestampedEvent>> ReadEventStreamFile(
    const std::string& path, EventErrorPolicy policy, size_t* events_rejected,
    NodeVocabulary* vocabulary, EventIdMode id_mode) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  return ReadEventStream(&file, policy, events_rejected, vocabulary, id_mode);
}

Result<EventWindowAggregator> EventWindowAggregator::Create(
    const EventWindowOptions& options) {
  if (!(options.window_length > 0.0) ||
      !std::isfinite(options.window_length)) {
    return Status::InvalidArgument("window_length must be positive");
  }
  if (!std::isfinite(options.start_time)) {
    return Status::InvalidArgument("start_time must be finite");
  }
  if (options.num_nodes == 0 && !options.grow_nodes) {
    return Status::InvalidArgument("num_nodes must be > 0 unless grow_nodes");
  }
  return EventWindowAggregator(options);
}

Result<size_t> EventWindowAggregator::WindowIndex(double timestamp) const {
  if (!std::isfinite(timestamp)) {
    return Status::InvalidArgument("non-finite timestamp");
  }
  const double offset = timestamp - options_.start_time;
  if (offset < 0.0) {
    return Status::InvalidArgument("timestamp precedes start_time");
  }
  const double span = offset / options_.window_length;
  if (!(span < kMaxWindows)) {
    return Status::InvalidArgument("timestamp too far past start_time");
  }
  return static_cast<size_t>(std::floor(span));
}

Status EventWindowAggregator::ValidateEvent(
    const TimestampedEvent& event) const {
  if (event.u == event.v) {
    return Status::InvalidArgument("self-loop event at node " +
                                   std::to_string(event.u));
  }
  if (!options_.grow_nodes &&
      (event.u >= current_.num_nodes() || event.v >= current_.num_nodes())) {
    return Status::OutOfRange("event endpoint exceeds num_nodes");
  }
  if (!std::isfinite(event.weight) || event.weight < 0.0) {
    return Status::InvalidArgument("event weight must be finite and >= 0");
  }
  return Status::OK();
}

Status EventWindowAggregator::Add(const TimestampedEvent& event,
                                  std::vector<WeightedGraph>* completed) {
  Result<size_t> window = WindowIndex(event.timestamp);
  if (!window.ok()) {
    // A malformed event reports its own defect before its timestamp's.
    CAD_RETURN_NOT_OK(ValidateEvent(event));
    return window.status();
  }
  return Add(event, *window, completed);
}

Status EventWindowAggregator::Add(const TimestampedEvent& event, size_t window,
                                  std::vector<WeightedGraph>* completed) {
  CAD_CHECK(completed != nullptr);
  CAD_RETURN_NOT_OK(ValidateEvent(event));
  if (window < current_window_) {
    return Status::InvalidArgument(
        "out-of-order event: window " + std::to_string(window) +
        " while window " + std::to_string(current_window_) + " is open");
  }
  while (current_window_ < window) {
    // A snapshot closes at the size the node set had reached; the set never
    // shrinks, so later windows (and monitors growing their previous
    // snapshot) see non-decreasing sizes.
    const size_t nodes_at_close = current_.num_nodes();
    completed->push_back(std::move(current_));
    current_ = WeightedGraph(nodes_at_close);
    ++current_window_;
  }
  if (options_.grow_nodes) {
    const size_t needed =
        static_cast<size_t>(std::max(event.u, event.v)) + size_t{1};
    if (needed > current_.num_nodes()) {
      CAD_RETURN_NOT_OK(current_.GrowTo(needed));
    }
  }
  return current_.AddEdgeWeight(event.u, event.v, event.weight);
}

WeightedGraph EventWindowAggregator::Flush() {
  const size_t nodes_at_close = current_.num_nodes();
  WeightedGraph closed = std::move(current_);
  current_ = WeightedGraph(nodes_at_close);
  ++current_window_;
  return closed;
}

}  // namespace cad
