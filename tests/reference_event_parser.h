#ifndef CAD_TESTS_REFERENCE_EVENT_PARSER_H_
#define CAD_TESTS_REFERENCE_EVENT_PARSER_H_

// Reference event-line parser for the ingestion tests.
//
// The straightforward formulation EventStreamReader must reproduce: split
// each line into a vector of strings with SplitTokens and read every number
// with ParseDouble/ParseInt64 (strtod/strtoll). The reader's in-place
// tokenizer and from_chars fast path have to accept exactly the lines this
// accepts, with bit-identical fields, the same error messages, and the same
// vocabulary in named mode. Endpoint ids past the 32-bit NodeId range are
// rejected here too.

#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/strings.h"
#include "graph/node_vocabulary.h"
#include "io/event_stream.h"

namespace cad {
namespace testing_reference {

inline bool LooksLikeIntegerId(const std::string& token) {
  Result<int64_t> value = ParseInt64(token);
  return value.ok() && *value >= 0;
}

[[nodiscard]] inline Result<TimestampedEvent> ParseEventLine(
    std::string_view line, size_t line_number, NodeVocabulary* vocabulary) {
  const auto error_at = [line_number](const std::string& message) {
    return Status::InvalidArgument("line " + std::to_string(line_number) +
                                   ": " + message);
  };
  const std::vector<std::string> fields = SplitTokens(line);
  if (fields.size() != 3 && fields.size() != 4) {
    return error_at("expected '<u> <v> <timestamp> [weight]'");
  }
  Result<double> timestamp = ParseDouble(fields[2]);
  if (!timestamp.ok()) return error_at("malformed event");
  if (!std::isfinite(*timestamp)) return error_at("non-finite timestamp");
  TimestampedEvent event;
  event.timestamp = *timestamp;
  if (fields.size() == 4) {
    Result<double> weight = ParseDouble(fields[3]);
    if (!weight.ok()) return error_at("malformed weight");
    if (!std::isfinite(*weight) || *weight < 0.0) {
      return error_at("weight must be finite and >= 0");
    }
    event.weight = *weight;
  }
  if (vocabulary == nullptr) {
    Result<int64_t> u = ParseInt64(fields[0]);
    Result<int64_t> v = ParseInt64(fields[1]);
    if (!u.ok() || !v.ok() || *u < 0 || *v < 0) {
      return error_at("malformed event");
    }
    constexpr int64_t kMaxId = std::numeric_limits<NodeId>::max();
    if (*u > kMaxId || *v > kMaxId) {
      return error_at("node id exceeds " + std::to_string(kMaxId));
    }
    event.u = static_cast<NodeId>(*u);
    event.v = static_cast<NodeId>(*v);
  } else {
    const Status valid_u = NodeVocabulary::ValidateNodeName(fields[0]);
    if (!valid_u.ok()) return error_at(valid_u.message());
    const Status valid_v = NodeVocabulary::ValidateNodeName(fields[1]);
    if (!valid_v.ok()) return error_at(valid_v.message());
    Result<NodeId> u = vocabulary->Intern(fields[0]);
    if (!u.ok()) return error_at(u.status().message());
    Result<NodeId> v = vocabulary->Intern(fields[1]);
    if (!v.ok()) return error_at(v.status().message());
    event.u = *u;
    event.v = *v;
  }
  return event;
}

/// EventStreamReader's line loop over the reference line parser: comments,
/// blank lines, kAuto commitment on the first data line (undone when that
/// line is rejected), and the error policy.
class EventReader {
 public:
  EventReader(std::istream* in, EventErrorPolicy policy,
              NodeVocabulary* vocabulary, EventIdMode id_mode)
      : in_(in), policy_(policy), vocabulary_(vocabulary), id_mode_(id_mode) {
    if (vocabulary_ == nullptr) id_mode_ = EventIdMode::kInteger;
  }

  [[nodiscard]] Result<std::optional<TimestampedEvent>> Next() {
    std::string line;
    while (std::getline(*in_, line)) {
      ++line_number_;
      const std::string_view stripped = StripWhitespace(line);
      if (stripped.empty() || stripped[0] == '#') continue;
      bool committed_this_line = false;
      if (id_mode_ == EventIdMode::kAuto) {
        const std::vector<std::string> fields = SplitTokens(stripped);
        id_mode_ = (fields.size() >= 2 && LooksLikeIntegerId(fields[0]) &&
                    LooksLikeIntegerId(fields[1]))
                       ? EventIdMode::kInteger
                       : EventIdMode::kNamed;
        committed_this_line = true;
      }
      Result<TimestampedEvent> event = ParseEventLine(
          stripped, line_number_,
          id_mode_ == EventIdMode::kNamed ? vocabulary_ : nullptr);
      if (event.ok()) return std::optional<TimestampedEvent>(*event);
      if (committed_this_line) id_mode_ = EventIdMode::kAuto;
      if (policy_ == EventErrorPolicy::kStrict) return event.status();
      ++events_rejected_;
    }
    return std::optional<TimestampedEvent>();
  }

  size_t line_number() const { return line_number_; }
  size_t events_rejected() const { return events_rejected_; }
  EventIdMode id_mode() const { return id_mode_; }

 private:
  std::istream* in_;
  EventErrorPolicy policy_;
  NodeVocabulary* vocabulary_;
  EventIdMode id_mode_;
  size_t line_number_ = 0;
  size_t events_rejected_ = 0;
};

/// Reads `text` with EventStreamReader and with the reference reader in
/// lockstep and returns the first difference, or "" when they agree on
/// every result (status code and message, or the event's fields bit for
/// bit), the line numbers, the rejected count, the resolved id mode and —
/// with `vocabulary` — the interned names.
inline std::string CompareWithReference(const std::string& text,
                                        EventErrorPolicy policy,
                                        bool vocabulary,
                                        EventIdMode id_mode) {
  std::istringstream in(text);
  std::istringstream reference_in(text);
  NodeVocabulary names;
  NodeVocabulary reference_names;
  EventStreamReader reader(&in, policy, vocabulary ? &names : nullptr,
                           id_mode);
  EventReader reference(&reference_in, policy,
                        vocabulary ? &reference_names : nullptr, id_mode);
  const auto bits = [](double value) { return std::bit_cast<uint64_t>(value); };
  for (size_t record = 0;; ++record) {
    const std::string at = "record " + std::to_string(record) + ": ";
    Result<std::optional<TimestampedEvent>> got = reader.Next();
    Result<std::optional<TimestampedEvent>> want = reference.Next();
    if (got.ok() != want.ok()) {
      return at + "status " + got.status().ToString() + " vs reference " +
             want.status().ToString();
    }
    if (reader.line_number() != reference.line_number()) {
      return at + "line " + std::to_string(reader.line_number()) +
             " vs reference " + std::to_string(reference.line_number());
    }
    if (!got.ok()) {
      if (got.status().code() != want.status().code() ||
          got.status().message() != want.status().message()) {
        return at + got.status().ToString() + " vs reference " +
               want.status().ToString();
      }
      break;
    }
    if (got->has_value() != want->has_value()) {
      return at + "end of stream differs";
    }
    if (!got->has_value()) break;
    const TimestampedEvent& a = **got;
    const TimestampedEvent& b = **want;
    if (a.u != b.u || a.v != b.v || bits(a.timestamp) != bits(b.timestamp) ||
        bits(a.weight) != bits(b.weight)) {
      return at + "fields differ on line " +
             std::to_string(reader.line_number());
    }
  }
  if (reader.events_rejected_parse() != reference.events_rejected()) {
    return "rejected " + std::to_string(reader.events_rejected_parse()) +
           " vs reference " + std::to_string(reference.events_rejected());
  }
  if (reader.id_mode() != reference.id_mode()) return "id mode differs";
  if (names.names() != reference_names.names()) return "vocabulary differs";
  return "";
}

}  // namespace testing_reference
}  // namespace cad

#endif  // CAD_TESTS_REFERENCE_EVENT_PARSER_H_
