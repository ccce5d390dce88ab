#include "io/event_stream.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reference_event_parser.h"

namespace cad {
namespace {

TimestampedEvent Event(NodeId u, NodeId v, double t, double w = 1.0) {
  TimestampedEvent event;
  event.u = u;
  event.v = v;
  event.timestamp = t;
  event.weight = w;
  return event;
}

TEST(AggregateEventStreamTest, BucketsByWindow) {
  const std::vector<TimestampedEvent> events = {
      Event(0, 1, 0.0), Event(0, 1, 0.5), Event(1, 2, 1.2), Event(0, 2, 2.9)};
  auto sequence = AggregateEventStream(events, 1.0);
  ASSERT_TRUE(sequence.ok());
  ASSERT_EQ(sequence->num_snapshots(), 3u);
  EXPECT_EQ(sequence->num_nodes(), 3u);
  EXPECT_EQ(sequence->Snapshot(0).EdgeWeight(0, 1), 2.0);  // two events
  EXPECT_EQ(sequence->Snapshot(1).EdgeWeight(1, 2), 1.0);
  EXPECT_EQ(sequence->Snapshot(2).EdgeWeight(0, 2), 1.0);
}

TEST(AggregateEventStreamTest, CustomWeightsAccumulate) {
  const std::vector<TimestampedEvent> events = {Event(0, 1, 0.0, 2.5),
                                                Event(1, 0, 0.1, 1.5)};
  auto sequence = AggregateEventStream(events, 1.0);
  ASSERT_TRUE(sequence.ok());
  EXPECT_EQ(sequence->Snapshot(0).EdgeWeight(0, 1), 4.0);  // undirected sum
}

TEST(AggregateEventStreamTest, EmptyStream) {
  auto sequence = AggregateEventStream({}, 1.0);
  ASSERT_TRUE(sequence.ok());
  EXPECT_EQ(sequence->num_snapshots(), 1u);
  EXPECT_EQ(sequence->num_nodes(), 0u);
}

TEST(AggregateEventStreamTest, RejectsBadInput) {
  EXPECT_FALSE(AggregateEventStream({}, 0.0).ok());
  EXPECT_FALSE(AggregateEventStream({Event(1, 1, 0.0)}, 1.0).ok());
  TimestampedEvent bad = Event(0, 1, 0.0);
  bad.weight = -1.0;
  EXPECT_FALSE(AggregateEventStream({bad}, 1.0).ok());
}

// Events need not arrive in time order: the node set is discovered from
// every endpoint, and each window sums its events in input order, not in
// time order.
TEST(AggregateEventStreamTest, OutOfOrderEventsSumInInputOrder) {
  const std::vector<TimestampedEvent> events = {
      Event(2, 5, 3.5), Event(0, 1, 0.7, 1e16), Event(1, 2, 3.9),
      Event(0, 1, 0.0, 1.0), Event(0, 1, 0.5, 1.0)};
  auto sequence = AggregateEventStream(events, 1.0);
  ASSERT_TRUE(sequence.ok());
  ASSERT_EQ(sequence->num_snapshots(), 4u);
  EXPECT_EQ(sequence->num_nodes(), 6u);
  // (1e16 + 1) + 1 rounds to 1e16; the time-ordered (1 + 1) + 1e16 would not.
  EXPECT_EQ(sequence->Snapshot(0).EdgeWeight(0, 1), 1e16);
  EXPECT_EQ(sequence->Snapshot(1).num_edges(), 0u);
  EXPECT_EQ(sequence->Snapshot(3).EdgeWeight(2, 5), 1.0);
  EXPECT_EQ(sequence->Snapshot(3).EdgeWeight(1, 2), 1.0);
}

TEST(ReadEventStreamTest, ParsesFormats) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "0 1 10.5\n"
      "2  3   11.0  2.5\n");
  auto events = ReadEventStream(&in);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].u, 0u);
  EXPECT_EQ((*events)[0].v, 1u);
  EXPECT_DOUBLE_EQ((*events)[0].timestamp, 10.5);
  EXPECT_DOUBLE_EQ((*events)[0].weight, 1.0);
  EXPECT_DOUBLE_EQ((*events)[1].weight, 2.5);
}

TEST(ReadEventStreamTest, RejectsMalformedLines) {
  std::istringstream missing("0 1\n");
  EXPECT_FALSE(ReadEventStream(&missing).ok());
  std::istringstream garbage("a b c\n");
  EXPECT_FALSE(ReadEventStream(&garbage).ok());
  std::istringstream negative("-1 2 3.0\n");
  EXPECT_FALSE(ReadEventStream(&negative).ok());
  std::istringstream extra("0 1 2.0 3.0 4.0\n");
  EXPECT_FALSE(ReadEventStream(&extra).ok());
}

TEST(ReadEventStreamTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/events.txt";
  {
    std::ofstream out(path);
    out << "0 1 0.0\n0 1 1.5\n1 2 2.5 4.0\n";
  }
  auto events = ReadEventStreamFile(path);
  ASSERT_TRUE(events.ok());
  auto sequence = AggregateEventStream(*events, 2.0);
  ASSERT_TRUE(sequence.ok());
  EXPECT_EQ(sequence->num_snapshots(), 2u);
  EXPECT_EQ(sequence->Snapshot(0).EdgeWeight(0, 1), 2.0);
  EXPECT_EQ(sequence->Snapshot(1).EdgeWeight(1, 2), 4.0);
  std::remove(path.c_str());
}

TEST(ReadEventStreamTest, MissingFile) {
  EXPECT_EQ(ReadEventStreamFile("/nonexistent/events.txt").status().code(),
            StatusCode::kIoError);
}

// Window 0 starts at the earliest event; an infinite one would make the
// start non-finite and must be rejected, not bucketed.
TEST(AggregateEventStreamTest, NonFiniteStartTimeRejected) {
  const std::vector<TimestampedEvent> events = {
      Event(0, 1, 0.0), Event(0, 1, -std::numeric_limits<double>::infinity())};
  EXPECT_EQ(AggregateEventStream(events, 1.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AggregateEventStreamTest, AbsurdDerivedWindowCountRejected) {
  // A tiny window over a huge span must be reported, not allocated.
  const std::vector<TimestampedEvent> events = {Event(0, 1, 0.0),
                                                Event(0, 1, 2.0e12)};
  EXPECT_EQ(AggregateEventStream(events, 1.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EventStreamReaderTest, ReadsEventsIncrementally) {
  std::istringstream in(
      "# header comment\n"
      "0 1 0.5\n"
      "\n"
      "2\t3\t1.5\t2.0\n");  // tabs are separators too
  EventStreamReader reader(&in);
  auto first = reader.Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->u, 0u);
  EXPECT_EQ(reader.line_number(), 2u);
  auto second = reader.Next();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->v, 3u);
  EXPECT_DOUBLE_EQ((*second)->weight, 2.0);
  auto end = reader.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(EventStreamReaderTest, StrictPolicyReportsLineNumber) {
  std::istringstream in("0 1 0.5\nnot an event\n");
  EventStreamReader reader(&in);
  ASSERT_TRUE(reader.Next().ok());
  auto bad = reader.Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().ToString().find("line 2"), std::string::npos);
  EXPECT_EQ(reader.line_number(), 2u);
}

TEST(EventStreamReaderTest, SkipPolicyCountsRejectedRecords) {
  std::istringstream in(
      "0 1 0.5\n"
      "garbage line\n"
      "0 1\n"
      "2 3 1.5 2.0\n"
      "4 5 nan\n"
      "6 7 2.0 -1.0\n"
      "8 9 3.0\n");
  EventStreamReader reader(&in, EventErrorPolicy::kSkip);
  std::vector<TimestampedEvent> events;
  while (true) {
    auto next = reader.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    events.push_back(**next);
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].v, 3u);
  EXPECT_EQ(events[2].u, 8u);
  EXPECT_EQ(reader.events_rejected_parse(), 4u);
}

TEST(EventStreamReaderTest, RejectsNonFiniteFields) {
  for (const char* line : {"0 1 inf\n", "0 1 nan\n", "0 1 1.0 inf\n",
                           "0 1 1.0 nan\n", "0 1 1.0 -2.0\n"}) {
    std::istringstream in(line);
    EventStreamReader reader(&in);
    EXPECT_FALSE(reader.Next().ok()) << line;
  }
}

TEST(ReadEventStreamTest, SkipOverloadReportsRejectedCount) {
  std::istringstream in("0 1 0.5\nbogus\n2 3 1.5\n");
  size_t rejected = 0;
  auto events = ReadEventStream(&in, EventErrorPolicy::kSkip, &rejected);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 2u);
  EXPECT_EQ(rejected, 1u);
}

TEST(EventStreamReaderTest, RejectsIdsPastNodeIdRangeStrict) {
  // 2^32 + 1 used to wrap silently to node 1.
  std::istringstream in("0 1 0\n4294967297 3 0\n");
  EventStreamReader reader(&in);
  ASSERT_TRUE(reader.Next().ok());
  auto bad = reader.Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(bad.status().message().find("exceeds 4294967295"),
            std::string::npos);
}

TEST(EventStreamReaderTest, RejectsIdsPastNodeIdRangeSkip) {
  std::istringstream in(
      "0 1 0\n"
      "4294967297 3 0\n"
      "2 4294967296 0\n"
      "4294967295 2 0\n");
  EventStreamReader reader(&in, EventErrorPolicy::kSkip);
  std::vector<TimestampedEvent> events;
  while (true) {
    auto next = reader.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    events.push_back(**next);
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].u, 4294967295u);  // the largest id still fits
  EXPECT_EQ(reader.events_rejected_parse(), 2u);
}

TEST(ReadEventStreamTest, RejectsIdsPastNodeIdRange) {
  std::istringstream strict("1 2 0\n4294967297 3 0\n");
  auto failed = ReadEventStream(&strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("line 2"), std::string::npos);

  std::istringstream skipped("1 2 0\n4294967297 3 0\n");
  size_t rejected = 0;
  auto events = ReadEventStream(&skipped, EventErrorPolicy::kSkip, &rejected);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 1u);
  EXPECT_EQ(rejected, 1u);
}

// Tokens where a from_chars reading could part from strtod/strtoll: signs,
// partial exponents, hex, inf/nan, underflow and overflow, leading zeros.
const char* const kParserCorpusTokens[] = {
    "+1",     "-0",      "1.",        ".5",     "1e",     "1e+",
    "0x1p3",  "inf",     "nan",       "1e-310", "1e-400", "1e309",
    "9223372036854775808", "-9223372036854775809", "007", "-1",
    "4294967295", "4294967296", "1E5",  "2.5e-3", "0.0",   "-0.0",
    "00",     "0e5",     "0e-999",    "1.7976931348623157e308",
    "4.9e-324", "2.2250738585072014e-308", "-nan",  "+inf",  "INF",
    "infinity", "1e0001", "abc",      "1..2",   "--1",    "1-2",
    "-",      ".",       "e5",        "1e5.5",  "0.1",    "123456789012345678901234567890"};

std::vector<std::string> ParserCorpusLines() {
  std::vector<std::string> lines = {
      "1\t2\t3\r",  "  1  2  3  4  ", "1 2",     "1 2 3 4 5",
      "# comment",    "#",              "",        "\t",
      "1 2 3 #",      "\t1 2 3.5\t0.25\r", "1 2 3 4\r\n"};
  for (const char* token : kParserCorpusTokens) {
    const std::string t = token;
    lines.push_back(t + " 2 3");
    lines.push_back("1 " + t + " 3");
    lines.push_back("1 2 " + t);
    lines.push_back("1 2 3 " + t);
  }
  return lines;
}

TEST(EventParserDifferentialTest, CorpusMatchesReferenceLineByLine) {
  for (const std::string& line : ParserCorpusLines()) {
    for (EventIdMode mode :
         {EventIdMode::kAuto, EventIdMode::kInteger, EventIdMode::kNamed}) {
      for (bool vocabulary : {false, true}) {
        EXPECT_EQ(testing_reference::CompareWithReference(
                      line + "\n", EventErrorPolicy::kStrict, vocabulary,
                      mode),
                  "")
            << "line '" << line << "'";
      }
    }
  }
}

TEST(EventParserDifferentialTest, CorpusMatchesReferenceAsOneStream) {
  std::string text;
  for (const std::string& line : ParserCorpusLines()) text += line + "\n";
  for (EventIdMode mode :
       {EventIdMode::kAuto, EventIdMode::kInteger, EventIdMode::kNamed}) {
    for (bool vocabulary : {false, true}) {
      EXPECT_EQ(testing_reference::CompareWithReference(
                    text, EventErrorPolicy::kSkip, vocabulary, mode),
                "");
      EXPECT_EQ(testing_reference::CompareWithReference(
                    text, EventErrorPolicy::kStrict, vocabulary, mode),
                "");
    }
  }
}

TEST(EventParserDifferentialTest, FastPathValuesAreBitIdentical) {
  // Decimal values across the double range, read by the fast path, must be
  // bit-for-bit what strtod returns.
  Rng rng(17);
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    const double mantissa = rng.Uniform(-10.0, 10.0);
    const int exponent = static_cast<int>(rng.UniformInt(600)) - 300;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%d %d %.17fe%d %.*g\n",
                  static_cast<int>(rng.UniformInt(1000)),
                  static_cast<int>(rng.UniformInt(1000)), mantissa, exponent,
                  static_cast<int>(1 + rng.UniformInt(17)),
                  std::fabs(mantissa) * 1e3);
    text += buffer;
  }
  EXPECT_EQ(testing_reference::CompareWithReference(
                text, EventErrorPolicy::kSkip, false, EventIdMode::kInteger),
            "");
}

TEST(EventWindowAggregatorTest, CreateValidatesOptions) {
  EventWindowOptions options;
  options.num_nodes = 4;
  options.window_length = 0.0;
  EXPECT_FALSE(EventWindowAggregator::Create(options).ok());
  options.window_length = 1.0;
  options.start_time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(EventWindowAggregator::Create(options).ok());
  options.start_time = 0.0;
  options.num_nodes = 0;
  EXPECT_FALSE(EventWindowAggregator::Create(options).ok());
  options.num_nodes = 4;
  EXPECT_TRUE(EventWindowAggregator::Create(options).ok());
}

TEST(EventWindowAggregatorTest, MatchesBatchAggregation) {
  const std::vector<TimestampedEvent> events = {
      Event(0, 1, 0.0),       Event(0, 1, 0.5, 2.0), Event(1, 2, 1.2),
      Event(0, 2, 2.9),       Event(2, 3, 6.1),  // windows 3-5 are empty
      Event(0, 3, 6.2, 0.5)};
  auto batch = AggregateEventStream(events, 1.0);
  ASSERT_TRUE(batch.ok());

  EventWindowOptions stream_options;
  stream_options.window_length = 1.0;
  stream_options.start_time = 0.0;
  stream_options.num_nodes = 4;
  auto aggregator = EventWindowAggregator::Create(stream_options);
  ASSERT_TRUE(aggregator.ok());
  std::vector<WeightedGraph> snapshots;
  std::vector<WeightedGraph> completed;
  for (const TimestampedEvent& event : events) {
    completed.clear();
    ASSERT_TRUE(aggregator->Add(event, &completed).ok());
    for (WeightedGraph& snapshot : completed) {
      snapshots.push_back(std::move(snapshot));
    }
  }
  snapshots.push_back(aggregator->Flush());

  ASSERT_EQ(snapshots.size(), batch->num_snapshots());
  for (size_t t = 0; t < snapshots.size(); ++t) {
    EXPECT_TRUE(snapshots[t] == batch->Snapshot(t)) << "window " << t;
  }
}

TEST(EventWindowAggregatorTest, EmitsEmptyWindowsForQuietPeriods) {
  EventWindowOptions options;
  options.window_length = 1.0;
  options.num_nodes = 3;
  auto aggregator = EventWindowAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  std::vector<WeightedGraph> completed;
  ASSERT_TRUE(aggregator->Add(Event(0, 1, 0.5), &completed).ok());
  EXPECT_TRUE(completed.empty());
  ASSERT_TRUE(aggregator->Add(Event(1, 2, 3.5), &completed).ok());
  ASSERT_EQ(completed.size(), 3u);  // windows 0, 1, 2 close
  EXPECT_EQ(completed[0].EdgeWeight(0, 1), 1.0);
  EXPECT_EQ(completed[1].num_edges(), 0u);
  EXPECT_EQ(completed[2].num_edges(), 0u);
  EXPECT_EQ(aggregator->current_window(), 3u);
}

TEST(EventWindowAggregatorTest, RejectsOutOfOrderAndMalformedEvents) {
  EventWindowOptions options;
  options.window_length = 1.0;
  options.num_nodes = 4;
  auto aggregator = EventWindowAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  std::vector<WeightedGraph> completed;
  ASSERT_TRUE(aggregator->Add(Event(0, 1, 5.5), &completed).ok());
  // An event whose window already closed is rejected without side effects.
  EXPECT_FALSE(aggregator->Add(Event(0, 1, 0.5), &completed).ok());
  // Self-loops, out-of-range endpoints, bad weights.
  EXPECT_FALSE(aggregator->Add(Event(2, 2, 5.6), &completed).ok());
  EXPECT_FALSE(aggregator->Add(Event(0, 9, 5.6), &completed).ok());
  TimestampedEvent bad = Event(0, 1, 5.6);
  bad.weight = -1.0;
  EXPECT_FALSE(aggregator->Add(bad, &completed).ok());
  // The open window is still usable afterwards.
  ASSERT_TRUE(aggregator->Add(Event(0, 1, 5.9), &completed).ok());
  EXPECT_EQ(aggregator->Flush().EdgeWeight(0, 1), 2.0);
}

TEST(EventWindowAggregatorTest, FirstWindowSupportsResumption) {
  EventWindowOptions options;
  options.window_length = 1.0;
  options.num_nodes = 3;
  options.first_window = 2;
  auto aggregator = EventWindowAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  EXPECT_EQ(aggregator->current_window(), 2u);
  auto window = aggregator->WindowIndex(0.5);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(*window, 0u);  // bucketing is unchanged; skipping is the caller's
  std::vector<WeightedGraph> completed;
  // Events from already-processed windows are rejected by Add.
  EXPECT_FALSE(aggregator->Add(Event(0, 1, 0.5), &completed).ok());
  ASSERT_TRUE(aggregator->Add(Event(0, 1, 2.5), &completed).ok());
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(aggregator->Flush().EdgeWeight(0, 1), 1.0);
}

TEST(EventStreamReaderTest, AutoModeCommitsIntegerFromFirstLine) {
  std::istringstream in("0 1 0.5\n2 3 1.0\n");
  NodeVocabulary vocab;
  EventStreamReader reader(&in, EventErrorPolicy::kStrict, &vocab);
  EXPECT_EQ(reader.id_mode(), EventIdMode::kAuto);
  auto first = reader.Next();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(reader.id_mode(), EventIdMode::kInteger);
  EXPECT_EQ((*first)->u, 0u);
  EXPECT_TRUE(vocab.empty());  // integer streams never intern
}

TEST(EventStreamReaderTest, AutoModeCommitsNamedFromFirstLine) {
  std::istringstream in(
      "alice bob 0.5\n"
      "bob 7 1.0\n");  // '7' is a name once the stream is named
  NodeVocabulary vocab;
  EventStreamReader reader(&in, EventErrorPolicy::kStrict, &vocab);
  auto first = reader.Next();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(reader.id_mode(), EventIdMode::kNamed);
  EXPECT_EQ((*first)->u, 0u);
  EXPECT_EQ((*first)->v, 1u);
  auto second = reader.Next();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->u, 1u);
  EXPECT_EQ((*second)->v, 2u);
  ASSERT_EQ(vocab.size(), 3u);
  EXPECT_EQ(vocab.Name(0), "alice");
  EXPECT_EQ(vocab.Name(2), "7");
}

TEST(EventStreamReaderTest, GarbageFirstLineDoesNotLockIdMode) {
  // A malformed first data line must not commit the stream's id mode; the
  // next well-formed line decides.
  std::istringstream in(
      "0 1\n"       // integer-looking but malformed (missing timestamp)
      "alice bob 0.5\n");
  NodeVocabulary vocab;
  EventStreamReader reader(&in, EventErrorPolicy::kSkip, &vocab);
  auto event = reader.Next();
  ASSERT_TRUE(event.ok());
  ASSERT_TRUE(event->has_value());
  EXPECT_EQ(reader.id_mode(), EventIdMode::kNamed);
  EXPECT_EQ(vocab.Name(0), "alice");
  EXPECT_EQ(reader.events_rejected_parse(), 1u);
}

TEST(EventStreamReaderTest, RejectedNamedLineDoesNotPolluteVocabulary) {
  // The second endpoint is invalid, so the first must not be interned.
  std::istringstream in(
      "alice bob 0.5\n"
      "carol #bad 1.0\n"
      "dave erin 1.5\n");
  NodeVocabulary vocab;
  EventStreamReader reader(&in, EventErrorPolicy::kSkip, &vocab);
  std::vector<TimestampedEvent> events;
  while (true) {
    auto next = reader.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    events.push_back(**next);
  }
  EXPECT_EQ(events.size(), 2u);
  ASSERT_EQ(vocab.size(), 4u);
  EXPECT_FALSE(vocab.Find("carol").has_value());
  EXPECT_EQ(vocab.Name(2), "dave");
}

TEST(EventStreamReaderTest, NamedEventsMatchPremappedIntegerEvents) {
  // The named stream and its hand-mapped integer counterpart must produce
  // identical event sequences (the ingestion-equivalence contract that the
  // named-node CI smoke checks end to end).
  std::istringstream named_in(
      "alice bob 0.5 2.0\n"
      "bob carol 1.5\n"
      "alice carol 2.5\n");
  NodeVocabulary vocab;
  EventStreamReader named(&named_in, EventErrorPolicy::kStrict, &vocab);
  std::istringstream integer_in(
      "0 1 0.5 2.0\n"
      "1 2 1.5\n"
      "0 2 2.5\n");
  EventStreamReader integer(&integer_in, EventErrorPolicy::kStrict);
  while (true) {
    auto a = named.Next();
    auto b = integer.Next();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->has_value(), b->has_value());
    if (!a->has_value()) break;
    EXPECT_EQ((*a)->u, (*b)->u);
    EXPECT_EQ((*a)->v, (*b)->v);
    EXPECT_EQ((*a)->timestamp, (*b)->timestamp);
    EXPECT_EQ((*a)->weight, (*b)->weight);
  }
}

TEST(EventStreamReaderTest, ExplicitNamedModeTreatsIntegersAsNames) {
  std::istringstream in("10 11 0.5\n");
  NodeVocabulary vocab;
  EventStreamReader reader(&in, EventErrorPolicy::kStrict, &vocab,
                           EventIdMode::kNamed);
  auto event = reader.Next();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ((*event)->u, 0u);
  EXPECT_EQ((*event)->v, 1u);
  EXPECT_EQ(vocab.Name(0), "10");
}

TEST(EventWindowAggregatorTest, GrowModeDiscoversNodeSet) {
  EventWindowOptions options;
  options.window_length = 1.0;
  options.num_nodes = 0;
  options.grow_nodes = true;
  auto aggregator = EventWindowAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok()) << aggregator.status().ToString();
  EXPECT_EQ(aggregator->num_nodes(), 0u);
  std::vector<WeightedGraph> completed;
  ASSERT_TRUE(aggregator->Add(Event(0, 1, 0.5), &completed).ok());
  EXPECT_EQ(aggregator->num_nodes(), 2u);
  ASSERT_TRUE(aggregator->Add(Event(3, 1, 1.5), &completed).ok());
  // Window 0 closed at the size the node set had reached then.
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].num_nodes(), 2u);
  EXPECT_EQ(aggregator->num_nodes(), 4u);
  const WeightedGraph last = aggregator->Flush();
  EXPECT_EQ(last.num_nodes(), 4u);
  EXPECT_EQ(last.EdgeWeight(1, 3), 1.0);
}

TEST(EventWindowAggregatorTest, GrowModeKeepsSizeAcrossEmptyWindows) {
  EventWindowOptions options;
  options.window_length = 1.0;
  options.num_nodes = 0;
  options.grow_nodes = true;
  auto aggregator = EventWindowAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  std::vector<WeightedGraph> completed;
  ASSERT_TRUE(aggregator->Add(Event(0, 5, 0.5), &completed).ok());
  ASSERT_TRUE(aggregator->Add(Event(0, 1, 3.5), &completed).ok());
  ASSERT_EQ(completed.size(), 3u);  // windows 0-2; the quiet ones keep size 6
  EXPECT_EQ(completed[1].num_nodes(), 6u);
  EXPECT_EQ(completed[2].num_nodes(), 6u);
}

TEST(EventWindowAggregatorTest, FixedSizeStillRejectsOutOfRange) {
  EventWindowOptions options;
  options.window_length = 1.0;
  options.num_nodes = 2;
  auto aggregator = EventWindowAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  std::vector<WeightedGraph> completed;
  const Status status = aggregator->Add(Event(0, 9, 0.5), &completed);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST(EventWindowAggregatorTest, WindowIndexRejectsBadTimestamps) {
  EventWindowOptions options;
  options.window_length = 1.0;
  options.start_time = 10.0;
  options.num_nodes = 2;
  auto aggregator = EventWindowAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  EXPECT_FALSE(aggregator->WindowIndex(9.0).ok());  // before start_time
  EXPECT_FALSE(
      aggregator->WindowIndex(std::numeric_limits<double>::quiet_NaN()).ok());
  EXPECT_FALSE(aggregator->WindowIndex(1e13).ok());  // absurd span
  auto window = aggregator->WindowIndex(12.5);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(*window, 2u);
}

}  // namespace
}  // namespace cad
