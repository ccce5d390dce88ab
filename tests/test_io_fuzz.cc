// Robustness fuzzing of the text parsers: random byte soup and structured
// near-miss inputs must produce clean Status errors (or valid parses), never
// crashes, hangs, or CHECK failures. Parsers are the classic place where a
// "production-quality" claim dies; these sweeps keep them honest.

#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/rmat.h"
#include "io/event_stream.h"
#include "io/temporal_io.h"
#include "reference_event_parser.h"

namespace cad {
namespace {

std::string RandomBytes(Rng* rng, size_t length) {
  // Printable-heavy alphabet plus newlines and a few hostile characters.
  static constexpr char kAlphabet[] =
      "0123456789 \n\t-+.eE#abctemporalsnapshotedge\"\\\r";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->UniformInt(sizeof(kAlphabet) - 1)];
  }
  return out;
}

class IoFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IoFuzzSweep, TemporalParserNeverCrashesOnByteSoup) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string soup = RandomBytes(&rng, rng.UniformInt(400));
    std::istringstream in(soup);
    // Must return: either a valid sequence or a clean error. Never crash.
    auto parsed = ReadTemporalEdgeList(&in);
    if (parsed.ok()) {
      // If it parsed, the result must be internally consistent.
      for (size_t t = 0; t < parsed->num_snapshots(); ++t) {
        EXPECT_EQ(parsed->Snapshot(t).num_nodes(), parsed->num_nodes());
      }
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST_P(IoFuzzSweep, EventParserNeverCrashesOnByteSoup) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string soup = RandomBytes(&rng, rng.UniformInt(300));
    std::istringstream in(soup);
    auto events = ReadEventStream(&in);
    if (!events.ok()) {
      EXPECT_FALSE(events.status().message().empty());
    }
  }
}

TEST_P(IoFuzzSweep, TemporalParserSurvivesMutatedValidInput) {
  // Start from a valid document and flip single characters: the parser must
  // accept or reject cleanly, and accepted documents must round-trip.
  const std::string valid =
      "temporal 4 2\n"
      "snapshot 0\n"
      "edge 0 1 1.5\n"
      "edge 2 3 0.25\n"
      "snapshot 1\n"
      "edge 1 2 3\n";
  Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    const size_t position = rng.UniformInt(mutated.size());
    mutated[position] =
        static_cast<char>('0' + rng.UniformInt(80));  // wide range
    std::istringstream in(mutated);
    auto parsed = ReadTemporalEdgeList(&in);
    if (parsed.ok()) {
      std::ostringstream out;
      ASSERT_TRUE(WriteTemporalEdgeList(*parsed, &out).ok());
      std::istringstream reread(out.str());
      auto second = ReadTemporalEdgeList(&reread);
      ASSERT_TRUE(second.ok());
      for (size_t t = 0; t < parsed->num_snapshots(); ++t) {
        EXPECT_TRUE(second->Snapshot(t) == parsed->Snapshot(t));
      }
    }
  }
}

// R-MAT event lines in the shape the stream tools ingest: integer ids, a
// window timestamp and a fractional weight.
std::string RmatEventLines(uint64_t seed) {
  RmatOptions options;
  options.num_nodes = 500;
  options.num_edges = 2000;
  options.min_weight = 0.25;
  options.max_weight = 4.0;
  options.seed = seed;
  std::string text;
  size_t index = 0;
  for (const Edge& edge : RmatEdgeSamples(options, 200)) {
    char line[96];
    std::snprintf(line, sizeof(line), "%u %u %.3f %.17g\n", edge.u, edge.v,
                  static_cast<double>(index++) / 50.0, edge.weight);
    text += line;
  }
  return text;
}

TEST_P(IoFuzzSweep, EventParserMatchesReferenceOnMutatedRmatLines) {
  // Character edits to valid lines reach every branch of the number
  // readers (signs, exponents, hex, inf/nan, field counts); each mutant must
  // read exactly as the strtod/strtoll reference reads it, in both error
  // policies and in integer, auto and named mode.
  static constexpr char kEdits[] = "0123456789 \t-+.eExXpinfa#\r";
  const std::string valid = RmatEventLines(GetParam());
  Rng rng(GetParam() + 3000);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    const size_t edits = 1 + rng.UniformInt(4);
    for (size_t e = 0; e < edits; ++e) {
      const size_t position = rng.UniformInt(mutated.size());
      const char c = kEdits[rng.UniformInt(sizeof(kEdits) - 1)];
      switch (rng.UniformInt(3)) {
        case 0:
          mutated[position] = c;
          break;
        case 1:
          mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(position),
                         c);
          break;
        default:
          mutated.erase(position, 1);
          break;
      }
    }
    for (EventErrorPolicy policy :
         {EventErrorPolicy::kStrict, EventErrorPolicy::kSkip}) {
      EXPECT_EQ(testing_reference::CompareWithReference(
                    mutated, policy, false, EventIdMode::kInteger),
                "");
      EXPECT_EQ(testing_reference::CompareWithReference(mutated, policy, true,
                                                        EventIdMode::kAuto),
                "");
      EXPECT_EQ(testing_reference::CompareWithReference(mutated, policy, true,
                                                        EventIdMode::kNamed),
                "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzzSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace cad
