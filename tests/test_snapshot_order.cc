// Outputs do not depend on insertion order: one 3-window sequence with
// fractional weights, built from .tel text, from events through the
// streaming aggregator, and by SetEdge in shuffled order, must give
// bit-identical snapshot degrees, volume and Laplacians, bit-identical
// transition scores, and byte-identical report CSVs. The three builds fill
// their hash maps in different orders, so any sum taken in hash-iteration
// order would round differently between them.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "app/pipeline.h"
#include "common/rng.h"
#include "core/cad_detector.h"
#include "graph/snapshot.h"
#include "graph/temporal_graph.h"
#include "io/event_stream.h"
#include "io/temporal_io.h"

namespace cad {
namespace {

constexpr size_t kNodes = 2000;
constexpr size_t kWindows = 3;

/// One window's edges as (u, v, weight) in draw order. Weights are
/// thousandths, which print and parse back exactly with three decimals.
using Window = std::vector<Edge>;

/// A base set of about 16k pairs; each window keeps each pair with
/// probability 0.9 at a fresh weight, so consecutive windows share most
/// edges and differ in the rest.
std::vector<Window> MakeWindows() {
  Rng rng(2024);
  std::vector<NodePair> base;
  WeightedGraph seen(kNodes);
  while (base.size() < 16000) {
    const auto u = static_cast<NodeId>(rng.UniformInt(kNodes));
    const auto v = static_cast<NodeId>(rng.UniformInt(kNodes));
    if (u == v || seen.HasEdge(u, v)) continue;
    CAD_CHECK_OK(seen.SetEdge(u, v, 1.0));
    base.push_back(NodePair::Make(u, v));
  }
  std::vector<Window> windows(kWindows);
  for (Window& window : windows) {
    for (const NodePair& pair : base) {
      if (rng.Uniform() < 0.1) continue;
      const double weight =
          static_cast<double>(1 + rng.UniformInt(2999)) / 1000.0;
      window.push_back(Edge{pair.u, pair.v, weight});
    }
  }
  return windows;
}

/// `window` in a seeded random order.
Window Shuffled(Window window, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = window.size(); i > 1; --i) {
    std::swap(window[i - 1], window[rng.UniformInt(i)]);
  }
  return window;
}

/// The windows as .tel text, parsed by the file loader's reader.
TemporalGraphSequence FromTelText(const std::vector<Window>& windows) {
  std::stringstream text;
  text << "temporal " << kNodes << " " << windows.size() << "\n";
  text << std::fixed << std::setprecision(3);
  for (size_t t = 0; t < windows.size(); ++t) {
    text << "snapshot " << t << "\n";
    for (const Edge& edge : windows[t]) {
      text << "edge " << edge.v << " " << edge.u << " " << edge.weight << "\n";
    }
  }
  Result<TemporalGraphSequence> sequence = ReadTemporalEdgeList(&text);
  CAD_CHECK_OK(sequence.status());
  return std::move(sequence).ValueOrDie();
}

TemporalGraphSequence FromEvents(const std::vector<Window>& windows) {
  EventWindowOptions options;
  options.num_nodes = kNodes;
  Result<EventWindowAggregator> created =
      EventWindowAggregator::Create(options);
  CAD_CHECK_OK(created.status());
  EventWindowAggregator& aggregator = *created;
  std::vector<WeightedGraph> closed;
  for (size_t t = 0; t < windows.size(); ++t) {
    for (const Edge& edge : Shuffled(windows[t], 100 + t)) {
      const TimestampedEvent event{edge.u, edge.v, static_cast<double>(t) + 0.5,
                                   edge.weight};
      CAD_CHECK_OK(aggregator.Add(event, &closed));
    }
  }
  closed.push_back(aggregator.Flush());
  TemporalGraphSequence sequence(kNodes);
  for (WeightedGraph& graph : closed) {
    CAD_CHECK_OK(sequence.Append(std::move(graph)));
  }
  return sequence;
}

TemporalGraphSequence FromShuffledSetEdge(const std::vector<Window>& windows) {
  TemporalGraphSequence sequence(kNodes);
  for (size_t t = 0; t < windows.size(); ++t) {
    WeightedGraph graph(kNodes);
    for (const Edge& edge : Shuffled(windows[t], 200 + t)) {
      CAD_CHECK_OK(graph.SetEdge(edge.v, edge.u, edge.weight));
    }
    CAD_CHECK_OK(sequence.Append(std::move(graph)));
  }
  return sequence;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSameScores(const TransitionScores& a, const TransitionScores& b,
                      const std::string& what) {
  ASSERT_EQ(a.edges.size(), b.edges.size()) << what;
  for (size_t i = 0; i < a.edges.size(); ++i) {
    const ScoredEdge& x = a.edges[i];
    const ScoredEdge& y = b.edges[i];
    ASSERT_EQ(x.pair, y.pair) << what << " edge " << i;
    ASSERT_EQ(Bits(x.score), Bits(y.score)) << what << " edge " << i;
    ASSERT_EQ(Bits(x.weight_delta), Bits(y.weight_delta)) << what;
    ASSERT_EQ(Bits(x.commute_delta), Bits(y.commute_delta)) << what;
    ASSERT_EQ(Bits(x.commute_before), Bits(y.commute_before)) << what;
  }
  EXPECT_TRUE(SameBytes(a.node_scores, b.node_scores)) << what;
  EXPECT_EQ(Bits(a.total_score), Bits(b.total_score)) << what;
}

std::string ReportCsv(const TemporalGraphSequence& sequence) {
  PipelineOptions options;
  options.cad.engine = CommuteEngine::kApprox;
  options.cad.approx.embedding_dim = 10;
  options.cad.approx.seed = 7;
  Result<PipelineResult> result = RunAnomalyPipeline(sequence, options);
  CAD_CHECK_OK(result.status());
  std::ostringstream csv;
  CAD_CHECK_OK(WriteEdgeReportCsv(*result, &csv));
  return csv.str();
}

class SnapshotOrderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::vector<Window> windows = MakeWindows();
    sequences_ = new std::vector<TemporalGraphSequence>{
        FromTelText(windows), FromEvents(windows),
        FromShuffledSetEdge(windows)};
  }
  static void TearDownTestSuite() {
    delete sequences_;
    sequences_ = nullptr;
  }

  static std::vector<TemporalGraphSequence>* sequences_;
};

std::vector<TemporalGraphSequence>* SnapshotOrderTest::sequences_ = nullptr;

TEST_F(SnapshotOrderTest, TheThreeBuildsHoldEqualGraphs) {
  const std::vector<TemporalGraphSequence>& built = *sequences_;
  for (size_t t = 0; t < kWindows; ++t) {
    EXPECT_GT(built[0].Snapshot(t).num_edges(), 14000u);
    EXPECT_TRUE(built[1].Snapshot(t) == built[0].Snapshot(t)) << "t=" << t;
    EXPECT_TRUE(built[2].Snapshot(t) == built[0].Snapshot(t)) << "t=" << t;
  }
}

TEST_F(SnapshotOrderTest, DegreesVolumeAndLaplacianAreBitIdentical) {
  const std::vector<TemporalGraphSequence>& built = *sequences_;
  for (size_t t = 0; t < kWindows; ++t) {
    const Snapshot reference(built[0].Snapshot(t));
    const CsrMatrix reference_laplacian = ToLaplacianCsr(reference, 1e-3);
    for (size_t way = 1; way < built.size(); ++way) {
      const std::string what =
          "t=" + std::to_string(t) + " build " + std::to_string(way);
      const Snapshot snapshot(built[way].Snapshot(t));
      EXPECT_TRUE(
          SameBytes(snapshot.weighted_degrees(), reference.weighted_degrees()))
          << what;
      EXPECT_EQ(Bits(snapshot.volume()), Bits(reference.volume())) << what;
      const CsrMatrix laplacian = ToLaplacianCsr(snapshot, 1e-3);
      EXPECT_TRUE(
          SameBytes(laplacian.row_offsets(), reference_laplacian.row_offsets()))
          << what;
      EXPECT_TRUE(
          SameBytes(laplacian.col_indices(), reference_laplacian.col_indices()))
          << what;
      EXPECT_TRUE(SameBytes(laplacian.values(), reference_laplacian.values()))
          << what;
    }
  }
}

TEST_F(SnapshotOrderTest, TransitionScoresAreBitIdentical) {
  CadOptions options;
  options.engine = CommuteEngine::kApprox;
  options.approx.embedding_dim = 10;
  options.approx.seed = 7;
  const CadDetector detector(options);
  std::vector<std::vector<TransitionScores>> scores;
  for (const TemporalGraphSequence& sequence : *sequences_) {
    Result<std::vector<TransitionScores>> analyzed = detector.Analyze(sequence);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    scores.push_back(std::move(analyzed).ValueOrDie());
  }
  for (size_t way = 1; way < scores.size(); ++way) {
    ASSERT_EQ(scores[way].size(), kWindows - 1);
    for (size_t t = 0; t + 1 < kWindows; ++t) {
      ExpectSameScores(scores[way][t], scores[0][t],
                       "transition " + std::to_string(t) + " build " +
                           std::to_string(way));
    }
  }
}

TEST_F(SnapshotOrderTest, ReportCsvsAreByteIdentical) {
  const std::string reference = ReportCsv((*sequences_)[0]);
  EXPECT_GT(std::count(reference.begin(), reference.end(), '\n'), 1)
      << "the report should hold rows beyond the header";
  for (size_t way = 1; way < sequences_->size(); ++way) {
    EXPECT_EQ(ReportCsv((*sequences_)[way]), reference) << "build " << way;
  }
}

}  // namespace
}  // namespace cad
