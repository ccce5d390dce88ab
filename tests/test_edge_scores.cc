#include "core/edge_scores.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "commute/approx_commute.h"
#include "commute/exact_commute.h"
#include "obs/metrics.h"
#include "reference_scores.h"
#include "reference_selection.h"

namespace cad {
namespace {

/// Fake oracle with a constant commute time between all distinct pairs.
class ConstantOracle : public CommuteTimeOracle {
 public:
  ConstantOracle(size_t n, double value) : n_(n), value_(value) {}
  double CommuteTime(NodeId u, NodeId v) const override {
    return u == v ? 0.0 : value_;
  }
  size_t num_nodes() const override { return n_; }

 private:
  size_t n_;
  double value_;
};

TEST(EdgeScoreKindTest, Names) {
  EXPECT_STREQ(EdgeScoreKindToString(EdgeScoreKind::kCad), "CAD");
  EXPECT_STREQ(EdgeScoreKindToString(EdgeScoreKind::kAdj), "ADJ");
  EXPECT_STREQ(EdgeScoreKindToString(EdgeScoreKind::kCom), "COM");
  EXPECT_STREQ(EdgeScoreKindToString(EdgeScoreKind::kSum), "SUM");
}

TEST(EdgeScoresTest, SupportIsUnionOfEdgeSets) {
  WeightedGraph before(4);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(4);
  ASSERT_TRUE(after.SetEdge(2, 3, 2.0).ok());
  ConstantOracle o1(4, 1.0);
  ConstantOracle o2(4, 2.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  EXPECT_EQ(scores.edges.size(), 2u);
}

TEST(EdgeScoresTest, CadScoreIsProductOfDeltas) {
  WeightedGraph before(2);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(2);
  ASSERT_TRUE(after.SetEdge(0, 1, 3.0).ok());
  ConstantOracle o1(2, 5.0);
  ConstantOracle o2(2, 2.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  ASSERT_EQ(scores.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(scores.edges[0].weight_delta, 2.0);
  EXPECT_DOUBLE_EQ(scores.edges[0].commute_delta, -3.0);
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 6.0);  // |2| * |-3|
  EXPECT_DOUBLE_EQ(scores.total_score, 6.0);
}

TEST(EdgeScoresTest, AdjIgnoresCommuteChange) {
  WeightedGraph before(2);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(2);
  ASSERT_TRUE(after.SetEdge(0, 1, 4.0).ok());
  ConstantOracle o1(2, 100.0);
  ConstantOracle o2(2, 1.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kAdj);
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 3.0);
}

TEST(EdgeScoresTest, ComIgnoresWeightChange) {
  WeightedGraph before(2);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(2);
  ASSERT_TRUE(after.SetEdge(0, 1, 4.0).ok());
  ConstantOracle o1(2, 100.0);
  ConstantOracle o2(2, 40.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCom);
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 60.0);
}

TEST(EdgeScoresTest, SumNormalizesBothTerms) {
  WeightedGraph before(3);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(before.SetEdge(1, 2, 1.0).ok());
  WeightedGraph after(3);
  ASSERT_TRUE(after.SetEdge(0, 1, 3.0).ok());  // dA = 2 (max)
  ASSERT_TRUE(after.SetEdge(1, 2, 2.0).ok());  // dA = 1
  ConstantOracle o1(3, 1.0);
  ConstantOracle o2(3, 1.0);  // dc = 0 for all
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kSum);
  // Top edge: |dA|/max = 1, dc term 0 -> 1.0.
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 1.0);
  EXPECT_DOUBLE_EQ(scores.edges[1].score, 0.5);
}

TEST(EdgeScoresTest, UnchangedEdgeScoresZeroUnderCad) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.SetEdge(0, 1, 2.0).ok());
  ConstantOracle o1(3, 1.0);
  ConstantOracle o2(3, 9.0);  // commute changed everywhere
  const TransitionScores scores =
      ComputeTransitionScores(g, g, o1, o2, EdgeScoreKind::kCad);
  // dA = 0 kills the product even though dc is large.
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 0.0);
}

TEST(EdgeScoresTest, EdgesSortedByScoreDescending) {
  WeightedGraph before(4);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(before.SetEdge(2, 3, 1.0).ok());
  WeightedGraph after(4);
  ASSERT_TRUE(after.SetEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(after.SetEdge(2, 3, 9.0).ok());
  ConstantOracle o1(4, 2.0);
  ConstantOracle o2(4, 1.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  ASSERT_EQ(scores.edges.size(), 2u);
  EXPECT_GE(scores.edges[0].score, scores.edges[1].score);
  EXPECT_EQ(scores.edges[0].pair, NodePair::Make(2, 3));
}

TEST(EdgeScoresTest, NodeScoresAggregateIncidentEdges) {
  WeightedGraph before(3);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(before.SetEdge(1, 2, 1.0).ok());
  WeightedGraph after(3);
  ASSERT_TRUE(after.SetEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(after.SetEdge(1, 2, 3.0).ok());
  ConstantOracle o1(3, 2.0);
  ConstantOracle o2(3, 1.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  // Edge scores: (0,1): 1*1 = 1; (1,2): 2*1 = 2.
  EXPECT_DOUBLE_EQ(scores.node_scores[0], 1.0);
  EXPECT_DOUBLE_EQ(scores.node_scores[1], 3.0);
  EXPECT_DOUBLE_EQ(scores.node_scores[2], 2.0);
}

TEST(SelectAnomalousEdgesTest, PeelsUntilRemainderBelowDelta) {
  TransitionScores scores;
  scores.edges = {
      ScoredEdge{NodePair{0, 1}, 5.0, 0, 0},
      ScoredEdge{NodePair{1, 2}, 3.0, 0, 0},
      ScoredEdge{NodePair{2, 3}, 1.0, 0, 0},
  };
  scores.total_score = 9.0;
  scores.BuildSelectionIndex();
  // delta = 4: remaining after {5} is 4 -> not < 4, peel {3} too -> 1 < 4.
  EXPECT_EQ(SelectAnomalousEdges(scores, 4.0), (std::vector<size_t>{0, 1}));
  // delta = 10 > total: nothing anomalous.
  EXPECT_TRUE(SelectAnomalousEdges(scores, 10.0).empty());
  // delta = 0.5: everything with positive score gets selected.
  EXPECT_EQ(SelectAnomalousEdges(scores, 0.5).size(), 3u);
}

TEST(SelectAnomalousEdgesTest, ZeroScoreEdgesNeverSelected) {
  TransitionScores scores;
  scores.edges = {
      ScoredEdge{NodePair{0, 1}, 2.0, 0, 0},
      ScoredEdge{NodePair{1, 2}, 0.0, 0, 0},
  };
  scores.total_score = 2.0;
  scores.BuildSelectionIndex();
  // Even with delta <= 0 (impossible to satisfy), zero-score edges must not
  // be flagged.
  EXPECT_EQ(SelectAnomalousEdges(scores, 0.0), (std::vector<size_t>{0}));
}

TEST(SelectionIndexTest, BuildComputesPositiveCountAndPrefixes) {
  TransitionScores scores;
  scores.edges = {
      ScoredEdge{NodePair{0, 1}, 5.0, 0, 0},
      ScoredEdge{NodePair{1, 2}, 3.0, 0, 0},  // shares node 1
      ScoredEdge{NodePair{3, 4}, 1.0, 0, 0},
      ScoredEdge{NodePair{5, 6}, 0.0, 0, 0},  // zero score: excluded
  };
  scores.total_score = 9.0;
  scores.BuildSelectionIndex();
  ASSERT_TRUE(scores.has_selection_index());
  EXPECT_EQ(scores.num_positive, 3u);
  ASSERT_EQ(scores.remaining_mass.size(), 3u);
  EXPECT_EQ(scores.remaining_mass[0], 9.0);
  EXPECT_EQ(scores.remaining_mass[1], 4.0);
  EXPECT_EQ(scores.remaining_mass[2], 1.0);
  // prefix_nodes[k] = distinct endpoints among the first k edges.
  EXPECT_EQ(scores.prefix_nodes,
            (std::vector<size_t>{0, 2, 3, 5}));
}

TEST(SelectionIndexTest, ComputeTransitionScoresBuildsIndex) {
  WeightedGraph before(4);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(4);
  ASSERT_TRUE(after.SetEdge(0, 1, 2.0).ok());
  ConstantOracle o1(4, 2.0);
  ConstantOracle o2(4, 1.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  EXPECT_TRUE(scores.has_selection_index());
}

TEST(SelectionIndexTest, IndexedSelectionMatchesLegacyPeelBitwise) {
  // The binary search over remaining_mass must reproduce the reference
  // peel loop exactly — same floating-point comparisons, same counts — for
  // any delta. remaining_mass stores the successive-subtraction values the peel
  // loop would compute, so this holds bitwise, not just approximately.
  TransitionScores indexed;
  indexed.edges = {
      ScoredEdge{NodePair{0, 1}, 0.3, 0, 0},
      ScoredEdge{NodePair{1, 2}, 0.1 + 0.2, 0, 0},  // == 0.30000000000000004
      ScoredEdge{NodePair{2, 3}, 0.1, 0, 0},
      ScoredEdge{NodePair{3, 4}, 1e-9, 0, 0},
      ScoredEdge{NodePair{4, 5}, 0.0, 0, 0},
  };
  std::sort(indexed.edges.begin(), indexed.edges.end(),
            [](const ScoredEdge& a, const ScoredEdge& b) {
              return a.score > b.score;
            });
  for (const ScoredEdge& edge : indexed.edges) {
    indexed.total_score += edge.score;
  }
  indexed.BuildSelectionIndex();

  for (double delta :
       {-1.0, 0.0, 1e-12, 1e-9, 0.05, 0.1, 0.3, 0.30000000000000004, 0.4,
        0.6000000000000001, 0.7, 0.7000000000000001, 1.0, 10.0}) {
    const size_t peeled = testing_reference::PeelCount(indexed, delta);
    EXPECT_EQ(CountSelectedEdges(indexed, delta), peeled) << "delta=" << delta;
    EXPECT_EQ(SelectAnomalousEdges(indexed, delta).size(), peeled)
        << "delta=" << delta;
  }
}

TEST(EndpointUnionTest, DeduplicatesAndSorts) {
  TransitionScores scores;
  scores.edges = {
      ScoredEdge{NodePair{2, 5}, 3.0, 0, 0},
      ScoredEdge{NodePair{0, 2}, 2.0, 0, 0},
  };
  const std::vector<NodeId> nodes = EndpointUnion(scores, {0, 1});
  EXPECT_EQ(nodes, (std::vector<NodeId>{0, 2, 5}));
  EXPECT_TRUE(EndpointUnion(scores, {}).empty());
}

TEST(EdgeScoresTest, ToyCase2NewEdgeBridgingClusters) {
  // Two triangles; the transition adds a bridge. Under CAD the bridge's
  // score must dominate: dA > 0 and commute distance collapses.
  WeightedGraph before(6);
  for (auto [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}) {
    ASSERT_TRUE(before.SetEdge(u, v, 2.0).ok());
  }
  WeightedGraph after = before;
  ASSERT_TRUE(after.SetEdge(0, 3, 2.0).ok());
  // Also a benign jiggle inside a triangle.
  ASSERT_TRUE(after.SetEdge(0, 1, 2.2).ok());

  auto o1 = ExactCommuteTime::Build(before);
  auto o2 = ExactCommuteTime::Build(after);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  const TransitionScores scores =
      ComputeTransitionScores(before, after, *o1, *o2, EdgeScoreKind::kCad);
  EXPECT_EQ(scores.edges[0].pair, NodePair::Make(0, 3));
  EXPECT_GT(scores.edges[0].score, 10.0 * scores.edges[1].score);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise equality of two scorings: edge order, every ScoredEdge field,
/// node scores, total and selection index. The library's edges must also be
/// reserved to exactly their size, and each commute_before must be the
/// before-oracle's value for the pair.
void ExpectSameScores(const TransitionScores& actual,
                      const TransitionScores& expected,
                      const CommuteTimeOracle& oracle_before,
                      const std::string& what) {
  ASSERT_EQ(actual.edges.size(), expected.edges.size()) << what;
  EXPECT_EQ(actual.edges.capacity(), actual.edges.size()) << what;
  for (size_t i = 0; i < actual.edges.size(); ++i) {
    const ScoredEdge& a = actual.edges[i];
    const ScoredEdge& e = expected.edges[i];
    ASSERT_EQ(a.pair, e.pair) << what << " edge " << i;
    EXPECT_TRUE(SameBits(a.score, e.score)) << what << " edge " << i;
    EXPECT_TRUE(SameBits(a.weight_delta, e.weight_delta))
        << what << " edge " << i;
    EXPECT_TRUE(SameBits(a.commute_delta, e.commute_delta))
        << what << " edge " << i;
    EXPECT_TRUE(SameBits(a.commute_before, e.commute_before))
        << what << " edge " << i;
    EXPECT_TRUE(SameBits(a.commute_before,
                         oracle_before.CommuteTime(a.pair.u, a.pair.v)))
        << what << " edge " << i;
  }
  ASSERT_EQ(actual.node_scores.size(), expected.node_scores.size()) << what;
  for (size_t i = 0; i < actual.node_scores.size(); ++i) {
    EXPECT_TRUE(SameBits(actual.node_scores[i], expected.node_scores[i]))
        << what << " node " << i;
  }
  EXPECT_TRUE(SameBits(actual.total_score, expected.total_score)) << what;
  EXPECT_EQ(actual.num_positive, expected.num_positive) << what;
  EXPECT_EQ(actual.prefix_nodes, expected.prefix_nodes) << what;
  ASSERT_EQ(actual.remaining_mass.size(), expected.remaining_mass.size());
  for (size_t i = 0; i < actual.remaining_mass.size(); ++i) {
    EXPECT_TRUE(SameBits(actual.remaining_mass[i], expected.remaining_mass[i]))
        << what << " remaining_mass " << i;
  }
}

constexpr EdgeScoreKind kAllKinds[] = {
    EdgeScoreKind::kCad, EdgeScoreKind::kAdj, EdgeScoreKind::kCom,
    EdgeScoreKind::kSum};

void ExpectMatchesReference(const WeightedGraph& before,
                            const WeightedGraph& after,
                            const CommuteTimeOracle& oracle_before,
                            const CommuteTimeOracle& oracle_after,
                            const std::string& what) {
  for (const EdgeScoreKind kind : kAllKinds) {
    ExpectSameScores(
        ComputeTransitionScores(before, after, oracle_before, oracle_after,
                                kind),
        testing_reference::ScoreTransition(before, after, oracle_before,
                                           oracle_after, kind),
        oracle_before, what + " " + EdgeScoreKindToString(kind));
  }
}

/// Random sparse graph with fractional weights (repeated pairs overwrite).
WeightedGraph RandomScoringGraph(size_t n, size_t draws, Rng* rng) {
  WeightedGraph graph(n);
  for (size_t e = 0; e < draws; ++e) {
    const auto u = static_cast<NodeId>(rng->UniformInt(n));
    const auto v = static_cast<NodeId>(rng->UniformInt(n));
    if (u != v) CAD_CHECK_OK(graph.SetEdge(u, v, rng->Uniform(0.05, 3.0)));
  }
  return graph;
}

/// `graph` with a tenth of its edges reweighted, a tenth deleted, and
/// `inserts` new random pairs.
WeightedGraph Churned(const WeightedGraph& graph, size_t inserts, Rng* rng) {
  WeightedGraph next = graph;
  for (const Edge& edge : graph.Edges()) {
    const double draw = rng->Uniform();
    if (draw < 0.1) {
      CAD_CHECK_OK(next.SetEdge(edge.u, edge.v, 0.0));
    } else if (draw < 0.2) {
      CAD_CHECK_OK(next.SetEdge(edge.u, edge.v, rng->Uniform(0.05, 3.0)));
    }
  }
  const size_t n = graph.num_nodes();
  for (size_t e = 0; e < inserts; ++e) {
    const auto u = static_cast<NodeId>(rng->UniformInt(n));
    const auto v = static_cast<NodeId>(rng->UniformInt(n));
    if (u != v) CAD_CHECK_OK(next.SetEdge(u, v, rng->Uniform(0.05, 3.0)));
  }
  return next;
}

std::unique_ptr<CommuteTimeOracle> ApproxOracle(const WeightedGraph& graph) {
  ApproxCommuteOptions options;
  options.embedding_dim = 8;
  options.seed = 11;
  Result<ApproxCommuteEmbedding> oracle =
      ApproxCommuteEmbedding::Build(graph, options);
  CAD_CHECK_OK(oracle.status());
  return std::make_unique<ApproxCommuteEmbedding>(
      std::move(oracle).ValueOrDie());
}

TEST(MergeJoinScoringTest, MatchesSortedSupportScorerOnRandomTransitions) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const size_t n = 40 + 60 * seed;
    const WeightedGraph before = RandomScoringGraph(n, 4 * n, &rng);
    const WeightedGraph after = Churned(before, n / 4, &rng);
    const auto oracle_before = ApproxOracle(before);
    const auto oracle_after = ApproxOracle(after);
    ExpectMatchesReference(before, after, *oracle_before, *oracle_after,
                           "seed " + std::to_string(seed));
  }
}

TEST(MergeJoinScoringTest, MatchesSortedSupportScorerWithExactOracles) {
  Rng rng(3);
  const WeightedGraph before = RandomScoringGraph(60, 150, &rng);
  const WeightedGraph after = Churned(before, 20, &rng);
  auto oracle_before = ExactCommuteTime::Build(before);
  auto oracle_after = ExactCommuteTime::Build(after);
  ASSERT_TRUE(oracle_before.ok());
  ASSERT_TRUE(oracle_after.ok());
  ExpectMatchesReference(before, after, *oracle_before, *oracle_after,
                         "exact");
}

TEST(MergeJoinScoringTest, IdenticalSnapshots) {
  Rng rng(4);
  const WeightedGraph graph = RandomScoringGraph(120, 400, &rng);
  const auto oracle = ApproxOracle(graph);
  ExpectMatchesReference(graph, graph, *oracle, *oracle, "identical");
  const TransitionScores scores = ComputeTransitionScores(
      graph, graph, *oracle, *oracle, EdgeScoreKind::kCad);
  EXPECT_EQ(scores.edges.size(), graph.num_edges());
  EXPECT_EQ(scores.total_score, 0.0);
}

TEST(MergeJoinScoringTest, DisjointSupports) {
  WeightedGraph before(10);
  WeightedGraph after(10);
  for (NodeId u = 0; u < 9; ++u) {
    // Even-offset pairs before, odd-offset pairs after: no pair in common,
    // with the two lists interleaving in key order.
    ASSERT_TRUE(before.SetEdge(u, u + 1, 0.5 + 0.25 * u).ok());
    if (u + 2 < 10) {
      ASSERT_TRUE(after.SetEdge(u, u + 2, 1.5 - 0.1 * u).ok());
    }
  }
  const auto oracle_before = ApproxOracle(before);
  const auto oracle_after = ApproxOracle(after);
  ExpectMatchesReference(before, after, *oracle_before, *oracle_after,
                         "disjoint");
  EXPECT_EQ(ComputeTransitionScores(before, after, *oracle_before,
                                    *oracle_after, EdgeScoreKind::kCad)
                .edges.size(),
            before.num_edges() + after.num_edges());
}

TEST(MergeJoinScoringTest, EmptySnapshotOnEitherSide) {
  Rng rng(5);
  const WeightedGraph full = RandomScoringGraph(80, 200, &rng);
  const WeightedGraph empty(80);
  const auto oracle_full = ApproxOracle(full);
  const auto oracle_empty = ApproxOracle(empty);
  ExpectMatchesReference(empty, full, *oracle_empty, *oracle_full,
                         "empty before");
  ExpectMatchesReference(full, empty, *oracle_full, *oracle_empty,
                         "empty after");
  ExpectMatchesReference(empty, empty, *oracle_empty, *oracle_empty,
                         "both empty");
}

uint64_t CounterValue(const std::string& name) {
  for (const auto& [counter_name, value] : obs::SnapshotMetrics().counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

TEST(MergeJoinScoringTest, ParallelLookupsMatchSerial) {
  // More than three 4096-pair lookup blocks, the last one partial.
  Rng rng(9);
  const WeightedGraph before = RandomScoringGraph(600, 11000, &rng);
  const WeightedGraph after = Churned(before, 2000, &rng);
  const size_t support =
      ComputeTransitionScores(before, after, *ApproxOracle(before),
                              *ApproxOracle(after), EdgeScoreKind::kAdj)
          .edges.size();
  ASSERT_GE(support, 3 * 4096u + 1);
  ASSERT_NE(support % 4096, 0u);

  auto exact_before = ExactCommuteTime::Build(before);
  auto exact_after = ExactCommuteTime::Build(after);
  ASSERT_TRUE(exact_before.ok());
  ASSERT_TRUE(exact_after.ok());
  const auto approx_before = ApproxOracle(before);
  const auto approx_after = ApproxOracle(after);
  const std::pair<const CommuteTimeOracle*, const CommuteTimeOracle*>
      oracles[] = {{approx_before.get(), approx_after.get()},
                   {&*exact_before, &*exact_after}};

  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  for (const auto& [oracle_before, oracle_after] : oracles) {
    for (const EdgeScoreKind kind : kAllKinds) {
      const TransitionScores reference = testing_reference::ScoreTransition(
          before, after, *oracle_before, *oracle_after, kind);
      std::vector<std::pair<uint64_t, uint64_t>> parallel_deltas;
      for (const size_t threads : {1, 2, 4, 8}) {
        const std::string what =
            std::string(oracle_before == approx_before.get() ? "approx "
                                                             : "exact ") +
            EdgeScoreKindToString(kind) + " threads=" +
            std::to_string(threads);
        const uint64_t calls = CounterValue("parallel.calls");
        const uint64_t tasks = CounterValue("parallel.tasks");
        const TransitionScores scores = ComputeTransitionScores(
            before, after, *oracle_before, *oracle_after, kind, threads);
        parallel_deltas.emplace_back(CounterValue("parallel.calls") - calls,
                                     CounterValue("parallel.tasks") - tasks);
        ExpectSameScores(scores, reference, *oracle_before, what);
        EXPECT_EQ(parallel_deltas.back(), parallel_deltas.front()) << what;
      }
    }
  }
  obs::SetMetricsEnabled(metrics_were_enabled);
}

}  // namespace
}  // namespace cad
