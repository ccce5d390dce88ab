// Direct CSR assembly from a Snapshot's sorted edge list and the CSR BFS
// behind ConnectedComponents, checked bit for bit against the COO /
// adjacency-list constructions in reference_graph.h.

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/components.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "reference_graph.h"

namespace cad {
namespace {

template <typename T>
void ExpectSameBytes(const std::vector<T>& actual,
                     const std::vector<T>& expected, const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  if (actual.empty()) return;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(T)),
            0)
      << what;
}

void ExpectSameCsr(const CsrMatrix& actual, const CsrMatrix& expected,
                   const std::string& what) {
  EXPECT_EQ(actual.rows(), expected.rows()) << what;
  EXPECT_EQ(actual.cols(), expected.cols()) << what;
  ExpectSameBytes(actual.row_offsets(), expected.row_offsets(),
                  what + " row_offsets");
  ExpectSameBytes(actual.col_indices(), expected.col_indices(),
                  what + " col_indices");
  ExpectSameBytes(actual.values(), expected.values(), what + " values");
}

void ExpectSameStructure(const WeightedGraph& graph, const std::string& what) {
  const Snapshot snapshot(graph);
  ExpectSameCsr(ToAdjacencyCsr(snapshot),
                testing_reference::AdjacencyCsr(graph), what + " adjacency");
  for (const double reg :
       {0.0, 1e-6 * std::max(snapshot.volume(), 1.0), 0.37}) {
    const std::string tag = what + " laplacian reg=" + std::to_string(reg);
    ExpectSameCsr(ToLaplacianCsr(snapshot, reg),
                  testing_reference::LaplacianCsr(graph, reg), tag);
  }

  const ComponentLabeling expected = testing_reference::Components(graph);
  const ComponentLabeling from_graph = ConnectedComponents(snapshot);
  const ComponentLabeling from_laplacian =
      ConnectedComponents(ToLaplacianCsr(snapshot, 0.5));
  for (const ComponentLabeling* labeling : {&from_graph, &from_laplacian}) {
    EXPECT_EQ(labeling->num_components, expected.num_components) << what;
    EXPECT_EQ(labeling->component, expected.component) << what;
    EXPECT_EQ(labeling->sizes, expected.sizes) << what;
  }
}

/// `num_edges` draws of a uniformly random pair on `num_nodes` nodes with a
/// fractional weight in [0.05, 3); repeated pairs overwrite, so the graph
/// has at most that many edges. Sparse draws leave isolated nodes and
/// several components.
WeightedGraph RandomGraph(size_t num_nodes, size_t num_edges, uint64_t seed) {
  WeightedGraph graph(num_nodes);
  Rng rng(seed);
  for (size_t e = 0; e < num_edges; ++e) {
    const auto u = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const auto v = static_cast<NodeId>(rng.UniformInt(num_nodes));
    if (u == v) continue;
    CAD_CHECK_OK(graph.SetEdge(u, v, rng.Uniform(0.05, 3.0)));
  }
  return graph;
}

TEST(SnapshotStructureTest, EmptyAndSingleNodeGraphs) {
  ExpectSameStructure(WeightedGraph(0), "n=0");
  ExpectSameStructure(WeightedGraph(1), "n=1");
  const CsrMatrix laplacian = ToLaplacianCsr(WeightedGraph(1), 0.25);
  ASSERT_EQ(laplacian.nnz(), 1u);
  EXPECT_EQ(laplacian.values()[0], 0.25);
  EXPECT_EQ(ToLaplacianCsr(WeightedGraph(0), 1.0).nnz(), 0u);
}

TEST(SnapshotStructureTest, SingleEdge) {
  WeightedGraph graph(2);
  ASSERT_TRUE(graph.SetEdge(1, 0, 0.7).ok());
  ExpectSameStructure(graph, "single edge");
  const CsrMatrix laplacian = ToLaplacianCsr(graph, 0.0);
  EXPECT_EQ(laplacian.col_indices(), (std::vector<uint32_t>{0, 1, 0, 1}));
  EXPECT_EQ(laplacian.values(), (std::vector<double>{0.7, -0.7, -0.7, 0.7}));
}

TEST(SnapshotStructureTest, IsolatedNodesKeepTheirDiagonal) {
  WeightedGraph graph(6);
  ASSERT_TRUE(graph.SetEdge(1, 4, 2.5).ok());
  ExpectSameStructure(graph, "isolated nodes");
  const CsrMatrix laplacian = ToLaplacianCsr(graph, 0.1);
  // Every node has a diagonal entry; only nodes 1 and 4 have neighbours.
  EXPECT_EQ(laplacian.nnz(), 6u + 2u);
  const ComponentLabeling labeling = ConnectedComponents(laplacian);
  EXPECT_EQ(labeling.num_components, 5u);
  EXPECT_TRUE(labeling.SameComponent(1, 4));
  EXPECT_EQ(labeling.component,
            (std::vector<uint32_t>{0, 1, 2, 3, 1, 4}));
}

TEST(SnapshotStructureTest, SeveralComponents) {
  WeightedGraph graph(9);
  // Components {0, 5, 8}, {1, 2}, {3, 6, 7}, {4}, laid out so that a
  // component's smallest node is not its first edge's endpoint.
  ASSERT_TRUE(graph.SetEdge(5, 8, 1.25).ok());
  ASSERT_TRUE(graph.SetEdge(0, 8, 0.5).ok());
  ASSERT_TRUE(graph.SetEdge(2, 1, 3.0).ok());
  ASSERT_TRUE(graph.SetEdge(7, 6, 0.125).ok());
  ASSERT_TRUE(graph.SetEdge(3, 7, 2.0).ok());
  ExpectSameStructure(graph, "several components");
  const ComponentLabeling labeling = ConnectedComponents(graph);
  EXPECT_EQ(labeling.component,
            (std::vector<uint32_t>{0, 1, 1, 2, 3, 0, 2, 2, 0}));
  EXPECT_EQ(labeling.sizes, (std::vector<size_t>{3, 2, 3, 1}));
}

TEST(SnapshotStructureTest, SeededRandomGraphs) {
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {50, 20}, {50, 400}, {300, 250}, {300, 3000}, {1000, 8000}};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (const auto& [n, m] : shapes) {
      const WeightedGraph graph = RandomGraph(n, m, seed);
      ExpectSameStructure(graph, "seed " + std::to_string(seed) + " n=" +
                                     std::to_string(n) + " m=" +
                                     std::to_string(m));
    }
  }
}

TEST(SnapshotStructureTest, EdgesAreSortedByPair) {
  const WeightedGraph graph = RandomGraph(200, 1500, 5);
  const std::vector<Edge> edges = graph.Edges();
  ASSERT_EQ(edges.size(), graph.num_edges());
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_LT(edges[i].u, edges[i].v);
    EXPECT_EQ(edges[i].weight, graph.EdgeWeight(edges[i].u, edges[i].v));
    if (i > 0) {
      EXPECT_LT((NodePair{edges[i - 1].u, edges[i - 1].v}.Key()),
                (NodePair{edges[i].u, edges[i].v}.Key()));
    }
  }
}

TEST(SnapshotTest, GrowToPadsDegreesAndKeepsVolume) {
  WeightedGraph graph(3);
  ASSERT_TRUE(graph.SetEdge(0, 2, 1.5).ok());
  Snapshot snapshot(graph);
  ASSERT_TRUE(snapshot.GrowTo(5).ok());
  EXPECT_EQ(snapshot.num_nodes(), 5u);
  EXPECT_EQ(snapshot.weighted_degrees(),
            (std::vector<double>{1.5, 0.0, 1.5, 0.0, 0.0}));
  EXPECT_EQ(snapshot.volume(), 3.0);
  EXPECT_EQ(snapshot.edges(), graph.Edges());
  EXPECT_FALSE(snapshot.GrowTo(4).ok());
  ASSERT_TRUE(graph.GrowTo(5).ok());
  EXPECT_TRUE(snapshot == Snapshot(graph));
}

// A long AddEdgeWeight sequence over a few slots, so keys are inserted,
// grown, deleted and re-inserted through several rehashes, with the delta
// kinds the single-probe path must route correctly.
double DrawDelta(Rng* rng, double current) {
  switch (rng->UniformInt(10)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return -current;  // exact deletion
    case 3:
      return -rng->Uniform(0.0, 2.0 * current + 1.0);  // may go negative
    case 4:
      return 1e308;  // overflows once the weight is large
    case 5: {
      const double special[] = {std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::denorm_min()};
      return special[rng->UniformInt(4)];
    }
    case 6:
      return 1.0 / 3.0;
    default:
      return rng->Uniform(0.0, 1.0);  // fractional
  }
}

TEST(AddEdgeWeightTest, MatchesFindThenSetEdgeReference) {
  constexpr size_t kNodes = 40;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    WeightedGraph graph(kNodes);
    WeightedGraph reference(kNodes);
    for (int step = 0; step < 20000; ++step) {
      // Mostly valid endpoints, some self-loops and out-of-range ids.
      const auto u = static_cast<NodeId>(rng.UniformInt(kNodes + 1));
      const auto v = static_cast<NodeId>(rng.UniformInt(kNodes + 1));
      const double delta = DrawDelta(&rng, reference.EdgeWeight(u, v));
      const Status got = graph.AddEdgeWeight(u, v, delta);
      const Status want =
          testing_reference::AddEdgeWeight(&reference, u, v, delta);
      ASSERT_EQ(got.code(), want.code()) << "step " << step;
      ASSERT_EQ(got.message(), want.message()) << "step " << step;
    }
    EXPECT_EQ(graph.Edges(), reference.Edges());
  }
}

}  // namespace
}  // namespace cad
