#include "datagen/toy_example.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/components.h"
#include "graph/edge_delta.h"

namespace cad {
namespace {

TEST(ToyExampleTest, NodeIdHelpers) {
  EXPECT_EQ(ToyBlue(1), 0u);
  EXPECT_EQ(ToyBlue(8), 7u);
  EXPECT_EQ(ToyRed(1), 8u);
  EXPECT_EQ(ToyRed(9), 16u);
}

TEST(ToyExampleTest, HasSeventeenNodesAndTwoSnapshots) {
  const ToyExample toy = MakeToyExample();
  EXPECT_EQ(toy.sequence.num_nodes(), 17u);
  EXPECT_EQ(toy.sequence.num_snapshots(), 2u);
  EXPECT_EQ(toy.node_names.size(), 17u);
  EXPECT_EQ(toy.node_names[0], "b1");
  EXPECT_EQ(toy.node_names[16], "r9");
}

TEST(ToyExampleTest, BothSnapshotsConnected) {
  const ToyExample toy = MakeToyExample();
  EXPECT_TRUE(IsConnected(toy.sequence.Snapshot(0)));
  EXPECT_TRUE(IsConnected(toy.sequence.Snapshot(1)));
}

TEST(ToyExampleTest, ScriptedChangesPresent) {
  const ToyExample toy = MakeToyExample();
  const WeightedGraph& before = toy.sequence.Snapshot(0);
  const WeightedGraph& after = toy.sequence.Snapshot(1);
  // S1: new edge b1-r1.
  EXPECT_EQ(before.EdgeWeight(ToyBlue(1), ToyRed(1)), 0.0);
  EXPECT_GT(after.EdgeWeight(ToyBlue(1), ToyRed(1)), 0.0);
  // S2: bridge r7-r8 weakened.
  EXPECT_GT(before.EdgeWeight(ToyRed(7), ToyRed(8)),
            after.EdgeWeight(ToyRed(7), ToyRed(8)));
  // S3: b4-b5 strengthened sharply.
  EXPECT_GT(after.EdgeWeight(ToyBlue(4), ToyBlue(5)),
            4.0 * before.EdgeWeight(ToyBlue(4), ToyBlue(5)));
  // S4: benign decrease; S5: benign increase.
  EXPECT_LT(after.EdgeWeight(ToyBlue(1), ToyBlue(3)),
            before.EdgeWeight(ToyBlue(1), ToyBlue(3)));
  EXPECT_GT(after.EdgeWeight(ToyBlue(2), ToyBlue(7)),
            before.EdgeWeight(ToyBlue(2), ToyBlue(7)));
}

TEST(ToyExampleTest, OnlyFiveEdgesChange) {
  const ToyExample toy = MakeToyExample();
  const EdgeDelta delta = DiffSnapshots(Snapshot(toy.sequence.Snapshot(0)),
                                        Snapshot(toy.sequence.Snapshot(1)));
  EXPECT_EQ(delta.rank(), 5u);
}

TEST(ToyExampleTest, GroundTruthSetsConsistent) {
  const ToyExample toy = MakeToyExample();
  ASSERT_EQ(toy.anomalous_edges.size(), 3u);
  ASSERT_EQ(toy.anomalous_nodes.size(), 6u);
  // Every anomalous node is an endpoint of an anomalous edge.
  for (NodeId node : toy.anomalous_nodes) {
    const bool covered =
        std::any_of(toy.anomalous_edges.begin(), toy.anomalous_edges.end(),
                    [node](const NodePair& p) {
                      return p.u == node || p.v == node;
                    });
    EXPECT_TRUE(covered) << "node " << node;
  }
  // Benign changed edges are disjoint from anomalous edges.
  for (const NodePair& benign : toy.benign_changed_edges) {
    EXPECT_EQ(std::count(toy.anomalous_edges.begin(), toy.anomalous_edges.end(),
                         benign),
              0);
  }
}

TEST(ToyExampleTest, RemovingBridgeSplitsRedSubgroup) {
  // The r7-r8 bridge is what holds {r4, r6, r8, r9} to the rest of the red
  // community: deleting it must disconnect the graph into >= 2 components.
  const ToyExample toy = MakeToyExample();
  WeightedGraph cut = toy.sequence.Snapshot(0);
  // Remove inter-community links and the bridge; subgroup B must detach.
  ASSERT_TRUE(cut.SetEdge(ToyRed(7), ToyRed(8), 0.0).ok());
  const ComponentLabeling labeling = ConnectedComponents(cut);
  EXPECT_GT(labeling.num_components, 1u);
  EXPECT_TRUE(labeling.SameComponent(ToyRed(4), ToyRed(8)));
  EXPECT_TRUE(labeling.SameComponent(ToyRed(6), ToyRed(9)));
  EXPECT_FALSE(labeling.SameComponent(ToyRed(7), ToyRed(8)));
}

}  // namespace
}  // namespace cad
