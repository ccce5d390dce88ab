// The approximate engine's n x k embedding is one immutable block shared by
// the oracle that scores with it and the solver cache that seeds the next
// window's solves: these tests pin where the block is shared, where it is
// copied, and that dropping one owner never changes what the other holds.

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "commute/approx_commute.h"
#include "commute/solver_cache.h"
#include "core/online_monitor.h"
#include "datagen/random_graphs.h"
#include "graph/edge_delta.h"
#include "graph/snapshot.h"
#include "obs/obs.h"

namespace cad {
namespace {

constexpr size_t kNodes = 40;
constexpr size_t kDim = 8;

WeightedGraph SharingGraph() {
  RandomGraphOptions options;
  options.num_nodes = kNodes;
  options.average_degree = 5.0;
  options.seed = 29;
  return MakeRandomSparseGraph(options);
}

ApproxCommuteOptions IncrementalOptions() {
  ApproxCommuteOptions options;
  options.embedding_dim = kDim;
  options.seed = 5;
  options.warm_start = true;
  options.incremental = true;
  options.cg.tolerance = 1e-10;
  return options;
}

/// Every pairwise commute time of `oracle`, in row order.
std::vector<double> AllCommuteTimes(const CommuteTimeOracle& oracle) {
  std::vector<double> times;
  for (NodeId u = 0; u < oracle.num_nodes(); ++u) {
    for (NodeId v = u + 1; v < oracle.num_nodes(); ++v) {
      times.push_back(oracle.CommuteTime(u, v));
    }
  }
  return times;
}

const ApproxCommuteEmbedding& AsApprox(const CommuteTimeOracle* oracle) {
  CAD_CHECK(oracle != nullptr);
  return dynamic_cast<const ApproxCommuteEmbedding&>(*oracle);
}

bool SameBits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// Reads a process-wide counter; counters only move while metrics are on.
uint64_t CounterValue(const char* name) {
  return obs::GlobalMetrics().GetCounter(name)->Value();
}

TEST(EmbeddingSharingTest, WarmStartedBuildSharesItsBlockWithTheCache) {
  ApproxCommuteOptions options = IncrementalOptions();
  options.incremental = false;
  CommuteSolverCache cache;
  auto oracle = ApproxCommuteEmbedding::Build(SharingGraph(), options, &cache);
  ASSERT_TRUE(oracle.ok());
  const std::shared_ptr<const DenseMatrix> cached =
      cache.PreviousEmbedding(kNodes, kDim);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached.get(), &oracle->embedding());
}

TEST(EmbeddingSharingTest, WindowWithNothingResolvedAliasesThePreviousBlock) {
  const WeightedGraph graph = SharingGraph();
  const ApproxCommuteOptions options = IncrementalOptions();
  CommuteSolverCache cache;
  auto first = ApproxCommuteEmbedding::Build(graph, options, &cache);
  ASSERT_TRUE(first.ok());
  // An unchanged snapshot: every cached column already meets the gate.
  auto next = ApproxCommuteEmbedding::BuildIncremental(graph, EdgeDelta(),
                                                       options, &cache);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_EQ(cache.state().last_resolved_fraction, 0.0);
  EXPECT_EQ(&next->embedding(), &first->embedding());
  EXPECT_EQ(cache.PreviousEmbedding(kNodes, kDim).get(), &first->embedding());
}

TEST(EmbeddingSharingTest, ResolvingWindowCopiesOnceAndLeavesThePreviousBlock) {
  const WeightedGraph before = SharingGraph();
  WeightedGraph after = before;
  const Edge changed = before.Edges().front();
  ASSERT_TRUE(after.SetEdge(changed.u, changed.v, 3.0 * changed.weight).ok());
  ApproxCommuteOptions options = IncrementalOptions();
  options.incremental_tolerance = 0.0;  // every column re-solves
  CommuteSolverCache cache;
  auto first = ApproxCommuteEmbedding::Build(before, options, &cache);
  ASSERT_TRUE(first.ok());
  const DenseMatrix first_bits = first->embedding();

  auto next = ApproxCommuteEmbedding::BuildIncremental(
      after, DiffSnapshots(before, after), options, &cache);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_EQ(cache.state().last_resolved_fraction, 1.0);
  EXPECT_NE(&next->embedding(), &first->embedding());
  EXPECT_EQ(cache.PreviousEmbedding(kNodes, kDim).get(), &next->embedding());
  EXPECT_TRUE(SameBits(first->embedding(), first_bits));
  EXPECT_FALSE(SameBits(next->embedding(), first_bits));
}

OnlineMonitorOptions WarmMonitorOptions() {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kApprox;
  options.detector.approx = IncrementalOptions();
  options.detector.approx.incremental = false;
  options.warmup_transitions = 0;
  return options;
}

WeightedGraph Padded(const WeightedGraph& graph, size_t num_nodes) {
  WeightedGraph padded(num_nodes);
  for (const Edge& e : graph.Edges()) {
    CAD_CHECK_OK(padded.SetEdge(e.u, e.v, e.weight));
  }
  return padded;
}

TEST(EmbeddingSharingTest, NodeGrowthBuildsColdAndThenSharesAgain) {
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const WeightedGraph graph = SharingGraph();
  OnlineCadMonitor monitor(WarmMonitorOptions());
  ASSERT_TRUE(monitor.Observe(graph).ok());
  const uint64_t warm_before = CounterValue("commute.warm_started_builds");
  ASSERT_TRUE(monitor.Observe(graph).ok());
#ifndef CAD_OBS_DISABLED
  // Without growth the second window seeds its solves from the first's.
  EXPECT_EQ(CounterValue("commute.warm_started_builds"), warm_before + 1);
#else
  (void)warm_before;  // counters stay 0 without instrumentation
#endif
  const DenseMatrix* before_growth =
      &AsApprox(monitor.previous_oracle()).embedding();
  ASSERT_EQ(monitor.solver_cache().state().embedding.get(), before_growth);

  // The grown window pads a new block for the previous oracle only; the
  // cache's block keeps its old shape, so the window's build starts cold.
  const uint64_t warm_at_growth =
      CounterValue("commute.warm_started_builds");
  ASSERT_TRUE(monitor.Observe(Padded(graph, kNodes + 3)).ok());
  EXPECT_EQ(CounterValue("commute.warm_started_builds"), warm_at_growth);
  const ApproxCommuteEmbedding& grown = AsApprox(monitor.previous_oracle());
  EXPECT_EQ(grown.num_nodes(), kNodes + 3);
  EXPECT_NE(&grown.embedding(), before_growth);
  // The cold build re-established the sharing for the next window.
  EXPECT_EQ(monitor.solver_cache().state().embedding.get(),
            &grown.embedding());
  obs::SetMetricsEnabled(metrics_were_enabled);
}

TEST(EmbeddingSharingTest, EvictionDropsOnlyTheCachesReference) {
  const WeightedGraph graph = SharingGraph();
  OnlineCadMonitor monitor(WarmMonitorOptions());
  ASSERT_TRUE(monitor.Observe(graph).ok());
  ASSERT_TRUE(monitor.Observe(graph).ok());
  const ApproxCommuteEmbedding& oracle = AsApprox(monitor.previous_oracle());
  const DenseMatrix* block = &oracle.embedding();
  ASSERT_EQ(monitor.solver_cache().state().embedding.get(), block);
  const std::vector<double> scores = AllCommuteTimes(oracle);

  monitor.EvictSolverCache();
  EXPECT_EQ(monitor.solver_cache().state().embedding, nullptr);
  EXPECT_EQ(monitor.solver_cache().ApproxBytes(), 0u);
  EXPECT_EQ(&AsApprox(monitor.previous_oracle()).embedding(), block);
  EXPECT_EQ(AllCommuteTimes(*monitor.previous_oracle()), scores);
  // The next window builds cold and still scores against the kept oracle.
  EXPECT_TRUE(monitor.Observe(graph).ok());
}

}  // namespace
}  // namespace cad
