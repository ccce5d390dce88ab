#include "common/parallel.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "commute/approx_commute.h"
#include "core/cad_detector.h"
#include "datagen/random_graphs.h"
#include "linalg/conjugate_gradient.h"

namespace cad {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t num_threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelFor(hits.size(), num_threads,
                [&hits](size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ZeroAndOneCount) {
  int calls = 0;
  ParallelFor(0, 4, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(1, 4, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, InlineWhenSingleThreaded) {
  // With num_threads = 1 the function runs on the calling thread in order.
  std::vector<size_t> order;
  ParallelFor(5, 1, [&order](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int> sum{0};
  ParallelFor(3, 16, [&sum](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 3);
}

TEST(HardwareThreadsTest, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1u); }

TEST(ParallelSolveTest, ParallelSolveBlockMatchesSerial) {
  RandomGraphOptions opts;
  opts.num_nodes = 300;
  opts.average_degree = 6.0;
  opts.seed = 8;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const CsrMatrix l = g.ToLaplacianCsr(1e-8 * g.Volume());

  DenseMatrix rhs(300, 8);
  for (size_t c = 0; c < rhs.cols(); ++c) {
    rhs(c, c) = 1.0;
    rhs(299 - c, c) = -1.0;
  }

  CgOptions serial;
  serial.num_threads = 1;
  CgOptions parallel;
  parallel.num_threads = 4;
  DenseMatrix serial_solutions;
  DenseMatrix parallel_solutions;
  auto s1 = ConjugateGradientSolver(serial).SolveBlock(l, rhs, &serial_solutions);
  auto s2 =
      ConjugateGradientSolver(parallel).SolveBlock(l, rhs, &parallel_solutions);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  // CG is deterministic per system; the column chunking across threads must
  // not change any solution bit-for-bit.
  EXPECT_EQ(serial_solutions.data(), parallel_solutions.data());
  for (size_t c = 0; c < rhs.cols(); ++c) {
    EXPECT_EQ((*s1)[c].iterations, (*s2)[c].iterations) << "system " << c;
  }
}

TEST(ParallelSolveTest, ParallelAnalyzeMatchesSerial) {
  // A 6-snapshot sequence with churn; parallel snapshot analysis must be
  // bit-identical to the serial pass.
  RandomGraphOptions opts;
  opts.num_nodes = 60;
  opts.average_degree = 5.0;
  opts.seed = 21;
  TemporalGraphSequence seq(60);
  WeightedGraph current = MakeRandomSparseGraph(opts);
  Rng rng(31);
  for (int t = 0; t < 6; ++t) {
    CAD_CHECK_OK(seq.Append(current));
    current = PerturbGraph(current, 0.2, 0.05, &rng);
  }

  CadOptions serial;
  serial.engine = CommuteEngine::kExact;
  CadOptions parallel = serial;
  parallel.analysis_threads = 4;
  auto a = CadDetector(serial).Analyze(seq);
  auto b = CadDetector(parallel).Analyze(seq);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t t = 0; t < a->size(); ++t) {
    EXPECT_EQ((*a)[t].total_score, (*b)[t].total_score) << "transition " << t;
    ASSERT_EQ((*a)[t].edges.size(), (*b)[t].edges.size());
    for (size_t e = 0; e < (*a)[t].edges.size(); ++e) {
      EXPECT_EQ((*a)[t].edges[e].pair, (*b)[t].edges[e].pair);
      EXPECT_EQ((*a)[t].edges[e].score, (*b)[t].edges[e].score);
    }
    EXPECT_EQ((*a)[t].node_scores, (*b)[t].node_scores);
  }
}

TEST(ParallelSolveTest, ParallelEmbeddingMatchesSerial) {
  RandomGraphOptions opts;
  opts.num_nodes = 200;
  opts.average_degree = 6.0;
  opts.seed = 9;
  const WeightedGraph g = MakeRandomSparseGraph(opts);

  ApproxCommuteOptions serial;
  serial.embedding_dim = 16;
  serial.seed = 11;
  ApproxCommuteOptions parallel = serial;
  parallel.cg.num_threads = 4;

  auto a = ApproxCommuteEmbedding::Build(g, serial);
  auto b = ApproxCommuteEmbedding::Build(g, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embedding().MaxAbsDifference(b->embedding()), 0.0);
}

}  // namespace
}  // namespace cad
