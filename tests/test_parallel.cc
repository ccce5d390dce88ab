#include "common/parallel.h"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "commute/approx_commute.h"
#include "core/cad_detector.h"
#include "datagen/random_graphs.h"
#include "datagen/rmat.h"
#include "graph/snapshot.h"
#include "linalg/conjugate_gradient.h"
#include "obs/metrics.h"
#include "obs/obs.h"

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

TEST(HardwareThreadsTest, CountsOnlyAllowedCpus) {
  // Pinned to one CPU (as under `taskset -c N`), the thread may run on one
  // CPU whatever the host has.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(original), &original),
            0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &original)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t single;
  CPU_ZERO(&single);
  CPU_SET(first, &single);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(single), &single), 0);
  const size_t pinned = HardwareThreads();
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(original), &original),
            0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(HardwareThreads(), static_cast<size_t>(CPU_COUNT(&original)));
}

TEST(ParallelSolveTest, ParallelSolveBlockMatchesSerial) {
  RandomGraphOptions opts;
  opts.num_nodes = 300;
  opts.average_degree = 6.0;
  opts.seed = 8;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const CsrMatrix l = ToLaplacianCsr(g, 1e-8 * Snapshot(g).volume());

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

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

uint64_t CounterValue(const std::string& name) {
  for (const auto& [counter_name, value] : obs::SnapshotMetrics().counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

void ExpectSameScores(const TransitionScores& a, const TransitionScores& b,
                      const std::string& what) {
  EXPECT_EQ(Bits(a.total_score), Bits(b.total_score)) << what;
  ASSERT_EQ(a.edges.size(), b.edges.size()) << what;
  for (size_t e = 0; e < a.edges.size(); ++e) {
    const ScoredEdge& x = a.edges[e];
    const ScoredEdge& y = b.edges[e];
    ASSERT_EQ(x.pair, y.pair) << what << " edge " << e;
    EXPECT_EQ(Bits(x.score), Bits(y.score)) << what << " edge " << e;
    EXPECT_EQ(Bits(x.weight_delta), Bits(y.weight_delta)) << what;
    EXPECT_EQ(Bits(x.commute_delta), Bits(y.commute_delta)) << what;
    EXPECT_EQ(Bits(x.commute_before), Bits(y.commute_before)) << what;
  }
  ASSERT_EQ(a.node_scores.size(), b.node_scores.size()) << what;
  for (size_t i = 0; i < a.node_scores.size(); ++i) {
    EXPECT_EQ(Bits(a.node_scores[i]), Bits(b.node_scores[i]))
        << what << " node " << i;
  }
}

TEST(ParallelSolveTest, ParallelAnalyzeMatchesSerial) {
  // Analyze and AnalyzeTransition thread only inside each step (the builds'
  // column groups and the transitions' lookup blocks), so every output bit
  // and every parallel.* counter must match the serial pass. The exact
  // engine runs a small sequence with churn; the approximate one an R-MAT
  // sequence whose k = 20 solves split into 2..7 column groups and whose
  // transitions span more than one 4096-pair lookup block.
  RandomGraphOptions opts;
  opts.num_nodes = 60;
  opts.average_degree = 5.0;
  opts.seed = 21;
  TemporalGraphSequence small(60);
  WeightedGraph current = MakeRandomSparseGraph(opts);
  Rng rng(31);
  for (int t = 0; t < 6; ++t) {
    CAD_CHECK_OK(small.Append(current));
    current = PerturbGraph(current, 0.2, 0.05, &rng);
  }
  RmatTemporalOptions rmat;
  rmat.base.num_nodes = 800;
  rmat.base.num_edges = 4500;
  rmat.base.min_weight = 0.5;
  rmat.base.max_weight = 2.0;
  rmat.base.seed = 9;
  rmat.num_snapshots = 3;
  rmat.anomaly_snapshot = 2;
  Result<TemporalGraphSequence> large = MakeRmatTemporalSequence(rmat);
  ASSERT_TRUE(large.ok()) << large.status().ToString();

  CadOptions exact;
  exact.engine = CommuteEngine::kExact;
  CadOptions cold;
  cold.engine = CommuteEngine::kApprox;
  cold.approx.embedding_dim = 20;
  cold.approx.seed = 5;
  CadOptions warm = cold;
  warm.approx.warm_start = true;
  warm.approx.cg.preconditioner = CgPreconditioner::kIncompleteCholesky;
  const struct {
    const char* name;
    CadOptions options;
    const TemporalGraphSequence* sequence;
  } configs[] = {{"exact", exact, &small},
                 {"approx cold", cold, &*large},
                 {"approx warm_start", warm, &*large}};

  const obs::ScopedMetricsEnable metrics;
  for (const auto& config : configs) {
    std::vector<TransitionScores> serial;
    TransitionScores serial_transition;
    std::pair<uint64_t, uint64_t> serial_parallel_counts;
    for (const size_t threads : {1, 2, 3, 4, 7}) {
      const std::string what = std::string(config.name) +
                               " threads=" + std::to_string(threads);
      CadOptions options = config.options;
      options.analysis_threads = threads;
      options.approx.cg.num_threads = threads;
      const CadDetector detector(options);
      const uint64_t calls = CounterValue("parallel.calls");
      const uint64_t tasks = CounterValue("parallel.tasks");
      Result<std::vector<TransitionScores>> analysis =
          detector.Analyze(*config.sequence);
      const std::pair<uint64_t, uint64_t> parallel_counts = {
          CounterValue("parallel.calls") - calls,
          CounterValue("parallel.tasks") - tasks};
      ASSERT_TRUE(analysis.ok()) << what << ": "
                                 << analysis.status().ToString();
      ASSERT_EQ(analysis->size(), config.sequence->num_transitions()) << what;
      Result<TransitionScores> transition = detector.AnalyzeTransition(
          config.sequence->Snapshot(0), config.sequence->Snapshot(1));
      ASSERT_TRUE(transition.ok()) << what;
      // A two-snapshot timeline scores exactly the sequence's first
      // transition, warm start included.
      ExpectSameScores(*transition, analysis->front(), what + " transition");
      if (threads == 1) {
        serial = std::move(*analysis);
        serial_transition = std::move(*transition);
        serial_parallel_counts = parallel_counts;
        continue;
      }
      for (size_t t = 0; t < serial.size(); ++t) {
        ExpectSameScores((*analysis)[t], serial[t],
                         what + " transition " + std::to_string(t));
      }
      ExpectSameScores(*transition, serial_transition, what + " transition");
      EXPECT_EQ(parallel_counts, serial_parallel_counts) << what;
    }
    if (config.options.engine == CommuteEngine::kApprox) {
      EXPECT_GT(serial.back().edges.size(), 4096u) << config.name;
    }
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
  serial.cg.num_threads = 1;
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
