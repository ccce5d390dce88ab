// Randomized round-trip and algebraic invariant properties over the graph
// and I/O substrates.

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/random_graphs.h"
#include "graph/snapshot.h"
#include "io/temporal_io.h"
#include "linalg/vector_ops.h"

namespace cad {
namespace {

class RoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

/// Write -> read recovers random temporal sequences bit-for-bit (weights are
/// serialized at full precision).
TEST_P(RoundTripSweep, TemporalIoIsLossless) {
  Rng rng(GetParam());
  const size_t n = 5 + rng.UniformInt(40);
  const size_t num_snapshots = 1 + rng.UniformInt(5);
  TemporalGraphSequence original(n);
  for (size_t t = 0; t < num_snapshots; ++t) {
    WeightedGraph g(n);
    const size_t edges = rng.UniformInt(3 * n);
    for (size_t e = 0; e < edges; ++e) {
      const auto u = static_cast<NodeId>(rng.UniformInt(n));
      const auto v = static_cast<NodeId>(rng.UniformInt(n));
      if (u == v) continue;
      // Awkward weights: tiny, huge, and non-representable decimals.
      const double weight = std::ldexp(rng.Uniform(0.1, 1.0),
                                       static_cast<int>(rng.UniformInt(60)) - 30);
      CAD_CHECK_OK(g.SetEdge(u, v, weight));
    }
    CAD_CHECK_OK(original.Append(std::move(g)));
  }

  std::ostringstream out;
  ASSERT_TRUE(WriteTemporalEdgeList(original, &out).ok());
  std::istringstream in(out.str());
  auto parsed = ReadTemporalEdgeList(&in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_snapshots(), original.num_snapshots());
  for (size_t t = 0; t < num_snapshots; ++t) {
    EXPECT_TRUE(parsed->Snapshot(t) == original.Snapshot(t)) << "snapshot " << t;
  }
}

/// The graph Laplacian is positive semidefinite: x^T L x >= 0 for random x,
/// and exactly 0 for the all-ones vector.
TEST_P(RoundTripSweep, LaplacianQuadraticFormNonNegative) {
  RandomGraphOptions options;
  options.num_nodes = 30;
  options.average_degree = 5.0;
  options.seed = GetParam() + 500;
  const WeightedGraph g = MakeRandomSparseGraph(options);
  const CsrMatrix l = ToLaplacianCsr(g);
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x(30);
    for (double& v : x) v = rng.Normal();
    EXPECT_GE(Dot(x, l.Multiply(x)), -1e-9);
  }
  const std::vector<double> ones(30, 1.0);
  EXPECT_NEAR(Dot(ones, l.Multiply(ones)), 0.0, 1e-9);
  // The quadratic form equals sum_e w_e (x_u - x_v)^2 for a random x.
  std::vector<double> x(30);
  for (double& v : x) v = rng.Normal();
  double by_edges = 0.0;
  for (const Edge& e : g.Edges()) {
    by_edges += e.weight * (x[e.u] - x[e.v]) * (x[e.u] - x[e.v]);
  }
  EXPECT_NEAR(Dot(x, l.Multiply(x)), by_edges, 1e-8 * (1.0 + by_edges));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSweep,
                         ::testing::Values(10, 20, 30, 40, 50));

}  // namespace
}  // namespace cad
