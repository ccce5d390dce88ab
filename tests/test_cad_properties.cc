// Property-based tests of CAD's mathematical invariances, swept over random
// graph transitions. These pin down behaviours that unit tests on fixed
// examples cannot: how scores transform under relabeling, time reversal,
// weight rescaling, graph composition, and — for the incremental
// maintenance paths of DESIGN.md §12 — agreement with a full rebuild within
// the documented tolerance under randomized churn.

#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "commute/approx_commute.h"
#include "commute/exact_commute.h"
#include "commute/solver_cache.h"
#include "core/cad_detector.h"
#include "datagen/random_graphs.h"
#include "graph/edge_delta.h"
#include "graph/snapshot.h"

namespace cad {
namespace {

CadDetector ExactDetector() {
  CadOptions options;
  options.engine = CommuteEngine::kExact;
  return CadDetector(options);
}

TemporalGraphSequence RandomSequence(uint64_t seed, size_t n = 24) {
  RandomGraphOptions options;
  options.num_nodes = n;
  options.average_degree = 5.0;
  options.seed = seed;
  return MakeRandomTransition(options, 0.25, 0.1);
}

std::map<uint64_t, double> ScoreMap(const TransitionScores& scores) {
  std::map<uint64_t, double> map;
  for (const ScoredEdge& edge : scores.edges) {
    map[edge.pair.Key()] = edge.score;
  }
  return map;
}

class CadPropertySweep : public ::testing::TestWithParam<uint64_t> {};

/// Renumbering nodes by a permutation must permute the scores and nothing
/// else: CAD is purely structural.
TEST_P(CadPropertySweep, PermutationEquivariance) {
  const TemporalGraphSequence seq = RandomSequence(GetParam());
  const size_t n = seq.num_nodes();

  // Build a deterministic permutation: reverse.
  std::vector<NodeId> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<NodeId>(n - 1 - i);

  TemporalGraphSequence permuted(n);
  for (size_t t = 0; t < 2; ++t) {
    WeightedGraph g(n);
    for (const Edge& e : seq.Snapshot(t).Edges()) {
      CAD_CHECK_OK(g.SetEdge(perm[e.u], perm[e.v], e.weight));
    }
    CAD_CHECK_OK(permuted.Append(std::move(g)));
  }

  const CadDetector detector = ExactDetector();
  auto original = detector.Analyze(seq);
  auto relabeled = detector.Analyze(permuted);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(relabeled.ok());

  const auto original_map = ScoreMap((*original)[0]);
  const auto relabeled_map = ScoreMap((*relabeled)[0]);
  ASSERT_EQ(original_map.size(), relabeled_map.size());
  for (const auto& [key, score] : original_map) {
    const NodePair pair{static_cast<NodeId>(key >> 32),
                        static_cast<NodeId>(key & 0xffffffffULL)};
    const NodePair mapped = NodePair::Make(perm[pair.u], perm[pair.v]);
    const auto it = relabeled_map.find(mapped.Key());
    ASSERT_NE(it, relabeled_map.end());
    EXPECT_NEAR(it->second, score, 1e-6 * (1.0 + score));
  }
}

/// Swapping G_t and G_{t+1} leaves every |dA| and |dc| unchanged, so the
/// scores must be identical: CAD is time-reversal symmetric per transition.
TEST_P(CadPropertySweep, TimeReversalSymmetry) {
  const TemporalGraphSequence seq = RandomSequence(GetParam() + 100);
  TemporalGraphSequence reversed(seq.num_nodes());
  CAD_CHECK_OK(reversed.Append(seq.Snapshot(1)));
  CAD_CHECK_OK(reversed.Append(seq.Snapshot(0)));

  const CadDetector detector = ExactDetector();
  auto forward = detector.Analyze(seq);
  auto backward = detector.Analyze(reversed);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_NEAR((*forward)[0].total_score, (*backward)[0].total_score,
              1e-6 * (1.0 + (*forward)[0].total_score));
  const auto forward_map = ScoreMap((*forward)[0]);
  const auto backward_map = ScoreMap((*backward)[0]);
  ASSERT_EQ(forward_map.size(), backward_map.size());
  for (const auto& [key, score] : forward_map) {
    EXPECT_NEAR(backward_map.at(key), score, 1e-6 * (1.0 + score));
  }
}

/// Scaling all weights of both snapshots by alpha leaves commute times
/// unchanged (volume scales by alpha, resistance by 1/alpha) and scales
/// every |dA| by alpha, so every CAD score scales by exactly alpha.
TEST_P(CadPropertySweep, WeightScalingScalesScoresLinearly) {
  const TemporalGraphSequence seq = RandomSequence(GetParam() + 200);
  const double alpha = 3.5;
  TemporalGraphSequence scaled(seq.num_nodes());
  for (size_t t = 0; t < 2; ++t) {
    WeightedGraph g(seq.num_nodes());
    for (const Edge& e : seq.Snapshot(t).Edges()) {
      CAD_CHECK_OK(g.SetEdge(e.u, e.v, alpha * e.weight));
    }
    CAD_CHECK_OK(scaled.Append(std::move(g)));
  }

  const CadDetector detector = ExactDetector();
  auto original = detector.Analyze(seq);
  auto rescaled = detector.Analyze(scaled);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(rescaled.ok());
  const auto original_map = ScoreMap((*original)[0]);
  const auto rescaled_map = ScoreMap((*rescaled)[0]);
  for (const auto& [key, score] : original_map) {
    EXPECT_NEAR(rescaled_map.at(key), alpha * score,
                1e-5 * (1.0 + alpha * score));
  }
}

/// Adding isolated nodes must not disturb any existing pair's score: an
/// inactive participant changes neither weights nor the Laplacian blocks.
TEST_P(CadPropertySweep, IsolatedNodesAreInert) {
  const TemporalGraphSequence seq = RandomSequence(GetParam() + 300);
  const size_t n = seq.num_nodes();
  TemporalGraphSequence padded(n + 5);
  for (size_t t = 0; t < 2; ++t) {
    WeightedGraph g(n + 5);
    for (const Edge& e : seq.Snapshot(t).Edges()) {
      CAD_CHECK_OK(g.SetEdge(e.u, e.v, e.weight));
    }
    CAD_CHECK_OK(padded.Append(std::move(g)));
  }
  const CadDetector detector = ExactDetector();
  auto original = detector.Analyze(seq);
  auto with_padding = detector.Analyze(padded);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(with_padding.ok());
  const auto original_map = ScoreMap((*original)[0]);
  const auto padded_map = ScoreMap((*with_padding)[0]);
  ASSERT_EQ(original_map.size(), padded_map.size());
  for (const auto& [key, score] : original_map) {
    EXPECT_NEAR(padded_map.at(key), score, 1e-6 * (1.0 + score));
  }
}

/// Disjoint union with an *unchanging* copy: the copy contributes no scored
/// change, and (paper Eq. 3 with the global volume) the original pairs'
/// commute deltas scale with the enlarged volume. For the scaling to be a
/// single factor, the transition must preserve the volume (otherwise c_t
/// and c_{t+1} scale by different ratios), so this test uses a
/// weight-transfer transition: mass moves between edges, total unchanged.
TEST_P(CadPropertySweep, DisjointStaticCopyOnlyRescalesVolume) {
  // Volume-preserving transition: shift half of one edge's weight onto
  // another edge.
  RandomGraphOptions base_options;
  base_options.num_nodes = 24;
  base_options.average_degree = 5.0;
  base_options.seed = GetParam() + 400;
  const WeightedGraph before = MakeRandomSparseGraph(base_options);
  const std::vector<Edge> edges = before.Edges();
  ASSERT_GE(edges.size(), 2u);
  WeightedGraph after = before;
  const double transfer = edges[0].weight / 2.0;
  CAD_CHECK_OK(after.AddEdgeWeight(edges[0].u, edges[0].v, -transfer));
  CAD_CHECK_OK(after.AddEdgeWeight(edges[1].u, edges[1].v, transfer));
  ASSERT_NEAR(Snapshot(before).volume(), Snapshot(after).volume(), 1e-9);

  TemporalGraphSequence seq(before.num_nodes());
  CAD_CHECK_OK(seq.Append(before));
  CAD_CHECK_OK(seq.Append(after));
  const size_t n = seq.num_nodes();

  // The static companion graph (same on both sides of the transition).
  RandomGraphOptions companion_options;
  companion_options.num_nodes = n;
  companion_options.average_degree = 5.0;
  companion_options.seed = GetParam() + 999;
  const WeightedGraph companion = MakeRandomSparseGraph(companion_options);

  TemporalGraphSequence combined(2 * n);
  for (size_t t = 0; t < 2; ++t) {
    WeightedGraph g(2 * n);
    for (const Edge& e : seq.Snapshot(t).Edges()) {
      CAD_CHECK_OK(g.SetEdge(e.u, e.v, e.weight));
    }
    for (const Edge& e : companion.Edges()) {
      CAD_CHECK_OK(g.SetEdge(static_cast<NodeId>(e.u + n),
                             static_cast<NodeId>(e.v + n), e.weight));
    }
    CAD_CHECK_OK(combined.Append(std::move(g)));
  }

  const CadDetector detector = ExactDetector();
  auto original = detector.Analyze(seq);
  auto with_copy = detector.Analyze(combined);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(with_copy.ok());

  // No static-copy edge may carry a nonzero score.
  for (const ScoredEdge& edge : (*with_copy)[0].edges) {
    if (edge.pair.u >= n) {
      EXPECT_EQ(edge.score, 0.0);
    }
  }
  // Original pairs' scores scale by the combined/original volume ratio.
  const double ratio = Snapshot(combined.Snapshot(0)).volume() /
                       Snapshot(seq.Snapshot(0)).volume();
  const auto original_map = ScoreMap((*original)[0]);
  const auto combined_map = ScoreMap((*with_copy)[0]);
  for (const auto& [key, score] : original_map) {
    EXPECT_NEAR(combined_map.at(key), ratio * score,
                1e-5 * (1.0 + ratio * score));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CadPropertySweep,
                         ::testing::Values(1, 2, 3, 7, 11));

// ---------------------------------------------------------------------------
// Incremental maintenance (DESIGN.md §12): randomized-churn agreement with a
// full rebuild, within each engine's documented tolerance.

/// Connected random graph: a Hamiltonian path plus random chords, so churn
/// on the chords can never change the component structure.
WeightedGraph ConnectedRandomGraph(size_t n, size_t chords, uint64_t seed) {
  WeightedGraph g(n);
  Rng rng(seed);
  for (NodeId u = 0; u + 1 < n; ++u) {
    CAD_CHECK_OK(g.SetEdge(u, u + 1, 0.5 + rng.Uniform()));
  }
  size_t added = 0;
  while (added < chords) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v || g.HasEdge(u, v)) continue;
    CAD_CHECK_OK(g.SetEdge(u, v, 0.5 + rng.Uniform()));
    ++added;
  }
  return g;
}

/// Random churn that provably preserves connectivity: rescales a few
/// existing edges (never to zero), deletes a chord if one exists off the
/// path, and inserts a fresh chord.
WeightedGraph ChurnedCopy(const WeightedGraph& graph, uint64_t seed) {
  WeightedGraph churned = graph;
  Rng rng(seed);
  const size_t n = graph.num_nodes();
  for (size_t j = 0; j < 3; ++j) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n - 1));
    const double w = churned.EdgeWeight(u, u + 1);
    CAD_CHECK_OK(churned.SetEdge(u, u + 1, w * (0.6 + 0.8 * rng.Uniform())));
  }
  for (const Edge& e : graph.Edges()) {
    if (e.v != e.u + 1) {  // a chord: safe to delete
      CAD_CHECK_OK(churned.SetEdge(e.u, e.v, 0.0));
      break;
    }
  }
  for (size_t attempts = 0; attempts < 64; ++attempts) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v || churned.HasEdge(u, v)) continue;
    CAD_CHECK_OK(churned.SetEdge(u, v, 0.5 + rng.Uniform()));
    break;
  }
  return churned;
}

class IncrementalSweep : public ::testing::TestWithParam<uint64_t> {};

/// Exact engine: the Woodbury-updated oracle matches a full rebuild at
/// 1e-8 relative — the documented tolerance contract for the exact path.
TEST_P(IncrementalSweep, ExactIncrementalMatchesFullRebuild) {
  const WeightedGraph before = ConnectedRandomGraph(20, 8, GetParam());
  const WeightedGraph after = ChurnedCopy(before, GetParam() + 1000);
  const EdgeDelta delta = DiffSnapshots(before, after);
  ASSERT_GT(delta.rank(), 0u);

  auto previous = ExactCommuteTime::Build(before);
  ASSERT_TRUE(previous.ok());
  auto incremental = ExactCommuteTime::BuildIncremental(after, *previous, delta);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  auto rebuilt = ExactCommuteTime::Build(after);
  ASSERT_TRUE(rebuilt.ok());

  const DenseMatrix& a = incremental->laplacian_pseudoinverse();
  const DenseMatrix& b = rebuilt->laplacian_pseudoinverse();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      ASSERT_NEAR(a(i, j), b(i, j), 1e-8 * (1.0 + std::fabs(b(i, j))));
    }
  }
  for (NodeId u = 0; u < after.num_nodes(); ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < after.num_nodes(); ++v) {
      const double full = rebuilt->CommuteTime(u, v);
      ASSERT_NEAR(incremental->CommuteTime(u, v), full, 1e-8 * (1.0 + full));
    }
  }
}

/// Exact engine: a node-count or component-structure change is refused with
/// FailedPrecondition (the caller's cue to rebuild), never silently applied.
TEST_P(IncrementalSweep, ExactIncrementalRefusesStructuralChange) {
  // A pendant node hanging off the random core by a single bridge: deleting
  // the bridge provably disconnects it (chords never touch the pendant).
  WeightedGraph before = ConnectedRandomGraph(14, 4, GetParam() + 50);
  const NodeId pendant = static_cast<NodeId>(before.num_nodes());
  CAD_CHECK_OK(before.GrowTo(before.num_nodes() + 1));
  CAD_CHECK_OK(before.SetEdge(pendant - 1, pendant, 1.0));
  auto previous = ExactCommuteTime::Build(before);
  ASSERT_TRUE(previous.ok());

  WeightedGraph split = before;
  CAD_CHECK_OK(split.SetEdge(pendant - 1, pendant, 0.0));
  const Status component_change =
      ExactCommuteTime::BuildIncremental(
          split, *previous, DiffSnapshots(before, split))
          .status();
  ASSERT_FALSE(component_change.ok());
  EXPECT_EQ(component_change.code(), StatusCode::kFailedPrecondition);

  WeightedGraph grown = before;
  CAD_CHECK_OK(grown.GrowTo(before.num_nodes() + 2));
  const Status node_growth =
      ExactCommuteTime::BuildIncremental(
          grown, *previous, DiffSnapshots(before, grown))
          .status();
  ASSERT_FALSE(node_growth.ok());
  EXPECT_EQ(node_growth.code(), StatusCode::kFailedPrecondition);
}

/// Approximate engine: every column of an incremental build satisfies the
/// residual contract ||y_r - L z_r|| <= max(tolerance, cg_tol) * ||y_r||
/// against the *new* snapshot's right-hand sides and Laplacian — reused and
/// re-solved columns alike — and the incrementally folded RHS block matches
/// a from-scratch JL construction.
TEST_P(IncrementalSweep, ApproxIncrementalHonorsResidualContract) {
  const size_t n = 40;
  const size_t k = 8;
  const WeightedGraph before = ConnectedRandomGraph(n, 24, GetParam() + 200);
  const WeightedGraph after = ChurnedCopy(before, GetParam() + 1200);
  const EdgeDelta delta = DiffSnapshots(before, after);

  ApproxCommuteOptions options;
  options.embedding_dim = k;
  options.warm_start = true;
  options.incremental = true;
  options.incremental_tolerance = 0.15;
  options.cg.tolerance = 1e-10;

  CommuteSolverCache cache;
  auto seed_build = ApproxCommuteEmbedding::Build(before, options, &cache);
  ASSERT_TRUE(seed_build.ok());
  auto incremental =
      ApproxCommuteEmbedding::BuildIncremental(after, delta, options, &cache);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();

  // The folded RHS block must equal the one a full build derives from
  // scratch (same edge-keyed draws, same arithmetic shape).
  const DenseMatrix* folded = cache.IncrementalRhs(n, k);
  ASSERT_NE(folded, nullptr);
  CommuteSolverCache fresh_cache;
  auto fresh = ApproxCommuteEmbedding::Build(after, options, &fresh_cache);
  ASSERT_TRUE(fresh.ok());
  const DenseMatrix* scratch = fresh_cache.IncrementalRhs(n, k);
  ASSERT_NE(scratch, nullptr);
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < k; ++r) {
      ASSERT_NEAR((*folded)(i, r), (*scratch)(i, r),
                  1e-12 * (1.0 + std::fabs((*scratch)(i, r))));
    }
  }

  // Residual contract, column by column, against the new regularized
  // Laplacian (the same epsilon formula the build uses).
  const double epsilon = options.commute.regularization_scale *
                         std::max(Snapshot(after).volume(), 1.0);
  const CsrMatrix laplacian = ToLaplacianCsr(after, epsilon);
  DenseMatrix lz;
  laplacian.MultiplyBlock(incremental->embedding(), &lz);
  for (size_t r = 0; r < k; ++r) {
    double residual2 = 0.0;
    double norm2 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = (*folded)(i, r) - lz(i, r);
      residual2 += d * d;
      norm2 += (*folded)(i, r) * (*folded)(i, r);
    }
    ASSERT_GT(norm2, 0.0);
    // Slack of 2x on the bound: the gate is evaluated in exact arithmetic
    // on the same data, the slack only covers accumulation differences.
    EXPECT_LE(std::sqrt(residual2),
              2.0 * options.incremental_tolerance * std::sqrt(norm2));
  }
}

/// Approximate engine: under small churn the default gate reuses most
/// columns (that is the point of the incremental path), while a
/// zero-tolerance gate forces every column through CG, reproducing the
/// warm-start rebuild's embedding to solver accuracy.
TEST_P(IncrementalSweep, ApproxIncrementalReusesOrRefinesAsConfigured) {
  const size_t n = 40;
  const size_t k = 8;
  const WeightedGraph before = ConnectedRandomGraph(n, 24, GetParam() + 300);
  WeightedGraph after = before;
  // One-edge churn: the smallest honest delta.
  const double w01 = before.EdgeWeight(0, 1);
  CAD_CHECK_OK(after.SetEdge(0, 1, 1.05 * w01));
  const EdgeDelta delta = DiffSnapshots(before, after);
  ASSERT_EQ(delta.rank(), 1u);

  ApproxCommuteOptions options;
  options.embedding_dim = k;
  options.warm_start = true;
  options.incremental = true;
  options.cg.tolerance = 1e-10;

  {
    CommuteSolverCache cache;
    ASSERT_TRUE(ApproxCommuteEmbedding::Build(before, options, &cache).ok());
    auto incremental =
        ApproxCommuteEmbedding::BuildIncremental(after, delta, options, &cache);
    ASSERT_TRUE(incremental.ok());
    EXPECT_GT(cache.state().rhs_reused, 0u);
    EXPECT_LT(cache.state().last_resolved_fraction, 0.5);
  }

  {
    ApproxCommuteOptions strict = options;
    strict.incremental_tolerance = 0.0;  // cg.tolerance floor still applies
    CommuteSolverCache cache;
    ASSERT_TRUE(ApproxCommuteEmbedding::Build(before, strict, &cache).ok());
    auto incremental =
        ApproxCommuteEmbedding::BuildIncremental(after, delta, strict, &cache);
    ASSERT_TRUE(incremental.ok());

    CommuteSolverCache rebuild_cache;
    ASSERT_TRUE(ApproxCommuteEmbedding::Build(before, strict, &rebuild_cache).ok());
    auto rebuilt = ApproxCommuteEmbedding::Build(after, strict, &rebuild_cache);
    ASSERT_TRUE(rebuilt.ok());
    Rng rng(GetParam());
    for (size_t trial = 0; trial < 64; ++trial) {
      const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
      const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
      const double full = rebuilt->CommuteTime(u, v);
      ASSERT_NEAR(incremental->CommuteTime(u, v), full, 1e-5 * (1.0 + full));
    }
  }
}

/// Detector level: BuildOracleIncremental must agree with BuildOracle for
/// the exact engine (Woodbury is exact) and fall back — not fail — on
/// structural change.
TEST_P(IncrementalSweep, DetectorIncrementalOracleAgreesAndFallsBack) {
  // Large enough that ChurnedCopy's ~5-edge delta stays under the exact
  // path's 4 * rank <= n low-rank guard, so the Woodbury path really runs.
  const WeightedGraph before = ConnectedRandomGraph(30, 10, GetParam() + 400);
  const WeightedGraph after = ChurnedCopy(before, GetParam() + 1400);

  CadOptions cad_options;
  cad_options.engine = CommuteEngine::kExact;
  const CadDetector detector(cad_options);

  auto previous = detector.BuildOracle(before);
  ASSERT_TRUE(previous.ok());
  auto incremental = detector.BuildOracleIncremental(
      after, before, previous->get(), nullptr);
  ASSERT_TRUE(incremental.ok());
  auto rebuilt = detector.BuildOracle(after);
  ASSERT_TRUE(rebuilt.ok());
  for (NodeId u = 0; u < after.num_nodes(); ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < after.num_nodes(); ++v) {
      const double full = (*rebuilt)->CommuteTime(u, v);
      ASSERT_NEAR((*incremental)->CommuteTime(u, v), full,
                  1e-8 * (1.0 + full));
    }
  }

  // Splitting the graph must fall back to a full rebuild transparently.
  WeightedGraph split = after;
  CAD_CHECK_OK(split.SetEdge(0, 1, 0.0));
  auto fallback = detector.BuildOracleIncremental(
      split, after, incremental->get(), nullptr);
  ASSERT_TRUE(fallback.ok());
  auto split_rebuilt = detector.BuildOracle(split);
  ASSERT_TRUE(split_rebuilt.ok());
  const double expected = (*split_rebuilt)->CommuteTime(2, 3);
  EXPECT_NEAR((*fallback)->CommuteTime(2, 3), expected,
              1e-8 * (1.0 + expected));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSweep,
                         ::testing::Values(21, 22, 23, 27, 31));

}  // namespace
}  // namespace cad
