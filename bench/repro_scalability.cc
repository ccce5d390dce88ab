// Reproduces the scalability study of §4.1.3 — per-transition processing
// time of CAD, COM, ADJ, ACT and CLC on graphs of increasing size — and
// doubles as the million-node scale harness: `--generator rmat` drives the
// sweep with power-law R-MAT graphs (the regime where the approximate
// engine is the only tractable one).
//
// Expected shape (paper, on 1e7 nodes): ADJ fastest, then ACT, then CLC
// (~1/3 of CAD; degrades with density), with CAD ~ COM the slowest but still
// near-linear. Absolute numbers differ (C++ vs the paper's python).
//
// Besides the human-readable table, the run is summarized into a
// machine-readable JSON file (--solver_json, default BENCH_solver.json):
// one row per (size, thread-count) pair with wall times and CG iteration
// counts, plus per-size incremental-maintenance rows under
// --stream_windows. CI's perf-smoke job parses this file on every run.
//
// Scale tiers:
//   PR CI:    --sizes 1000,10000 --threads_list 1,4   (seconds)
//   nightly:  --sizes 10000,100000,1000000 --threads_list 1,4,8
//             --generator rmat --full_detectors=false
//             (the 1M x 10M R-MAT tier; minutes)

#include <fstream>
#include <iostream>

#include "commute/approx_commute.h"
#include "commute/solver_cache.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/act_detector.h"
#include "core/cad_detector.h"
#include "core/clc_detector.h"
#include "datagen/random_graphs.h"
#include "datagen/rmat.h"
#include "graph/edge_delta.h"
#include "obs/obs.h"
#include "report.h"

namespace cad {
namespace {

/// Current value of the pcg.iterations counter (0 when obs is compiled out).
uint64_t PcgIterationCounter() {
  for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
    if (name == "pcg.iterations") return value;
  }
  return 0;
}

std::vector<int64_t> ParseSizeList(const std::string& text,
                                   const char* flag_name) {
  std::vector<int64_t> sizes;
  for (const std::string& field : Split(text, ',')) {
    if (field.empty()) continue;
    Result<int64_t> value = ParseInt64(field);
    CAD_CHECK(value.ok() && *value > 0)
        << "--" << flag_name << ": bad entry '" << field << "'";
    sizes.push_back(*value);
  }
  CAD_CHECK(!sizes.empty()) << "--" << flag_name << " is empty";
  return sizes;
}

struct RunResult {
  int64_t n = 0;
  size_t m = 0;
  int64_t threads = 1;
  double cad_seconds = 0.0;
  uint64_t cad_pcg_iterations = 0;
  // Solve stage: the k-system Laplacian solves behind one embedding build
  // per snapshot, isolated from the scoring and generation around it.
  double solve_seconds = 0.0;
  // Baseline detectors (only when --full_detectors).
  bool full_detectors = false;
  double com_seconds = 0.0;
  double adj_seconds = 0.0;
  double act_seconds = 0.0;
  double clc_seconds = 0.0;
};

/// Builds the embedding for every snapshot through one shared cache, as in
/// the detector loop, and returns the best wall time over `reps`
/// repetitions (best-of-N filters the scheduler noise of shared machines;
/// the work is deterministic, so the minimum is the cleanest estimate of
/// the true cost).
double TimeSolveStage(const TemporalGraphSequence& sequence,
                      const ApproxCommuteOptions& options, int64_t reps) {
  double best = 0.0;
  for (int64_t rep = 0; rep < reps; ++rep) {
    CommuteSolverCache cache;
    Timer timer;
    for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
      auto oracle =
          ApproxCommuteEmbedding::Build(sequence.Snapshot(t), options, &cache);
      CAD_CHECK(oracle.ok()) << oracle.status().ToString();
    }
    const double elapsed = timer.ElapsedSeconds();
    if (rep == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Per-size incremental-maintenance cost measurement (DESIGN.md §12): a
/// low-churn R-MAT stream is pushed through (a) the incremental chain —
/// full build on window 0, then DiffSnapshots + BuildIncremental per
/// window, falling back to a full build when the state is inapplicable,
/// exactly as the detector does — and (b) the warm-start rebuild chain the
/// incremental path must beat, a full Build per window through its own
/// cache. Reported per stream: RHS columns re-solved vs total across the
/// incremental windows, and both chains' wall-clock (best of `reps`).
struct IncrementalResult {
  int64_t n = 0;
  size_t m = 0;
  size_t windows = 0;
  double churn_fraction = 0.0;
  size_t rhs_resolved = 0;
  size_t rhs_total = 0;
  size_t fallbacks = 0;
  double incremental_seconds = 0.0;
  double rebuild_seconds = 0.0;
  double resolved_fraction() const {
    return rhs_total > 0 ? static_cast<double>(rhs_resolved) /
                               static_cast<double>(rhs_total)
                         : 0.0;
  }
  double speedup() const {
    return incremental_seconds > 0.0 ? rebuild_seconds / incremental_seconds
                                     : 0.0;
  }
};

IncrementalResult TimeIncrementalStage(const TemporalGraphSequence& sequence,
                                       ApproxCommuteOptions options,
                                       int64_t reps) {
  // Incremental maintenance requires the edge-keyed JL draws.
  options.warm_start = true;
  const size_t k = options.embedding_dim;

  IncrementalResult result;
  result.windows = sequence.num_snapshots();

  ApproxCommuteOptions incremental = options;
  incremental.incremental = true;
  for (int64_t rep = 0; rep < reps; ++rep) {
    CommuteSolverCache cache;
    size_t fallbacks = 0;
    size_t fallback_columns = 0;
    Timer timer;
    for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
      if (t > 0) {
        const EdgeDelta delta =
            DiffSnapshots(sequence.Snapshot(t - 1), sequence.Snapshot(t));
        auto oracle = ApproxCommuteEmbedding::BuildIncremental(
            sequence.Snapshot(t), delta, incremental, &cache);
        if (oracle.ok()) continue;
        ++fallbacks;
        fallback_columns += k;
      }
      auto full = ApproxCommuteEmbedding::Build(sequence.Snapshot(t),
                                                incremental, &cache);
      CAD_CHECK(full.ok()) << full.status().ToString();
    }
    const double elapsed = timer.ElapsedSeconds();
    if (rep == 0 || elapsed < result.incremental_seconds) {
      result.incremental_seconds = elapsed;
    }
    // The work is deterministic, so the counters agree across reps.
    result.rhs_resolved = cache.rhs_resolved() + fallback_columns;
    result.rhs_total = cache.rhs_resolved() + cache.rhs_reused() +
                       fallback_columns;
    result.fallbacks = fallbacks;
  }

  for (int64_t rep = 0; rep < reps; ++rep) {
    CommuteSolverCache cache;
    Timer timer;
    for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
      auto oracle = ApproxCommuteEmbedding::Build(sequence.Snapshot(t),
                                                  options, &cache);
      CAD_CHECK(oracle.ok()) << oracle.status().ToString();
    }
    const double elapsed = timer.ElapsedSeconds();
    if (rep == 0 || elapsed < result.rebuild_seconds) {
      result.rebuild_seconds = elapsed;
    }
  }
  return result;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string sizes_flag = "1000,10000";
  std::string threads_flag = "1";
  std::string generator = "er";
  int64_t k = 10;
  int64_t clc_samples = 32;
  int64_t edge_factor = 10;
  double average_degree = 2.0;
  double tolerance = 1e-8;
  bool full_detectors = true;
  int64_t solve_reps = 1;
  int64_t stream_windows = 0;
  double churn_fraction = 0.001;
  double incremental_tolerance = 0.15;
  std::string solver_json = "BENCH_solver.json";
  flags.AddString("sizes", &sizes_flag,
                  "comma-separated node counts (e.g. 10000,100000,1000000)");
  flags.AddString("threads_list", &threads_flag,
                  "comma-separated worker-thread counts per size");
  flags.AddString("generator", &generator,
                  "graph family: 'er' (sparse Erdos-Renyi, paper setup) or "
                  "'rmat' (power-law, the 1M-node harness)");
  flags.AddInt64("k", &k, "embedding dimension (paper: 10)");
  flags.AddInt64("clc_samples", &clc_samples,
                 "pivot count for sampled closeness centrality");
  flags.AddInt64("edge_factor", &edge_factor,
                 "rmat only: edges = edge_factor * n (10 -> 1M nodes/10M "
                 "edges)");
  flags.AddDouble("avg_degree", &average_degree,
                  "er only: average degree (paper's sparsity ~ degree 2)");
  flags.AddDouble("tolerance", &tolerance, "CG relative-residual target");
  flags.AddBool("full_detectors", &full_detectors,
                "run the COM/ADJ/ACT/CLC baselines too (turn off for the "
                "1M tier, where only CAD is under test)");
  flags.AddInt64("solve_reps", &solve_reps,
                 "repetitions per solve-stage timing; the best run is "
                 "reported (use 3+ on noisy shared machines)");
  flags.AddInt64("stream_windows", &stream_windows,
                 "incremental stage: per size, push an R-MAT stream of this "
                 "many low-churn windows through the incremental chain vs "
                 "the warm-start rebuild chain and report per-window cost "
                 "(0 skips the stage)");
  flags.AddDouble("churn_fraction", &churn_fraction,
                  "incremental stage: fraction of edges changed per window "
                  "(0.001 = the 0.1%-churn regime of DESIGN.md §12)");
  flags.AddDouble("incremental_tolerance", &incremental_tolerance,
                  "incremental stage: relative-residual bound for reusing a "
                  "cached embedding column");
  flags.AddString("solver_json", &solver_json,
                  "write the machine-readable summary here (empty to skip)");
  CAD_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) return 0;

  const std::vector<int64_t> sizes = ParseSizeList(sizes_flag, "sizes");
  const std::vector<int64_t> thread_counts =
      ParseSizeList(threads_flag, "threads_list");
  const bool rmat = generator == "rmat";
  CAD_CHECK(rmat || generator == "er")
      << "--generator must be 'er' or 'rmat', got '" << generator << "'";

  bench::Banner("Scalability (paper §4.1.3): per-transition runtime vs n");
  std::cout << "  generator = " << generator << ", k = " << k
            << ", tolerance = " << tolerance << "\n";

  const obs::ScopedMetricsEnable metrics_enable;

  std::vector<RunResult> results;
  bench::Table table(
      {"n", "m", "threads", "CAD (s)", "pcg iters", "solve (s)"});
  for (const int64_t n : sizes) {
    // One transition per size, shared across thread counts so rows within a
    // size are directly comparable.
    TemporalGraphSequence sequence;
    if (rmat) {
      RmatTemporalOptions gen;
      gen.base.num_nodes = static_cast<size_t>(n);
      gen.base.num_edges = static_cast<size_t>(n * edge_factor);
      gen.base.seed = static_cast<uint64_t>(n);
      gen.num_snapshots = 2;
      gen.anomaly_snapshot = 1;
      auto made = MakeRmatTemporalSequence(gen);
      CAD_CHECK(made.ok()) << made.status().ToString();
      sequence = std::move(made).ValueOrDie();
    } else {
      RandomGraphOptions gen;
      gen.num_nodes = static_cast<size_t>(n);
      gen.average_degree = average_degree;
      gen.seed = static_cast<uint64_t>(n);
      sequence = MakeRandomTransition(gen, 0.1, 0.01);
    }

    for (const int64_t threads : thread_counts) {
      RunResult result;
      result.n = n;
      result.m = sequence.Snapshot(0).num_edges();
      result.threads = threads;

      ApproxCommuteOptions approx;
      approx.embedding_dim = static_cast<size_t>(k);
      approx.cg.tolerance = tolerance;
      approx.cg.num_threads = static_cast<size_t>(threads);

      // Solve stage: embedding builds only.
      result.solve_seconds = TimeSolveStage(sequence, approx, solve_reps);

      // Full CAD pass (generation-to-report).
      CadOptions cad_options;
      cad_options.engine = CommuteEngine::kApprox;
      cad_options.approx = approx;
      CadDetector cad(cad_options);
      const auto time_scorer = [&sequence](NodeScorer* scorer) {
        Timer timer;
        auto scores = scorer->ScoreTransitions(sequence);
        CAD_CHECK(scores.ok())
            << scorer->name() << ": " << scores.status().ToString();
        return timer.ElapsedSeconds();
      };
      const uint64_t iterations_before = PcgIterationCounter();
      result.cad_seconds = time_scorer(&cad);
      result.cad_pcg_iterations = PcgIterationCounter() - iterations_before;

      if (full_detectors) {
        result.full_detectors = true;
        CadOptions com_options = cad_options;
        com_options.score_kind = EdgeScoreKind::kCom;
        CadDetector com(com_options);
        CadOptions adj_options;
        adj_options.score_kind = EdgeScoreKind::kAdj;
        adj_options.engine = CommuteEngine::kApprox;
        adj_options.approx.embedding_dim = 1;  // ADJ ignores commute times;
                                               // use the cheapest oracle
        CadDetector adj(adj_options);
        ActDetector act;
        ClosenessOptions clc_options;
        clc_options.num_samples = static_cast<size_t>(clc_samples);
        ClcDetector clc(clc_options);
        result.com_seconds = time_scorer(&com);
        result.adj_seconds = time_scorer(&adj);
        result.act_seconds = time_scorer(&act);
        result.clc_seconds = time_scorer(&clc);
      }

      table.AddRow({std::to_string(result.n), std::to_string(result.m),
                    std::to_string(result.threads),
                    bench::Fixed(result.cad_seconds, 3),
                    std::to_string(result.cad_pcg_iterations),
                    bench::Fixed(result.solve_seconds, 3)});
      results.push_back(result);
    }
  }
  table.Print();
  if (full_detectors) {
    std::cout << "  (expected ordering per the paper: ADJ < ACT <= CLC < CAD"
              << " ~= COM, all near-linear in n)\n";
  }

  std::vector<IncrementalResult> incremental_results;
  if (stream_windows > 0) {
    bench::Banner("Incremental maintenance (DESIGN.md §12): per-window cost");
    std::cout << "  windows = " << stream_windows
              << ", churn/window = " << churn_fraction
              << ", tolerance = " << incremental_tolerance << "\n";
    bench::Table inc_table({"n", "m", "windows", "rhs resolved", "rhs total",
                            "fraction", "incr (s)", "rebuild (s)", "speedup"});
    for (const int64_t n : sizes) {
      // Dedicated low-churn stream: jitter touches every edge's weight, so
      // it must be off for the delta to stay sparse; each rewire changes
      // two edges (one deleted, one inserted), hence the halved fraction.
      RmatTemporalOptions gen;
      gen.base.num_nodes = static_cast<size_t>(n);
      gen.base.num_edges = static_cast<size_t>(n * edge_factor);
      gen.base.seed = static_cast<uint64_t>(n);
      gen.num_snapshots = static_cast<size_t>(stream_windows);
      gen.jitter = 0.0;
      gen.rewire_fraction = churn_fraction / 2.0;
      gen.anomaly_snapshot = gen.num_snapshots;  // no burst
      auto made = MakeRmatTemporalSequence(gen);
      CAD_CHECK(made.ok()) << made.status().ToString();
      const TemporalGraphSequence stream = std::move(made).ValueOrDie();

      ApproxCommuteOptions options;
      options.embedding_dim = static_cast<size_t>(k);
      options.cg.tolerance = tolerance;
      options.cg.num_threads = static_cast<size_t>(thread_counts.front());
      options.incremental_tolerance = incremental_tolerance;
      IncrementalResult inc = TimeIncrementalStage(stream, options, solve_reps);
      inc.n = n;
      inc.m = stream.Snapshot(0).num_edges();
      inc.churn_fraction = churn_fraction;
      inc_table.AddRow({std::to_string(inc.n), std::to_string(inc.m),
                        std::to_string(inc.windows),
                        std::to_string(inc.rhs_resolved),
                        std::to_string(inc.rhs_total),
                        bench::Fixed(inc.resolved_fraction(), 3),
                        bench::Fixed(inc.incremental_seconds, 3),
                        bench::Fixed(inc.rebuild_seconds, 3),
                        bench::Fixed(inc.speedup(), 2) + "x"});
      incremental_results.push_back(inc);
    }
    inc_table.Print();
  }
  bench::PrintSolverMetrics(obs::SnapshotMetrics());

  if (!solver_json.empty()) {
    std::ofstream out(solver_json);
    if (!out.is_open()) {
      std::cerr << "cannot open --solver_json file " << solver_json << "\n";
      return 1;
    }
    JsonWriter json(&out);
    json.BeginObject();
    json.Key("bench");
    json.String("repro_scalability");
    json.Key("generator");
    json.String(generator);
    json.Key("k");
    json.Number(k);
    json.Key("tolerance");
    json.Number(tolerance);
    json.Key("rows");
    json.BeginArray();
    for (const RunResult& result : results) {
      json.BeginObject();
      json.Key("n");
      json.Number(result.n);
      json.Key("m");
      json.Number(result.m);
      json.Key("threads");
      json.Number(result.threads);
      json.Key("cad_seconds");
      json.Number(result.cad_seconds);
      json.Key("cad_pcg_iterations");
      json.Number(static_cast<size_t>(result.cad_pcg_iterations));
      json.Key("solve_seconds");
      json.Number(result.solve_seconds);
      if (result.full_detectors) {
        json.Key("com_seconds");
        json.Number(result.com_seconds);
        json.Key("adj_seconds");
        json.Number(result.adj_seconds);
        json.Key("act_seconds");
        json.Number(result.act_seconds);
        json.Key("clc_seconds");
        json.Number(result.clc_seconds);
      }
      json.EndObject();
    }
    json.EndArray();
    if (!incremental_results.empty()) {
      json.Key("incremental_rows");
      json.BeginArray();
      for (const IncrementalResult& inc : incremental_results) {
        json.BeginObject();
        json.Key("n");
        json.Number(inc.n);
        json.Key("m");
        json.Number(inc.m);
        json.Key("windows");
        json.Number(inc.windows);
        json.Key("churn_fraction");
        json.Number(inc.churn_fraction);
        json.Key("rhs_resolved");
        json.Number(inc.rhs_resolved);
        json.Key("rhs_total");
        json.Number(inc.rhs_total);
        json.Key("resolved_fraction");
        json.Number(inc.resolved_fraction());
        json.Key("fallbacks");
        json.Number(inc.fallbacks);
        json.Key("incremental_seconds");
        json.Number(inc.incremental_seconds);
        json.Key("rebuild_seconds");
        json.Number(inc.rebuild_seconds);
        json.Key("incremental_speedup");
        json.Number(inc.speedup());
        json.EndObject();
      }
      json.EndArray();
    }
    json.EndObject();
    out << "\n";
    std::cout << "  solver summary written to " << solver_json << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
