#ifndef CAD_CORE_CAD_DETECTOR_H_
#define CAD_CORE_CAD_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "commute/approx_commute.h"
#include "commute/exact_commute.h"
#include "core/detector.h"
#include "core/edge_scores.h"

namespace cad {

/// \brief Which commute-time engine the detector uses per snapshot.
enum class CommuteEngine {
  /// Dense pseudoinverse; exact, O(n^3). The paper uses this for n <= a few
  /// hundred (toy, Enron).
  kExact,
  /// Khoa-Chawla embedding; near-linear, (1±eps) accurate. The paper uses
  /// this with k=50 for the larger data sets.
  kApprox,
  /// kExact for snapshots up to 400 nodes, else kApprox.
  kAuto,
};

/// \brief Configuration of CadDetector (and its ADJ/COM/SUM variants).
struct CadOptions {
  /// Score fusion rule; kCad is the paper's method, other kinds turn this
  /// detector into the corresponding baseline over the same commute engine.
  EdgeScoreKind score_kind = EdgeScoreKind::kCad;
  CommuteEngine engine = CommuteEngine::kAuto;
  /// Approximate-engine settings (embedding dimension k, CG, seed).
  ApproxCommuteOptions approx;
  /// Exact-engine numerical settings.
  CommuteTimeOptions exact;
  /// Churn ratio (changed edges / larger edge set; see EdgeDelta) above
  /// which BuildOracleIncremental gives up on the incremental paths and
  /// runs a full rebuild — low-rank updates stop paying off once the delta
  /// is a sizable fraction of the graph. Only read by
  /// BuildOracleIncremental.
  double churn_threshold = 0.25;
  /// Worker threads for the per-pair commute-time lookups of every
  /// transition Analyze, AnalyzeTransition and OnlineCadMonitor score (see
  /// ComputeTransitionScores). Snapshots are still visited in order with two
  /// oracles live, so threading costs no memory; the builds' Laplacian
  /// solves thread through approx.cg.num_threads. Results are bit-identical
  /// at any count. Defaults to the CPUs this process may run on.
  size_t analysis_threads = HardwareThreads();
};

/// \brief The paper's Algorithm 1: commute-time based anomaly localization
/// over a temporal graph sequence.
///
/// `Analyze` produces full per-transition edge scores (each snapshot's
/// commute oracle is built once and shared between its two adjacent
/// transitions). Thresholding into anomalous edge/node sets is a separate,
/// cheap step — see core/threshold.h — so a single analysis supports
/// ROC sweeps and the paper's global-delta calibration.
class CadDetector : public NodeScorer {
 public:
  explicit CadDetector(CadOptions options = CadOptions())
      : options_(options) {}

  /// Scores every transition. Requires >= 2 snapshots.
  [[nodiscard]] Result<std::vector<TransitionScores>> Analyze(
      const TemporalGraphSequence& sequence) const;

  /// Scores a single transition between two standalone snapshots.
  [[nodiscard]] Result<TransitionScores> AnalyzeTransition(const WeightedGraph& before,
                                             const WeightedGraph& after) const;

  [[nodiscard]] Result<TransitionNodeScores> ScoreTransitions(
      const TemporalGraphSequence& sequence) const override;

  std::string name() const override {
    return EdgeScoreKindToString(options_.score_kind);
  }

  const CadOptions& options() const { return options_; }

  /// Builds the configured commute-time oracle for one snapshot. Exposed so
  /// that streaming callers (OnlineCadMonitor) can reuse each snapshot's
  /// oracle across its two adjacent transitions.
  ///
  /// `cache` carries temporal warm-start state: when the approximate engine
  /// is selected and approx.warm_start is set, it brings the previous
  /// snapshot's embedding and IC(0) factorization into this build (see
  /// CommuteSolverCache). Ignored by the exact engine; a nullptr cache
  /// gives the stateless build.
  [[nodiscard]] Result<std::unique_ptr<CommuteTimeOracle>> BuildOracle(
      const Snapshot& snapshot, CommuteSolverCache* cache = nullptr) const;

  /// BuildOracle via the incremental maintenance paths (DESIGN.md §12):
  /// diffs `previous` -> `snapshot`, and when the churn ratio stays within
  /// churn_threshold updates the previous state instead of rebuilding — a
  /// Woodbury update of `previous_oracle`'s pseudoinverse for the exact
  /// engine, churn-scoped re-solves of the cache's embedding for the
  /// approximate one. Any inapplicability (first window, node growth,
  /// component change, engine switch, excessive churn, numerical breakdown)
  /// falls back to the full BuildOracle, so the result is always a valid
  /// oracle for `snapshot`; fallbacks are counted under
  /// commute.incremental_rebuild_*.
  [[nodiscard]] Result<std::unique_ptr<CommuteTimeOracle>>
  BuildOracleIncremental(const Snapshot& snapshot, const Snapshot& previous,
                         const CommuteTimeOracle* previous_oracle,
                         CommuteSolverCache* cache) const;

 private:
  /// True when a snapshot on `num_nodes` nodes is built with the exact
  /// engine (kExact, or kAuto at or below the 400-node crossover).
  bool UsesExactEngine(size_t num_nodes) const;

  CadOptions options_;
};

}  // namespace cad

#endif  // CAD_CORE_CAD_DETECTOR_H_
