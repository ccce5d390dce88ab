#ifndef CAD_APP_PIPELINE_H_
#define CAD_APP_PIPELINE_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/act_detector.h"
#include "core/afm_detector.h"
#include "core/cad_detector.h"
#include "core/case_classifier.h"
#include "core/clc_detector.h"
#include "core/threshold.h"
#include "graph/node_vocabulary.h"
#include "graph/temporal_graph.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"

namespace cad {

/// \brief End-to-end configuration for the anomaly pipeline (and the
/// `cad_cli` tool built on it).
struct PipelineOptions {
  /// Method name: "CAD", "ADJ", "COM", "SUM" (commute-based family with
  /// edge-level localization) or "ACT", "CLC", "AFM" (node-score-only
  /// baselines).
  std::string method = "CAD";
  /// Target average anomalous nodes per transition for the global threshold
  /// (commute-based family only). RunAnomalyPipeline rejects a negative or
  /// NaN value with InvalidArgument before any work.
  double nodes_per_transition = 5.0;
  /// Commute-based family settings (engine, k, seed).
  CadOptions cad;
  /// Baseline settings.
  ActOptions act;
  ClosenessOptions clc;
  AfmOptions afm;
  /// Attach the paper's Case 1/2/3 labels to reported anomalous edges
  /// (commute-based family only; costs one extra oracle build per flagged
  /// transition).
  bool classify_cases = true;
  /// Solver performance knobs for the commute-based family. These are the
  /// authoritative pipeline-level switches: they are copied into
  /// cad.approx (overriding whatever the caller left there) so that CLI and
  /// bench frontends have a single place to flip them.
  /// Warm-start consecutive snapshot solves from the previous embedding
  /// (see ApproxCommuteOptions::warm_start).
  bool warm_start = false;
  /// IC(0) refactorization trigger under warm_start
  /// (see CommuteSolverCache).
  double refactor_threshold = 0.1;
  /// No effect; removed together with the benchmark harness's assignment.
  bool block_solver = false;
  /// Optional heartbeat reporter (not owned; must outlive the run). The
  /// pipeline ticks it once per completed stage (score, threshold, localize,
  /// classify for the commute family; score for the node-score baselines),
  /// so a StatsReporter(out, 1) emits a progress record after every stage of
  /// a long batch run. nullptr disables the heartbeat.
  obs::StatsReporter* stats = nullptr;
};

/// \brief One classified anomalous edge in the pipeline output.
struct ReportedEdge {
  size_t transition = 0;
  ScoredEdge edge;
  AnomalyCase anomaly_case = AnomalyCase::kUnclassified;
};

/// \brief Full pipeline output.
struct PipelineResult {
  std::string method;
  /// Per-transition node anomaly scores (all methods).
  TransitionNodeScores node_scores;
  /// Thresholded localization output (commute-based family; empty for
  /// ACT/CLC/AFM, which do not localize edges).
  std::vector<AnomalyReport> reports;
  /// Flat list of reported edges with case labels, for CSV export.
  std::vector<ReportedEdge> edges;
  /// The calibrated threshold (commute-based family).
  double delta = 0.0;
  /// Snapshot of the global metrics registry taken when the pipeline
  /// finished; empty unless metrics recording was enabled (see src/obs/).
  obs::MetricsSnapshot metrics;
  /// Copied from the input sequence when it carries one (named-node inputs,
  /// DESIGN.md §8). The CSV/JSON writers then render original names in the
  /// u/v/node columns; without a vocabulary output is unchanged.
  std::optional<NodeVocabulary> vocabulary;
};

/// True if `method` names the commute-based (edge-localizing) family.
bool IsCommuteBasedMethod(const std::string& method);

/// \brief Runs the configured method over the sequence: scores every
/// transition, calibrates the global threshold, extracts anomaly sets, and
/// (optionally) classifies each reported edge into the paper's taxonomy.
[[nodiscard]] Result<PipelineResult> RunAnomalyPipeline(const TemporalGraphSequence& sequence,
                                          const PipelineOptions& options);

/// \brief Writes the flat anomalous-edge list as CSV:
/// transition,u,v,score,weight_delta,commute_delta,case.
[[nodiscard]] Status WriteEdgeReportCsv(const PipelineResult& result, std::ostream* out);

/// \brief Writes per-transition node scores as CSV: transition,node,score.
/// With `only_nonzero`, rows with score 0 are skipped.
[[nodiscard]] Status WriteNodeScoresCsv(const PipelineResult& result, std::ostream* out,
                          bool only_nonzero = true);

/// \brief Writes the full result as one JSON document:
/// {method, delta, transitions: [{transition, nodes, edges: [{u, v, score,
/// weight_delta, commute_delta, case}]}]}. Node scores are omitted (use the
/// CSV for bulk scores). With a vocabulary, u/v and the nodes array are the
/// original name strings instead of integer ids.
[[nodiscard]] Status WritePipelineResultJson(const PipelineResult& result,
                               std::ostream* out);

}  // namespace cad

#endif  // CAD_APP_PIPELINE_H_
