#include "app/pipeline.h"

#include <ostream>

#include "common/strings.h"
#include "common/csv_writer.h"
#include "common/json_writer.h"
#include "obs/obs.h"

namespace cad {

namespace {

/// Ticks the optional heartbeat reporter after a pipeline stage completes.
Status TickStats(const PipelineOptions& options) {
  if (options.stats == nullptr) return Status::OK();
  const Result<bool> emitted = options.stats->Tick();
  return emitted.status();
}

Result<EdgeScoreKind> KindFromName(const std::string& method) {
  if (method == "CAD") return EdgeScoreKind::kCad;
  if (method == "ADJ") return EdgeScoreKind::kAdj;
  if (method == "COM") return EdgeScoreKind::kCom;
  if (method == "SUM") return EdgeScoreKind::kSum;
  return Status::InvalidArgument("not a commute-based method: " + method);
}

Result<PipelineResult> RunCommuteFamily(const TemporalGraphSequence& sequence,
                                        const PipelineOptions& options) {
  PipelineResult result;
  result.method = options.method;

  CadOptions cad_options = options.cad;
  CAD_ASSIGN_OR_RETURN(cad_options.score_kind, KindFromName(options.method));
  cad_options.approx.warm_start = options.warm_start;
  cad_options.approx.refactor_threshold = options.refactor_threshold;
  CadDetector detector(cad_options);

  std::vector<TransitionScores> analyses;
  {
    CAD_TRACE_SPAN("pipeline_score");
    CAD_ASSIGN_OR_RETURN(analyses, detector.Analyze(sequence));
  }
  result.node_scores.reserve(analyses.size());
  for (const TransitionScores& scores : analyses) {
    result.node_scores.push_back(scores.node_scores);
  }
  CAD_RETURN_NOT_OK(TickStats(options));

  {
    CAD_TRACE_SPAN("pipeline_threshold");
    result.delta = CalibrateDelta(analyses, options.nodes_per_transition);
    CAD_METRIC_SET("pipeline.delta", result.delta);
  }
  CAD_RETURN_NOT_OK(TickStats(options));
  {
    CAD_TRACE_SPAN("pipeline_localize");
    result.reports = ApplyThreshold(analyses, result.delta);
  }
  CAD_RETURN_NOT_OK(TickStats(options));

  CAD_TRACE_SPAN("pipeline_classify");
  for (const AnomalyReport& report : result.reports) {
    if (report.edges.empty()) continue;
    std::unique_ptr<CommuteTimeOracle> oracle;
    if (options.classify_cases) {
      CAD_ASSIGN_OR_RETURN(
          oracle, detector.BuildOracle(sequence.Snapshot(report.transition)));
    }
    for (const ScoredEdge& edge : report.edges) {
      ReportedEdge reported;
      reported.transition = report.transition;
      reported.edge = edge;
      if (options.classify_cases) {
        reported.anomaly_case = ClassifyAnomalousEdge(
            edge, oracle->CommuteTime(edge.pair.u, edge.pair.v),
            sequence.Snapshot(report.transition),
            sequence.Snapshot(report.transition + 1));
      }
      result.edges.push_back(reported);
    }
  }
  CAD_METRIC_ADD("pipeline.reported_edges", result.edges.size());
  CAD_RETURN_NOT_OK(TickStats(options));
  return result;
}

Result<PipelineResult> RunNodeScorer(const TemporalGraphSequence& sequence,
                                     const PipelineOptions& options) {
  PipelineResult result;
  result.method = options.method;
  if (options.method == "ACT") {
    CAD_ASSIGN_OR_RETURN(result.node_scores,
                         ActDetector(options.act).ScoreTransitions(sequence));
  } else if (options.method == "CLC") {
    CAD_ASSIGN_OR_RETURN(result.node_scores,
                         ClcDetector(options.clc).ScoreTransitions(sequence));
  } else if (options.method == "AFM") {
    CAD_ASSIGN_OR_RETURN(result.node_scores,
                         AfmDetector(options.afm).ScoreTransitions(sequence));
  } else {
    return Status::InvalidArgument(
        "unknown method '" + options.method +
        "'; expected CAD, ADJ, COM, SUM, ACT, CLC, or AFM");
  }
  CAD_RETURN_NOT_OK(TickStats(options));
  return result;
}

}  // namespace

bool IsCommuteBasedMethod(const std::string& method) {
  return method == "CAD" || method == "ADJ" || method == "COM" ||
         method == "SUM";
}

Result<PipelineResult> RunAnomalyPipeline(const TemporalGraphSequence& sequence,
                                          const PipelineOptions& options) {
  if (sequence.num_snapshots() < 2) {
    return Status::InvalidArgument(
        "the pipeline needs at least two snapshots");
  }
  CAD_RETURN_NOT_OK(ValidateNodesPerTransition(options.nodes_per_transition));
  CAD_DCHECK_OK(sequence.CheckConsistent());
  Result<PipelineResult> result = [&] {
    CAD_TRACE_SPAN("pipeline_run");
    CAD_METRIC_INC("pipeline.runs");
    return IsCommuteBasedMethod(options.method)
               ? RunCommuteFamily(sequence, options)
               : RunNodeScorer(sequence, options);
  }();
  if (result.ok() && sequence.vocabulary() != nullptr) {
    result.ValueOrDie().vocabulary = *sequence.vocabulary();
  }
  // Attach the registry state so callers (cad_cli, tests) can export it
  // without reaching into the obs singletons themselves.
  if (result.ok() && obs::MetricsEnabled()) {
    result.ValueOrDie().metrics = obs::SnapshotMetrics();
  }
  return result;
}

Status WriteEdgeReportCsv(const PipelineResult& result, std::ostream* out) {
  CAD_CHECK(out != nullptr);
  const NodeVocabulary* vocabulary =
      result.vocabulary.has_value() ? &*result.vocabulary : nullptr;
  CsvWriter writer(out, {"transition", "u", "v", "score", "weight_delta",
                         "commute_delta", "case"});
  for (const ReportedEdge& reported : result.edges) {
    writer.WriteRow({std::to_string(reported.transition),
                     NodeLabel(vocabulary, reported.edge.pair.u),
                     NodeLabel(vocabulary, reported.edge.pair.v),
                     FormatDouble(reported.edge.score, 9),
                     FormatDouble(reported.edge.weight_delta, 9),
                     FormatDouble(reported.edge.commute_delta, 9),
                     AnomalyCaseToString(reported.anomaly_case)});
  }
  if (!out->good()) return Status::IoError("edge report write failed");
  return Status::OK();
}

Status WriteNodeScoresCsv(const PipelineResult& result, std::ostream* out,
                          bool only_nonzero) {
  CAD_CHECK(out != nullptr);
  const NodeVocabulary* vocabulary =
      result.vocabulary.has_value() ? &*result.vocabulary : nullptr;
  CsvWriter writer(out, {"transition", "node", "score"});
  for (size_t t = 0; t < result.node_scores.size(); ++t) {
    for (size_t node = 0; node < result.node_scores[t].size(); ++node) {
      const double score = result.node_scores[t][node];
      if (only_nonzero && score == 0.0) continue;
      writer.WriteRow({std::to_string(t),
                       NodeLabel(vocabulary, static_cast<NodeId>(node)),
                       FormatDouble(score, 9)});
    }
  }
  if (!out->good()) return Status::IoError("node score write failed");
  return Status::OK();
}

Status WritePipelineResultJson(const PipelineResult& result,
                               std::ostream* out) {
  CAD_CHECK(out != nullptr);
  const NodeVocabulary* vocabulary =
      result.vocabulary.has_value() ? &*result.vocabulary : nullptr;
  JsonWriter json(out);
  json.BeginObject();
  json.Key("method");
  json.String(result.method);
  json.Key("delta");
  json.Number(result.delta);
  json.Key("num_transitions");
  json.Number(result.node_scores.size());
  json.Key("transitions");
  json.BeginArray();
  for (const AnomalyReport& report : result.reports) {
    if (report.nodes.empty()) continue;  // calm transitions omitted
    json.BeginObject();
    json.Key("transition");
    json.Number(report.transition);
    json.Key("nodes");
    json.BeginArray();
    for (NodeId node : report.nodes) {
      if (vocabulary != nullptr) {
        json.String(NodeLabel(vocabulary, node));
      } else {
        json.Number(static_cast<size_t>(node));
      }
    }
    json.EndArray();
    json.Key("edges");
    json.BeginArray();
    for (const ReportedEdge& reported : result.edges) {
      if (reported.transition != report.transition) continue;
      json.BeginObject();
      json.Key("u");
      if (vocabulary != nullptr) {
        json.String(NodeLabel(vocabulary, reported.edge.pair.u));
      } else {
        json.Number(static_cast<size_t>(reported.edge.pair.u));
      }
      json.Key("v");
      if (vocabulary != nullptr) {
        json.String(NodeLabel(vocabulary, reported.edge.pair.v));
      } else {
        json.Number(static_cast<size_t>(reported.edge.pair.v));
      }
      json.Key("score");
      json.Number(reported.edge.score);
      json.Key("weight_delta");
      json.Number(reported.edge.weight_delta);
      json.Key("commute_delta");
      json.Number(reported.edge.commute_delta);
      json.Key("case");
      json.String(AnomalyCaseToString(reported.anomaly_case));
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  (*out) << "\n";
  if (!out->good()) return Status::IoError("json report write failed");
  return Status::OK();
}

}  // namespace cad
