#include "app/pipeline.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "datagen/rmat.h"
#include "datagen/toy_example.h"
#include "obs/obs.h"

namespace cad {
namespace {

TEST(PipelineTest, MethodFamilyClassification) {
  EXPECT_TRUE(IsCommuteBasedMethod("CAD"));
  EXPECT_TRUE(IsCommuteBasedMethod("ADJ"));
  EXPECT_TRUE(IsCommuteBasedMethod("COM"));
  EXPECT_TRUE(IsCommuteBasedMethod("SUM"));
  EXPECT_FALSE(IsCommuteBasedMethod("ACT"));
  EXPECT_FALSE(IsCommuteBasedMethod("CLC"));
  EXPECT_FALSE(IsCommuteBasedMethod("AFM"));
  EXPECT_FALSE(IsCommuteBasedMethod("bogus"));
}

TEST(PipelineTest, RejectsUnknownMethodAndShortSequences) {
  const ToyExample toy = MakeToyExample();
  PipelineOptions options;
  options.method = "bogus";
  EXPECT_FALSE(RunAnomalyPipeline(toy.sequence, options).ok());

  TemporalGraphSequence single(3);
  CAD_CHECK_OK(single.Append(WeightedGraph(3)));
  options.method = "CAD";
  EXPECT_FALSE(RunAnomalyPipeline(single, options).ok());
}

TEST(PipelineTest, RejectsNegativeOrNanNodesPerTransition) {
  // A bad --l used to reach CalibrateDelta's CHECK and abort the process;
  // the pipeline now rejects it before any work.
  const ToyExample toy = MakeToyExample();
  for (const double l : {-1.0, std::nan("")}) {
    PipelineOptions options;
    options.nodes_per_transition = l;
    const Result<PipelineResult> result =
        RunAnomalyPipeline(toy.sequence, options);
    ASSERT_FALSE(result.ok()) << l;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << l;
  }
}

TEST(PipelineTest, CadOnToyLocalizesAndClassifies) {
  const ToyExample toy = MakeToyExample();
  PipelineOptions options;
  options.nodes_per_transition = 6.0;
  options.cad.engine = CommuteEngine::kExact;
  auto result = RunAnomalyPipeline(toy.sequence, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->method, "CAD");
  EXPECT_GT(result->delta, 0.0);
  ASSERT_EQ(result->reports.size(), 1u);
  EXPECT_EQ(result->reports[0].nodes, toy.anomalous_nodes);
  ASSERT_EQ(result->edges.size(), 3u);

  // The three reported edges carry the paper's case labels.
  for (const ReportedEdge& reported : result->edges) {
    if (reported.edge.pair == NodePair::Make(ToyBlue(1), ToyRed(1))) {
      EXPECT_EQ(reported.anomaly_case, AnomalyCase::kNewBridge);
    } else if (reported.edge.pair == NodePair::Make(ToyRed(7), ToyRed(8))) {
      EXPECT_EQ(reported.anomaly_case, AnomalyCase::kWeakenedBridge);
    } else if (reported.edge.pair == NodePair::Make(ToyBlue(4), ToyBlue(5))) {
      EXPECT_EQ(reported.anomaly_case, AnomalyCase::kMagnitudeChange);
    } else {
      ADD_FAILURE() << "unexpected edge reported";
    }
  }
}

TEST(PipelineTest, ClassificationCanBeDisabled) {
  const ToyExample toy = MakeToyExample();
  PipelineOptions options;
  options.nodes_per_transition = 6.0;
  options.cad.engine = CommuteEngine::kExact;
  options.classify_cases = false;
  auto result = RunAnomalyPipeline(toy.sequence, options);
  ASSERT_TRUE(result.ok());
  for (const ReportedEdge& reported : result->edges) {
    EXPECT_EQ(reported.anomaly_case, AnomalyCase::kUnclassified);
  }
}

/// The process-wide pcg.iterations counter (0 when metrics compile away).
uint64_t PcgIterations() {
  for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
    if (name == "pcg.iterations") return value;
  }
  return 0;
}

TEST(PipelineTest, ClassifiesFromScoringPassWithoutExtraSolves) {
  RmatTemporalOptions rmat;
  rmat.base.num_nodes = 600;
  rmat.base.num_edges = 3000;
  rmat.base.min_weight = 0.5;
  rmat.base.max_weight = 2.0;
  rmat.base.seed = 21;
  rmat.num_snapshots = 4;
  rmat.anomaly_snapshot = 2;
  rmat.anomaly_fraction = 0.03;
  Result<TemporalGraphSequence> sequence = MakeRmatTemporalSequence(rmat);
  ASSERT_TRUE(sequence.ok()) << sequence.status();

  PipelineOptions options;
  options.cad.engine = CommuteEngine::kApprox;
  options.cad.approx.embedding_dim = 10;
  options.cad.approx.seed = 3;
  options.nodes_per_transition = 4.0;
  ASSERT_FALSE(options.warm_start);

  const obs::ScopedMetricsEnable metrics_enable;
  const uint64_t start = PcgIterations();
  Result<PipelineResult> classified = RunAnomalyPipeline(*sequence, options);
  ASSERT_TRUE(classified.ok()) << classified.status();
  const uint64_t classified_iterations = PcgIterations() - start;
  options.classify_cases = false;
  Result<PipelineResult> unclassified = RunAnomalyPipeline(*sequence, options);
  ASSERT_TRUE(unclassified.ok()) << unclassified.status();
  const uint64_t unclassified_iterations =
      PcgIterations() - start - classified_iterations;
  // Classification adds no solves.
  EXPECT_EQ(classified_iterations, unclassified_iterations);
#ifndef CAD_OBS_DISABLED
  EXPECT_GT(classified_iterations, 0u);
#endif

  // The cases equal those from classifying against a cold rebuild of the
  // before-snapshot's oracle, the construction the pipeline used to run.
  ASSERT_FALSE(classified->edges.empty());
  ASSERT_EQ(classified->edges.size(), unclassified->edges.size());
  const CadDetector detector(options.cad);
  size_t classified_count = 0;
  for (size_t t = 0; t + 1 < sequence->num_snapshots(); ++t) {
    std::unique_ptr<CommuteTimeOracle> oracle;
    for (const ReportedEdge& reported : classified->edges) {
      if (reported.transition != t) continue;
      if (oracle == nullptr) {
        Result<std::unique_ptr<CommuteTimeOracle>> built =
            detector.BuildOracle(sequence->Snapshot(t));
        ASSERT_TRUE(built.ok()) << built.status();
        oracle = std::move(built).ValueOrDie();
      }
      const double cold =
          oracle->CommuteTime(reported.edge.pair.u, reported.edge.pair.v);
      EXPECT_EQ(reported.edge.commute_before, cold);
      EXPECT_EQ(reported.anomaly_case,
                ClassifyAnomalousEdge(reported.edge, cold,
                                      sequence->Snapshot(t),
                                      sequence->Snapshot(t + 1)));
      classified_count +=
          reported.anomaly_case != AnomalyCase::kUnclassified;
    }
  }
  EXPECT_GT(classified_count, 0u);
}

TEST(PipelineTest, BaselineMethodsProduceNodeScoresOnly) {
  const ToyExample toy = MakeToyExample();
  for (const char* method : {"ACT", "CLC", "AFM"}) {
    PipelineOptions options;
    options.method = method;
    auto result = RunAnomalyPipeline(toy.sequence, options);
    ASSERT_TRUE(result.ok()) << method;
    EXPECT_TRUE(result->reports.empty()) << method;
    EXPECT_TRUE(result->edges.empty()) << method;
    ASSERT_EQ(result->node_scores.size(), 1u) << method;
    EXPECT_EQ(result->node_scores[0].size(), 17u) << method;
  }
}

TEST(PipelineTest, AdjVariantRunsThroughSamePath) {
  const ToyExample toy = MakeToyExample();
  PipelineOptions options;
  options.method = "ADJ";
  options.nodes_per_transition = 4.0;
  options.cad.engine = CommuteEngine::kExact;
  auto result = RunAnomalyPipeline(toy.sequence, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->method, "ADJ");
  EXPECT_FALSE(result->node_scores.empty());
}

TEST(PipelineTest, EdgeReportCsvFormat) {
  const ToyExample toy = MakeToyExample();
  PipelineOptions options;
  options.nodes_per_transition = 6.0;
  options.cad.engine = CommuteEngine::kExact;
  auto result = RunAnomalyPipeline(toy.sequence, options);
  ASSERT_TRUE(result.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteEdgeReportCsv(*result, &out).ok());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("transition,u,v,score,weight_delta,commute_delta,case"),
            std::string::npos);
  // 3 edges -> header + 3 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_NE(csv.find("case-2-new-bridge"), std::string::npos);
}

TEST(PipelineTest, NodeScoresCsvSkipsZeros) {
  const ToyExample toy = MakeToyExample();
  PipelineOptions options;
  options.cad.engine = CommuteEngine::kExact;
  auto result = RunAnomalyPipeline(toy.sequence, options);
  ASSERT_TRUE(result.ok());
  std::ostringstream nonzero;
  ASSERT_TRUE(WriteNodeScoresCsv(*result, &nonzero, true).ok());
  std::ostringstream all;
  ASSERT_TRUE(WriteNodeScoresCsv(*result, &all, false).ok());
  // All rows = header + 17; nonzero strictly fewer (several toy nodes are 0).
  const std::string all_csv = all.str();
  const std::string nonzero_csv = nonzero.str();
  EXPECT_EQ(std::count(all_csv.begin(), all_csv.end(), '\n'), 18);
  EXPECT_LT(std::count(nonzero_csv.begin(), nonzero_csv.end(), '\n'), 18);
}

// With a vocabulary attached to the input sequence, every writer renders
// node names instead of integer ids; without one, output is unchanged.
TEST(PipelineTest, WritersRenderNodeNamesWhenVocabularyPresent) {
  ToyExample toy = MakeToyExample();
  std::vector<std::string> names;
  names.reserve(toy.sequence.num_nodes());
  for (size_t i = 0; i < toy.sequence.num_nodes(); ++i) {
    names.push_back("host-" + std::to_string(i));
  }
  auto vocabulary = NodeVocabulary::FromNames(names);
  ASSERT_TRUE(vocabulary.ok());
  CAD_CHECK_OK(toy.sequence.SetVocabulary(*vocabulary));

  PipelineOptions options;
  options.nodes_per_transition = 6.0;
  options.cad.engine = CommuteEngine::kExact;
  auto result = RunAnomalyPipeline(toy.sequence, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->vocabulary.has_value());

  std::ostringstream edges;
  ASSERT_TRUE(WriteEdgeReportCsv(*result, &edges).ok());
  const std::string edge_csv = edges.str();
  EXPECT_NE(edge_csv.find("host-"), std::string::npos);

  std::ostringstream nodes;
  ASSERT_TRUE(WriteNodeScoresCsv(*result, &nodes, false).ok());
  const std::string node_csv = nodes.str();
  EXPECT_NE(node_csv.find("host-0,"), std::string::npos);

  std::ostringstream json;
  ASSERT_TRUE(WritePipelineResultJson(*result, &json).ok());
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"u\":\"host-"), std::string::npos);
  EXPECT_NE(json_text.find("\"v\":\"host-"), std::string::npos);
}

TEST(PipelineTest, WritersKeepIntegerIdsWithoutVocabulary) {
  const ToyExample toy = MakeToyExample();
  PipelineOptions options;
  options.nodes_per_transition = 6.0;
  options.cad.engine = CommuteEngine::kExact;
  auto result = RunAnomalyPipeline(toy.sequence, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->vocabulary.has_value());

  std::ostringstream json;
  ASSERT_TRUE(WritePipelineResultJson(*result, &json).ok());
  // Integer path: u/v stay JSON numbers, never quoted strings.
  EXPECT_EQ(json.str().find("\"u\":\""), std::string::npos);
  EXPECT_EQ(json.str().find("\"v\":\""), std::string::npos);
}

}  // namespace
}  // namespace cad
