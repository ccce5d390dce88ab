#include "app/pipeline.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "datagen/toy_example.h"

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
