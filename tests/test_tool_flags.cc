#include "app/tool_flags.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/pipeline.h"
#include "obs/obs.h"
#include "server/tenant.h"

namespace cad {
namespace {

Status ParseArgs(FlagParser* flags, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return flags->Parse(static_cast<int>(argv.size()), argv.data());
}

// Every session and monitor flag, each set away from its default.
const std::vector<std::string> kSessionArgs = {
    "--window", "2.5",  "--start_time", "-3", "--error_policy", "skip",
    "--checkpoint_every", "7", "--engine", "approx", "--k", "12",
    "--seed", "99", "--warm_start", "--refactor_threshold", "0.3",
    "--l", "4.5", "--warmup", "6", "--max_history", "11", "--incremental",
    "--churn_threshold", "0.75", "--incremental_tolerance", "0.05"};

void ExpectSessionFields(const StreamSessionOptions& session) {
  EXPECT_EQ(session.window_length, 2.5);
  EXPECT_EQ(session.start_time, -3.0);
  EXPECT_EQ(session.error_policy, EventErrorPolicy::kSkip);
  EXPECT_EQ(session.checkpoint_every, 7u);
  const OnlineMonitorOptions& monitor = session.monitor;
  EXPECT_EQ(monitor.detector.engine, CommuteEngine::kApprox);
  EXPECT_EQ(monitor.detector.approx.embedding_dim, 12u);
  EXPECT_EQ(monitor.detector.approx.seed, 99u);
  EXPECT_TRUE(monitor.detector.approx.warm_start);
  EXPECT_EQ(monitor.detector.approx.refactor_threshold, 0.3);
  EXPECT_EQ(monitor.nodes_per_transition, 4.5);
  EXPECT_EQ(monitor.warmup_transitions, 6u);
  EXPECT_EQ(monitor.max_history, 11u);
  EXPECT_TRUE(monitor.incremental);
  EXPECT_EQ(monitor.detector.churn_threshold, 0.75);
  EXPECT_EQ(monitor.detector.approx.incremental_tolerance, 0.05);
}

TEST(ToolFlagsTest, SessionFlagsLandInTheTenantTemplate) {
  FlagParser flags;
  server::TenantOptions tenant;
  AddSessionFlags(&flags, &tenant.session);
  AddStatsEveryFlag(&flags, &tenant.stats_every);
  std::vector<std::string> args = kSessionArgs;
  args.insert(args.end(), {"--stats_every", "5"});
  ASSERT_TRUE(ParseArgs(&flags, args).ok());
  ExpectSessionFields(tenant.session);
  EXPECT_EQ(tenant.session.num_nodes, 0u);
  EXPECT_EQ(tenant.stats_every, 5u);
}

TEST(ToolFlagsTest, StreamFlagsLandInTheSessionOptions) {
  FlagParser flags;
  StreamSessionOptions session;
  std::string events;
  AddEventsFlag(&flags, &events);
  AddSessionFlags(&flags, &session);
  AddThreadsFlag(&flags, &session.monitor.detector);
  std::vector<std::string> args = kSessionArgs;
  args.insert(args.end(), {"--events", "ev.txt", "--threads", "3"});
  ASSERT_TRUE(ParseArgs(&flags, args).ok());
  ExpectSessionFields(session);
  EXPECT_EQ(events, "ev.txt");
  EXPECT_EQ(session.monitor.detector.analysis_threads, 3u);
  EXPECT_EQ(session.monitor.detector.approx.cg.num_threads, 3u);
}

TEST(ToolFlagsTest, BatchFlagsLandInThePipelineOptions) {
  FlagParser flags;
  PipelineOptions options;
  std::string events;
  double window = 0.0;
  EventErrorPolicy policy = EventErrorPolicy::kStrict;
  AddEventsFlag(&flags, &events);
  AddWindowFlags(&flags, &window, &policy);
  AddEngineFlags(&flags, &options.cad);
  AddWarmStartFlags(&flags, &options.warm_start, &options.refactor_threshold);
  AddTargetFlag(&flags, &options.nodes_per_transition);
  AddThreadsFlag(&flags, &options.cad);
  ASSERT_TRUE(ParseArgs(&flags, {"--events", "ev.txt", "--window", "2",
                                 "--error_policy", "skip", "--engine",
                                 "exact", "--k", "9", "--seed", "4",
                                 "--warm_start", "--refactor_threshold",
                                 "0.2", "--l", "3", "--threads", "2"})
                  .ok());
  EXPECT_EQ(events, "ev.txt");
  EXPECT_EQ(window, 2.0);
  EXPECT_EQ(policy, EventErrorPolicy::kSkip);
  EXPECT_EQ(options.cad.engine, CommuteEngine::kExact);
  EXPECT_EQ(options.cad.approx.embedding_dim, 9u);
  EXPECT_EQ(options.cad.approx.seed, 4u);
  EXPECT_TRUE(options.warm_start);
  EXPECT_EQ(options.refactor_threshold, 0.2);
  EXPECT_EQ(options.nodes_per_transition, 3.0);
  EXPECT_EQ(options.cad.analysis_threads, 2u);
  EXPECT_EQ(options.cad.approx.cg.num_threads, 2u);
}

TEST(ToolFlagsTest, PreconditionerFlagBindsAutoAsNullopt) {
  const std::vector<std::pair<std::string, std::optional<CgPreconditioner>>>
      cases = {{"auto", std::nullopt},
               {"none", CgPreconditioner::kNone},
               {"jacobi", CgPreconditioner::kJacobi},
               {"ic0", CgPreconditioner::kIncompleteCholesky}};
  for (const auto& [name, expected] : cases) {
    FlagParser flags;
    std::optional<CgPreconditioner> preconditioner =
        CgPreconditioner::kJacobi;
    AddPreconditionerFlag(&flags, &preconditioner);
    ASSERT_TRUE(ParseArgs(&flags, {"--preconditioner", name}).ok()) << name;
    EXPECT_EQ(preconditioner, expected) << name;
  }

  FlagParser flags;
  std::optional<CgPreconditioner> preconditioner;
  AddPreconditionerFlag(&flags, &preconditioner);
  EXPECT_NE(flags.Usage().find("--preconditioner (default: auto)"),
            std::string::npos);
  const Status unknown = ParseArgs(&flags, {"--preconditioner", "ilu"});
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("allowed: auto, none, jacobi, ic0"),
            std::string::npos)
      << unknown;
  EXPECT_EQ(preconditioner, std::nullopt);
}

TEST(ToolFlagsTest, UsageShowsEachToolsOwnDefaults) {
  FlagParser flags;
  StreamSessionOptions session;
  session.window_length = 0.0;
  AddSessionFlags(&flags, &session);
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--window (default: 0)"), std::string::npos);
  EXPECT_NE(usage.find("--engine (default: auto)"), std::string::npos);
  EXPECT_NE(usage.find("--error_policy (default: strict)"),
            std::string::npos);
  EXPECT_NE(usage.find("--k (default: 50)"), std::string::npos);
}

TEST(ToolFlagsTest, NegativeCountsAndUnknownNamesFailParse) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--k", "-1"},
                                             {"--warmup", "-1"},
                                             {"--max_history", "-1"},
                                             {"--seed", "-1"},
                                             {"--checkpoint_every", "-1"},
                                             {"--engine", "fast"},
                                             {"--error_policy", "lenient"}}) {
    FlagParser flags;
    StreamSessionOptions session;
    AddSessionFlags(&flags, &session);
    const Status parsed = ParseArgs(&flags, args);
    ASSERT_FALSE(parsed.ok()) << args[0];
    EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument) << args[0];
    EXPECT_NE(parsed.message().find(args[0]), std::string::npos) << parsed;
  }
}

TEST(ToolFlagsTest, ObservabilityNeedsStatsFlagsTogether) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--stats_every", "2"},
                                             {"--stats_json", "-"}}) {
    FlagParser flags;
    ObservabilityFlags observability(&flags);
    ASSERT_TRUE(ParseArgs(&flags, args).ok());
    EXPECT_EQ(observability.Start().code(), StatusCode::kInvalidArgument)
        << args[0];
  }
}

TEST(ToolFlagsTest, ObservabilityRecordsAndExports) {
  const obs::ScopedMetricsEnable metrics;
  const obs::ScopedTracingEnable tracing;
  const std::string dir = ::testing::TempDir();
  const std::string metrics_csv = dir + "/tool_flags_metrics.csv";
  const std::string stats_json = dir + "/tool_flags_stats.jsonl";
  FlagParser flags;
  ObservabilityFlags observability(&flags);
  ASSERT_TRUE(ParseArgs(&flags, {"--metrics_csv", metrics_csv,
                                 "--stats_json", stats_json, "--stats_every",
                                 "1"})
                  .ok());
  obs::SetMetricsEnabled(false);
  ASSERT_TRUE(observability.Start().ok());
  EXPECT_TRUE(obs::MetricsEnabled());

  const Result<obs::StatsReporter*> stats = observability.OpenStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_NE(*stats, nullptr);
  obs::GlobalMetrics().GetCounter("tool_flags_test.ticks")->Increment();
  ASSERT_TRUE((*stats)->Tick().ok());
  ASSERT_TRUE(observability.WriteExports(obs::SnapshotMetrics()).ok());

  std::ifstream csv(metrics_csv);
  std::stringstream contents;
  contents << csv.rdbuf();
  EXPECT_NE(contents.str().find("counter,tool_flags_test.ticks,value,1"),
            std::string::npos)
      << contents.str();
  std::ifstream heartbeat(stats_json);
  std::string line;
  ASSERT_TRUE(std::getline(heartbeat, line));
  EXPECT_NE(line.find("tool_flags_test.ticks"), std::string::npos) << line;
}

TEST(ToolFlagsTest, WriteToTargetReportsUnopenableFiles) {
  const Status status =
      WriteToTarget("/nonexistent-dir/out.csv",
                    [](std::ostream*) { return Status::OK(); });
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace cad
