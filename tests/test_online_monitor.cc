#include "core/online_monitor.h"

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/rmat.h"
#include "datagen/toy_example.h"
#include "obs/obs.h"

namespace cad {
namespace {

WeightedGraph TwoTeams(double bridge_weight) {
  WeightedGraph g(8);
  for (NodeId base : {NodeId{0}, NodeId{4}}) {
    for (NodeId a = 0; a < 4; ++a) {
      for (NodeId b = a + 1; b < 4; ++b) {
        CAD_CHECK_OK(g.SetEdge(base + a, base + b, 3.0));
      }
    }
  }
  CAD_CHECK_OK(g.SetEdge(3, 4, 0.3));
  if (bridge_weight > 0.0) CAD_CHECK_OK(g.SetEdge(0, 7, bridge_weight));
  return g;
}

TEST(OnlineMonitorTest, FirstSnapshotYieldsNoReport) {
  OnlineCadMonitor monitor;
  auto report = monitor.Observe(TwoTeams(0.0));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->has_value());
  EXPECT_EQ(monitor.num_snapshots(), 1u);
  EXPECT_EQ(monitor.num_transitions(), 0u);
}

TEST(OnlineMonitorTest, WarmupSuppressesReports) {
  OnlineMonitorOptions options;
  options.warmup_transitions = 2;
  OnlineCadMonitor monitor(options);
  ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  auto first = monitor.Observe(TwoTeams(0.0));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->has_value());  // transition 0: warmup
  auto second = monitor.Observe(TwoTeams(0.0));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->has_value());  // transition 1: warmup
  auto third = monitor.Observe(TwoTeams(0.0));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->has_value());  // transition 2: live
}

TEST(OnlineMonitorTest, DetectsPlantedBridgeAfterCalmHistory) {
  OnlineMonitorOptions options;
  options.nodes_per_transition = 1.0;
  options.warmup_transitions = 2;
  OnlineCadMonitor monitor(options);
  // Calm history: identical snapshots.
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  }
  // The bridge appears.
  auto report = monitor.Observe(TwoTeams(2.0));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->has_value());
  ASSERT_FALSE((*report)->edges.empty());
  EXPECT_EQ((*report)->edges[0].pair, NodePair::Make(0, 7));
  EXPECT_EQ((*report)->nodes, (std::vector<NodeId>{0, 7}));
  EXPECT_EQ((*report)->transition, 4u);
}

TEST(OnlineMonitorTest, CalmTransitionsReportNothing) {
  OnlineMonitorOptions options;
  options.nodes_per_transition = 1.0;
  options.warmup_transitions = 1;
  OnlineCadMonitor monitor(options);
  ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(monitor.Observe(TwoTeams(2.0)).ok());  // warmup (event absorbed)
  // Subsequent identical snapshots: zero-score transitions, no anomalies.
  for (int t = 0; t < 3; ++t) {
    auto report = monitor.Observe(TwoTeams(2.0));
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->has_value());
    EXPECT_TRUE((*report)->edges.empty());
    EXPECT_TRUE((*report)->nodes.empty());
  }
}

TEST(OnlineMonitorTest, AcceptsGrowthRejectsShrink) {
  // Discovered node sets only grow (DESIGN.md §8): a larger snapshot grows
  // the stream in place, a smaller one is rejected.
  OnlineCadMonitor monitor;
  ASSERT_TRUE(monitor.Observe(WeightedGraph(5)).ok());
  ASSERT_TRUE(monitor.Observe(WeightedGraph(6)).ok());
  EXPECT_EQ(monitor.num_nodes(), 6u);
  EXPECT_FALSE(monitor.Observe(WeightedGraph(5)).ok());
}

WeightedGraph PadGraph(const WeightedGraph& g, size_t n) {
  WeightedGraph padded(n);
  for (const Edge& e : g.Edges()) {
    CAD_CHECK_OK(padded.SetEdge(e.u, e.v, e.weight));
  }
  return padded;
}

// A stream whose node set grows mid-way must report exactly what a stream
// premapped to the final size reports: appended nodes are isolated, and
// isolated nodes leave commute scores bit-identical (DESIGN.md §8).
void ExpectGrowingStreamMatchesPremapped(CommuteEngine engine) {
  OnlineMonitorOptions options;
  options.detector.engine = engine;
  options.detector.approx.embedding_dim = 4;
  options.detector.approx.seed = 11;
  options.nodes_per_transition = 2.0;
  options.warmup_transitions = 1;
  OnlineCadMonitor growing(options);
  OnlineCadMonitor premapped(options);

  // Two 8-node snapshots, then the set grows to 10 (nodes 8, 9 join while
  // node 2 goes isolated).
  WeightedGraph early = TwoTeams(0.0);
  WeightedGraph late(10);
  for (const Edge& e : early.Edges()) {
    if (e.u == 2 || e.v == 2) continue;  // node 2 goes quiet
    CAD_CHECK_OK(late.SetEdge(e.u, e.v, e.weight));
  }
  CAD_CHECK_OK(late.SetEdge(7, 8, 1.5));
  CAD_CHECK_OK(late.SetEdge(8, 9, 1.0));

  const std::vector<WeightedGraph> grown_stream = {early, early, late, late};
  for (size_t t = 0; t < grown_stream.size(); ++t) {
    auto from_growing = growing.Observe(grown_stream[t]);
    auto from_premapped = premapped.Observe(PadGraph(grown_stream[t], 10));
    ASSERT_TRUE(from_growing.ok()) << from_growing.status().ToString();
    ASSERT_TRUE(from_premapped.ok());
    EXPECT_EQ(growing.current_delta(), premapped.current_delta());
    ASSERT_EQ(from_growing->has_value(), from_premapped->has_value());
    if (!from_growing->has_value()) continue;
    const AnomalyReport& a = **from_growing;
    const AnomalyReport& b = **from_premapped;
    EXPECT_EQ(a.transition, b.transition);
    EXPECT_EQ(a.nodes, b.nodes);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (size_t i = 0; i < a.edges.size(); ++i) {
      EXPECT_EQ(a.edges[i].pair, b.edges[i].pair);
      EXPECT_EQ(a.edges[i].score, b.edges[i].score);
      EXPECT_EQ(a.edges[i].commute_delta, b.edges[i].commute_delta);
    }
  }
  EXPECT_EQ(growing.num_nodes(), 10u);
}

TEST(OnlineMonitorTest, GrowingStreamMatchesPremappedExact) {
  ExpectGrowingStreamMatchesPremapped(CommuteEngine::kExact);
}

TEST(OnlineMonitorTest, GrowingStreamMatchesPremappedApprox) {
  ExpectGrowingStreamMatchesPremapped(CommuteEngine::kApprox);
}

TEST(OnlineMonitorTest, HistoryMatchesBatchAnalysis) {
  // Streaming the toy example must produce the same transition scores as
  // the batch detector.
  const ToyExample toy = MakeToyExample();
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  options.warmup_transitions = 0;
  OnlineCadMonitor monitor(options);
  ASSERT_TRUE(monitor.Observe(toy.sequence.Snapshot(0)).ok());
  auto report = monitor.Observe(toy.sequence.Snapshot(1));
  ASSERT_TRUE(report.ok());

  CadOptions batch_options;
  batch_options.engine = CommuteEngine::kExact;
  auto batch = CadDetector(batch_options).Analyze(toy.sequence);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(monitor.history().size(), 1u);
  EXPECT_DOUBLE_EQ(monitor.history()[0].total_score, (*batch)[0].total_score);
}

TEST(OnlineMonitorTest, DeltaUpdatesOverTime) {
  OnlineMonitorOptions options;
  options.nodes_per_transition = 2.0;
  OnlineCadMonitor monitor(options);
  ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  EXPECT_EQ(monitor.current_delta(), 0.0);
  ASSERT_TRUE(monitor.Observe(TwoTeams(0.5)).ok());
  const double delta_small_event = monitor.current_delta();
  EXPECT_GT(delta_small_event, 0.0);
  // A much larger event enters the history: the calibrated threshold must
  // adapt to the new score scale.
  ASSERT_TRUE(monitor.Observe(TwoTeams(4.0)).ok());
  EXPECT_NE(monitor.current_delta(), delta_small_event);
}

TEST(OnlineMonitorTest, SlidingWindowMatchesUnboundedWhileHistoryFits) {
  // While the stream is no longer than max_history, the window holds the
  // full history, so every report and delta must be identical to the
  // unbounded monitor's (the ISSUE's bit-identity requirement).
  OnlineMonitorOptions unbounded_options;
  unbounded_options.detector.engine = CommuteEngine::kExact;
  unbounded_options.nodes_per_transition = 2.0;
  unbounded_options.warmup_transitions = 1;
  OnlineMonitorOptions windowed_options = unbounded_options;
  windowed_options.max_history = 10;  // stream has 6 transitions

  OnlineCadMonitor unbounded(unbounded_options);
  OnlineCadMonitor windowed(windowed_options);
  for (double w : {0.0, 0.0, 0.5, 0.0, 2.0, 0.0, 1.0}) {
    auto from_unbounded = unbounded.Observe(TwoTeams(w));
    auto from_windowed = windowed.Observe(TwoTeams(w));
    ASSERT_TRUE(from_unbounded.ok());
    ASSERT_TRUE(from_windowed.ok());
    ASSERT_EQ(from_unbounded->has_value(), from_windowed->has_value());
    EXPECT_EQ(unbounded.current_delta(), windowed.current_delta());
    if (!from_unbounded->has_value()) continue;
    const AnomalyReport& a = **from_unbounded;
    const AnomalyReport& b = **from_windowed;
    EXPECT_EQ(a.transition, b.transition);
    EXPECT_EQ(a.nodes, b.nodes);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (size_t i = 0; i < a.edges.size(); ++i) {
      EXPECT_EQ(a.edges[i].pair, b.edges[i].pair);
      EXPECT_EQ(a.edges[i].score, b.edges[i].score);
    }
  }
  EXPECT_EQ(unbounded.history().size(), windowed.history().size());
}

TEST(OnlineMonitorTest, SlidingWindowBoundsHistory) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  options.max_history = 3;
  OnlineCadMonitor monitor(options);
  for (int t = 0; t < 8; ++t) {
    ASSERT_TRUE(monitor.Observe(TwoTeams(t % 2 == 0 ? 0.0 : 0.5)).ok());
    EXPECT_LE(monitor.history().size(), 3u);
  }
  EXPECT_EQ(monitor.history().size(), 3u);
  // The lifetime transition count is not capped by the window.
  EXPECT_EQ(monitor.num_transitions(), 7u);
}

TEST(OnlineMonitorTest, SlidingWindowKeepsGlobalTransitionIndices) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  options.nodes_per_transition = 1.0;
  options.warmup_transitions = 2;
  options.max_history = 2;
  OnlineCadMonitor monitor(options);
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  }
  // Transition 4 completes here; its report must say so even though the
  // retained history only holds the last 2 transitions.
  auto report = monitor.Observe(TwoTeams(2.0));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->has_value());
  EXPECT_EQ((*report)->transition, 4u);
  EXPECT_EQ(monitor.history().size(), 2u);
}

// Runs a fixed-seed approx-engine stream with an attached StatsReporter and
// returns the emitted heartbeats with the volatile trailing "timer" object
// stripped from each line.
std::vector<std::string> HeartbeatsForThreads(size_t num_threads) {
  const obs::ScopedMetricsEnable metrics;
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kApprox;
  options.detector.approx.embedding_dim = 4;
  options.detector.approx.seed = 11;
  options.detector.analysis_threads = num_threads;
  options.detector.approx.cg.num_threads = num_threads;
  options.nodes_per_transition = 2.0;
  options.warmup_transitions = 1;
  OnlineCadMonitor monitor(options);
  std::ostringstream out;
  obs::StatsReporter reporter(&out, 4);
  monitor.SetStatsReporter(&reporter);
  for (double w : {0.0, 0.0, 0.5, 0.0, 2.0, 0.0, 1.0, 0.0}) {
    CAD_CHECK_OK(monitor.Observe(TwoTeams(w)).status());
  }
  EXPECT_EQ(reporter.records_emitted(), 2u);
  std::vector<std::string> stripped;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const size_t cut = line.find(",\"timer\":");
    EXPECT_NE(cut, std::string::npos) << line;
    stripped.push_back(line.substr(0, cut));
  }
  return stripped;
}

TEST(OnlineMonitorTest, HeartbeatsAreDeterministicAcrossThreadCounts) {
  // The acceptance bar for the observability layer: the non-timer fields of
  // every heartbeat are byte-identical across same-seed runs regardless of
  // thread count. Wall-clock data lives only in the stripped "timer" object.
  const std::vector<std::string> one_thread = HeartbeatsForThreads(1);
  const std::vector<std::string> eight_threads = HeartbeatsForThreads(8);
  ASSERT_EQ(one_thread.size(), 2u);
  EXPECT_EQ(one_thread, eight_threads);
  // The monitor's own instrumentation is present in the deterministic part.
  EXPECT_NE(one_thread[0].find("\"monitor.windows\":4"), std::string::npos);
  EXPECT_NE(one_thread[0].find("\"monitor.delta\":"), std::string::npos);
}

TEST(OnlineMonitorTest, WindowLatencyHistogramTracksEveryObserve) {
  const obs::ScopedMetricsEnable metrics;
  OnlineCadMonitor monitor;
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  }
  const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  const obs::HistogramData* latency = nullptr;
  for (const auto& [name, data] : snapshot.timer_histograms) {
    if (name == "monitor.window_latency") latency = &data;
  }
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 5u);
  EXPECT_GT(latency->Quantile(0.5), 0.0);
}

TEST(OnlineMonitorTest, SlidingWindowForgetsOldEvents) {
  // After a burst leaves the window, calibration no longer sees its large
  // scores, so the delta adapts back down to the recent (calm) scale.
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  options.nodes_per_transition = 2.0;
  options.max_history = 2;
  OnlineCadMonitor monitor(options);
  ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(monitor.Observe(TwoTeams(4.0)).ok());  // burst enters
  const double delta_during_burst = monitor.current_delta();
  EXPECT_GT(delta_during_burst, 0.0);
  ASSERT_TRUE(monitor.Observe(TwoTeams(4.0)).ok());
  ASSERT_TRUE(monitor.Observe(TwoTeams(4.0)).ok());
  ASSERT_TRUE(monitor.Observe(TwoTeams(4.0)).ok());  // burst transitions aged out
  EXPECT_LT(monitor.current_delta(), delta_during_burst);
}

// An R-MAT stream with background churn, a burst, and a growing node set:
// snapshot t keeps the edges among its first kGrowingSizes[t] nodes.
constexpr size_t kGrowingSizes[] = {300, 300, 340, 340, 400, 400, 400, 400};

std::vector<WeightedGraph> GrowingRmatStream() {
  RmatTemporalOptions options;
  options.base.num_nodes = 400;
  options.base.num_edges = 1600;
  options.base.min_weight = 0.5;
  options.base.max_weight = 2.0;
  options.base.seed = 5;
  options.num_snapshots = std::size(kGrowingSizes);
  options.anomaly_snapshot = 5;
  Result<TemporalGraphSequence> sequence = MakeRmatTemporalSequence(options);
  CAD_CHECK_OK(sequence.status());
  std::vector<WeightedGraph> stream;
  for (size_t t = 0; t < sequence->num_snapshots(); ++t) {
    WeightedGraph snapshot(kGrowingSizes[t]);
    for (const Edge& edge : sequence->Snapshot(t).Edges()) {
      if (edge.v < kGrowingSizes[t]) {
        CAD_CHECK_OK(snapshot.AddEdgeWeight(edge.u, edge.v, edge.weight));
      }
    }
    stream.push_back(std::move(snapshot));
  }
  return stream;
}

OnlineMonitorOptions IncrementalApproxOptions() {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kApprox;
  options.detector.approx.embedding_dim = 8;
  options.detector.approx.seed = 3;
  options.incremental = true;
  options.warmup_transitions = 1;
  options.max_history = 3;
  return options;
}

std::string CheckpointBytes(const OnlineCadMonitor& monitor) {
  std::ostringstream out;
  CAD_CHECK_OK(monitor.SaveCheckpoint(&out));
  return out.str();
}

void ExpectSameReport(const std::optional<AnomalyReport>& a,
                      const std::optional<AnomalyReport>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a.has_value()) return;
  EXPECT_EQ(a->transition, b->transition);
  EXPECT_EQ(a->nodes, b->nodes);
  ASSERT_EQ(a->edges.size(), b->edges.size());
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  for (size_t i = 0; i < a->edges.size(); ++i) {
    EXPECT_EQ(a->edges[i].pair, b->edges[i].pair);
    EXPECT_EQ(bits(a->edges[i].score), bits(b->edges[i].score));
    EXPECT_EQ(bits(a->edges[i].weight_delta), bits(b->edges[i].weight_delta));
    EXPECT_EQ(bits(a->edges[i].commute_delta),
              bits(b->edges[i].commute_delta));
    EXPECT_EQ(bits(a->edges[i].commute_before),
              bits(b->edges[i].commute_before));
  }
}

TEST(OnlineMonitorTest, MoveInObserveMatchesCopyingObserve) {
  const std::vector<WeightedGraph> stream = GrowingRmatStream();
  OnlineCadMonitor by_copy(IncrementalApproxOptions());
  OnlineCadMonitor by_move(IncrementalApproxOptions());
  size_t reports = 0;
  for (const WeightedGraph& snapshot : stream) {
    WeightedGraph handed_over = snapshot;
    auto copied = by_copy.Observe(snapshot);
    auto moved = by_move.Observe(std::move(handed_over));
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    ExpectSameReport(*copied, *moved);
    if (copied->has_value()) ++reports;
    EXPECT_EQ(CheckpointBytes(by_copy), CheckpointBytes(by_move));
  }
  EXPECT_GT(reports, 0u);
  EXPECT_EQ(by_move.num_nodes(), 400u);
}

TEST(OnlineMonitorTest, RestoredMonitorContinuesByteIdentically) {
  // Restoring rebuilds the previous window's edge list from the restored
  // snapshot; the continued run must match the uninterrupted one byte for
  // byte, across growth windows and the burst.
  const std::vector<WeightedGraph> stream = GrowingRmatStream();
  OnlineCadMonitor uninterrupted(IncrementalApproxOptions());
  std::vector<std::optional<AnomalyReport>> expected;
  for (const WeightedGraph& snapshot : stream) {
    auto report = uninterrupted.Observe(snapshot);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    expected.push_back(*report);
  }
  for (size_t split : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    SCOPED_TRACE("split at window " + std::to_string(split));
    OnlineCadMonitor first(IncrementalApproxOptions());
    for (size_t t = 0; t < split; ++t) {
      ASSERT_TRUE(first.Observe(stream[t]).ok());
    }
    std::istringstream saved(CheckpointBytes(first));
    OnlineCadMonitor resumed(IncrementalApproxOptions());
    ASSERT_TRUE(resumed.LoadCheckpoint(&saved).ok());
    for (size_t t = split; t < stream.size(); ++t) {
      WeightedGraph snapshot = stream[t];
      auto report = resumed.Observe(std::move(snapshot));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ExpectSameReport(*report, expected[t]);
    }
    EXPECT_EQ(CheckpointBytes(resumed), CheckpointBytes(uninterrupted));
  }
}

TEST(OnlineMonitorTest, ThreadCountDoesNotChangeReportsOrCheckpoint) {
  // k = 20 solves as 2 column groups at one thread and 4 at four, and each
  // transition scores more than one 4096-pair lookup block.
  RmatTemporalOptions rmat;
  rmat.base.num_nodes = 1000;
  rmat.base.num_edges = 6000;
  rmat.base.min_weight = 0.5;
  rmat.base.max_weight = 2.0;
  rmat.base.seed = 9;
  rmat.num_snapshots = 6;
  rmat.anomaly_snapshot = 3;
  Result<TemporalGraphSequence> sequence = MakeRmatTemporalSequence(rmat);
  ASSERT_TRUE(sequence.ok()) << sequence.status().ToString();
  OnlineMonitorOptions serial_options = IncrementalApproxOptions();
  serial_options.detector.approx.embedding_dim = 20;
  serial_options.detector.analysis_threads = 1;
  serial_options.detector.approx.cg.num_threads = 1;
  OnlineMonitorOptions parallel_options = serial_options;
  parallel_options.detector.analysis_threads = 4;
  parallel_options.detector.approx.cg.num_threads = 4;
  OnlineCadMonitor serial(serial_options);
  OnlineCadMonitor parallel(parallel_options);
  size_t reports = 0;
  for (size_t t = 0; t < sequence->num_snapshots(); ++t) {
    SCOPED_TRACE("window " + std::to_string(t));
    auto serial_report = serial.Observe(sequence->Snapshot(t));
    auto parallel_report = parallel.Observe(sequence->Snapshot(t));
    ASSERT_TRUE(serial_report.ok()) << serial_report.status().ToString();
    ASSERT_TRUE(parallel_report.ok()) << parallel_report.status().ToString();
    ExpectSameReport(*serial_report, *parallel_report);
    if (serial_report->has_value()) ++reports;
    EXPECT_EQ(CheckpointBytes(serial), CheckpointBytes(parallel));
  }
  EXPECT_GT(reports, 0u);
  EXPECT_GT(serial.history().back().edges.size(), 4096u);
}

}  // namespace
}  // namespace cad
