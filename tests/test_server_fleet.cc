// Multi-tenant fleet tests (src/server/fleet.h, src/server/tenant.h):
// kill/resume byte-identity for the exact and warm-start approximate
// engines, bounded-queue backpressure accounting, shared cache-budget
// eviction, stale-checkpoint rejection, finish semantics, and a concurrent
// multi-producer ingest stress whose non-timer metrics must be invariant to
// the worker-thread count (the TSan target).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "server/event_queue.h"
#include "server/fleet.h"
#include "server/tenant.h"

namespace cad::server {
namespace {

/// mkdtemp-backed scratch directory; removes its contents on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string pattern = ::testing::TempDir() + "/cad_fleet_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    CAD_CHECK(::mkdtemp(buffer.data()) != nullptr);
    path_ = buffer.data();
  }
  ~ScopedTempDir() {
    // Tenant files are flat (<name>.ckpt/.csv plus .tmp leftovers).
    const std::string cleanup = "rm -rf '" + path_ + "'";
    (void)::system(cleanup.c_str());  // best-effort scratch cleanup
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Deterministic integer-id event stream: `windows` windows of
/// `per_window` events over `nodes` nodes, seeded per tenant so every
/// tenant sees a different (but reproducible) graph sequence.
std::vector<WireEvent> MakeEvents(size_t seed, size_t windows,
                                  size_t per_window, size_t nodes) {
  std::vector<WireEvent> events;
  events.reserve(windows * per_window);
  uint64_t state = 0x9e3779b97f4a7c15ull * (seed + 1);
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t w = 0; w < windows; ++w) {
    for (size_t i = 0; i < per_window; ++i) {
      const size_t u = next() % nodes;
      size_t v = next() % nodes;
      if (v == u) v = (v + 1) % nodes;
      WireEvent event;
      event.u = std::to_string(u);
      event.v = std::to_string(v);
      event.timestamp =
          static_cast<double>(w) +
          (0.5 + static_cast<double>(i)) / (2.0 * per_window);
      event.weight = 1.0;
      events.push_back(std::move(event));
    }
  }
  return events;
}

std::vector<std::vector<WireEvent>> InBatches(
    const std::vector<WireEvent>& events, size_t batch_size) {
  std::vector<std::vector<WireEvent>> batches;
  for (size_t i = 0; i < events.size(); i += batch_size) {
    const size_t end = std::min(events.size(), i + batch_size);
    batches.emplace_back(events.begin() + i, events.begin() + end);
  }
  return batches;
}

OnlineMonitorOptions ExactMonitor() {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  options.nodes_per_transition = 2.0;
  options.warmup_transitions = 2;
  return options;
}

OnlineMonitorOptions ApproxWarmStartMonitor() {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kApprox;
  options.detector.approx.embedding_dim = 8;
  options.detector.approx.seed = 3;
  options.detector.approx.warm_start = true;
  options.nodes_per_transition = 2.0;
  options.warmup_transitions = 2;
  return options;
}

/// Pulls the integer after `"key":` out of a stats JSON blob.
int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  CAD_CHECK(pos != std::string::npos);
  return std::atoll(json.c_str() + pos + needle.size());
}

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

// --- kill/resume byte-identity ---------------------------------------------

constexpr size_t kTenants = 8;
constexpr size_t kWindows = 12;
constexpr size_t kPerWindow = 24;
constexpr size_t kNodes = 20;

FleetOptions FleetFor(const std::string& data_dir,
                      const OnlineMonitorOptions& monitor) {
  FleetOptions options;
  options.num_workers = 4;
  options.data_dir = data_dir;
  options.tenant.monitor = monitor;
  options.tenant.window_length = 1.0;
  options.tenant.checkpoint_every = 2;
  return options;
}

std::string TenantName(size_t i) { return "t" + std::to_string(i); }

void FeedAndFinish(TenantFleet* fleet, const std::string& name,
                   const std::vector<WireEvent>& events) {
  for (std::vector<WireEvent>& batch : InBatches(events, 64)) {
    while (true) {
      const Result<bool> accepted = fleet->Enqueue(name, batch);
      ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
      if (*accepted) break;
    }
  }
  const Status finished = fleet->Finish(name);
  ASSERT_TRUE(finished.ok()) << finished.ToString();
}

/// An uninterrupted run and a kill-between-intervals/resume/replay run over
/// the same per-tenant streams must produce byte-identical report CSVs for
/// every tenant.
void RunFleetKillResume(const OnlineMonitorOptions& monitor) {
  ScopedTempDir base_dir;
  ScopedTempDir kill_dir;

  std::vector<std::vector<WireEvent>> streams;
  for (size_t i = 0; i < kTenants; ++i) {
    streams.push_back(MakeEvents(i, kWindows, kPerWindow, kNodes));
  }

  {  // Baseline: every tenant start-to-finish in one server lifetime.
    Result<std::unique_ptr<TenantFleet>> fleet =
        TenantFleet::Create(FleetFor(base_dir.path(), monitor));
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    for (size_t i = 0; i < kTenants; ++i) {
      ASSERT_TRUE((*fleet)->Open(TenantName(i)).ok());
    }
    for (size_t i = 0; i < kTenants; ++i) {
      FeedAndFinish(fleet->get(), TenantName(i), streams[i]);
    }
  }

  {  // First lifetime: half the stream, then an abrupt stop — no drain, no
     // finish, exactly what outlives a kill -9 is the interval checkpoints.
    Result<std::unique_ptr<TenantFleet>> fleet =
        TenantFleet::Create(FleetFor(kill_dir.path(), monitor));
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    for (size_t i = 0; i < kTenants; ++i) {
      ASSERT_TRUE((*fleet)->Open(TenantName(i)).ok());
      const std::vector<WireEvent> half(
          streams[i].begin(), streams[i].begin() + streams[i].size() / 2);
      for (std::vector<WireEvent>& batch : InBatches(half, 64)) {
        while (true) {
          const Result<bool> accepted = (*fleet)->Enqueue(TenantName(i),
                                                          batch);
          ASSERT_TRUE(accepted.ok());
          if (*accepted) break;
        }
      }
    }
  }

  {  // Second lifetime: resume everything, replay the full streams (resume
     // drops already-observed windows idempotently), finish, compare.
    Result<std::unique_ptr<TenantFleet>> fleet =
        TenantFleet::Create(FleetFor(kill_dir.path(), monitor));
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    ASSERT_TRUE((*fleet)->ResumeAll().ok());
    EXPECT_EQ((*fleet)->tenant_count(), kTenants);
    for (size_t i = 0; i < kTenants; ++i) {
      const Result<OpenReply> reply = (*fleet)->Open(TenantName(i));
      ASSERT_TRUE(reply.ok());
      // Non-vacuity: the restart really resumed mid-stream state.
      EXPECT_TRUE(reply->resumed) << TenantName(i);
      EXPECT_GE(reply->next_window, 2u) << TenantName(i);
    }
    for (size_t i = 0; i < kTenants; ++i) {
      FeedAndFinish(fleet->get(), TenantName(i), streams[i]);
    }
  }

  for (size_t i = 0; i < kTenants; ++i) {
    const std::string name = TenantName(i);
    const std::string baseline = ReadFile(base_dir.path() + "/" + name +
                                          ".csv");
    const std::string resumed = ReadFile(kill_dir.path() + "/" + name +
                                         ".csv");
    ASSERT_FALSE(baseline.empty()) << name;
    EXPECT_EQ(baseline, resumed) << name;
  }
}

TEST(FleetKillResumeTest, ExactEngineByteIdentical) {
  RunFleetKillResume(ExactMonitor());
}

TEST(FleetKillResumeTest, ApproxWarmStartByteIdentical) {
  // Warm start is the hard case: resumed CG iterates must retrace the
  // uninterrupted run, which only works if the envelope checkpoint carried
  // the solver cache along with the monitor.
  RunFleetKillResume(ApproxWarmStartMonitor());
}

// --- backpressure -----------------------------------------------------------

TEST(BoundedBatchQueueTest, CapacityIsCountedInEvents) {
  BoundedBatchQueue queue(10);
  EXPECT_TRUE(queue.TryPush(std::vector<WireEvent>(6)));
  EXPECT_TRUE(queue.TryPush(std::vector<WireEvent>(4)));
  EXPECT_EQ(queue.pending_events(), 10u);
  EXPECT_FALSE(queue.TryPush(std::vector<WireEvent>(1)));
  ASSERT_TRUE(queue.TryPop().has_value());
  EXPECT_EQ(queue.pending_events(), 4u);
  EXPECT_TRUE(queue.TryPush(std::vector<WireEvent>(6)));
}

TEST(BoundedBatchQueueTest, EmptyQueueAcceptsOversizedBatch) {
  // A batch larger than the whole capacity must not be permanently
  // unqueueable; it is admitted alone and the next push waits.
  BoundedBatchQueue queue(4);
  EXPECT_TRUE(queue.TryPush(std::vector<WireEvent>(100)));
  EXPECT_FALSE(queue.TryPush(std::vector<WireEvent>(1)));
  const std::optional<std::vector<WireEvent>> popped = queue.TryPop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->size(), 100u);
  EXPECT_TRUE(queue.empty());
}

TEST(BoundedBatchQueueTest, PopsInFifoOrder) {
  BoundedBatchQueue queue(100);
  EXPECT_TRUE(queue.TryPush(std::vector<WireEvent>(1)));
  EXPECT_TRUE(queue.TryPush(std::vector<WireEvent>(2)));
  EXPECT_EQ(queue.TryPop()->size(), 1u);
  EXPECT_EQ(queue.TryPop()->size(), 2u);
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(FleetBackpressureTest, EveryRejectionIsCountedAndNothingIsDropped) {
  obs::SetMetricsEnabled(true);
  obs::ResetMetrics();
  ScopedTempDir dir;
  FleetOptions options = FleetFor(dir.path(), ExactMonitor());
  options.num_workers = 1;
  options.tenant.queue_capacity_events = 8;  // tiny: force rejections
  options.tenant.checkpoint_every = 0;
  Result<std::unique_ptr<TenantFleet>> fleet = TenantFleet::Create(options);
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE((*fleet)->Open("bp").ok());

  const std::vector<WireEvent> events =
      MakeEvents(0, /*windows=*/6, /*per_window=*/40, kNodes);
  size_t rejections_seen = 0;
  for (std::vector<WireEvent>& batch : InBatches(events, 16)) {
    while (true) {
      const Result<bool> accepted = (*fleet)->Enqueue("bp", batch);
      ASSERT_TRUE(accepted.ok());
      if (*accepted) break;
      ++rejections_seen;
    }
  }
  ASSERT_TRUE((*fleet)->Finish("bp").ok());

  const Result<std::string> stats = (*fleet)->StatsJson("bp");
  ASSERT_TRUE(stats.ok());
  // Reject-with-status means the retried events all arrived exactly once.
  EXPECT_EQ(JsonInt(*stats, "received"),
            static_cast<int64_t>(events.size()));
  EXPECT_EQ(JsonInt(*stats, "rejections"),
            static_cast<int64_t>(rejections_seen));
  EXPECT_EQ(CounterValue(obs::SnapshotMetrics(), "server.queue_rejections"),
            rejections_seen);
  obs::SetMetricsEnabled(false);
}

// --- shared cache budget ----------------------------------------------------

TEST(FleetCacheBudgetTest, EvictsIdleTenantsDownToTheBudget) {
  obs::SetMetricsEnabled(true);
  obs::ResetMetrics();
  const std::vector<WireEvent> events =
      MakeEvents(1, /*windows=*/6, kPerWindow, kNodes);

  // Control run: unlimited budget leaves a warm cache behind, proving the
  // eviction assertion below is non-vacuous.
  {
    ScopedTempDir dir;
    FleetOptions options = FleetFor(dir.path(), ApproxWarmStartMonitor());
    options.tenant.checkpoint_every = 0;
    Result<std::unique_ptr<TenantFleet>> fleet = TenantFleet::Create(options);
    ASSERT_TRUE(fleet.ok());
    ASSERT_TRUE((*fleet)->Open("warm").ok());
    FeedAndFinish(fleet->get(), "warm", events);
    const Result<std::string> stats = (*fleet)->StatsJson("warm");
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(JsonInt(*stats, "cache_bytes"), 0);
  }

  {
    ScopedTempDir dir;
    FleetOptions options = FleetFor(dir.path(), ApproxWarmStartMonitor());
    options.tenant.checkpoint_every = 0;
    options.cache_budget_bytes = 1;  // anything warm is over budget
    Result<std::unique_ptr<TenantFleet>> fleet = TenantFleet::Create(options);
    ASSERT_TRUE(fleet.ok());
    ASSERT_TRUE((*fleet)->Open("a").ok());
    ASSERT_TRUE((*fleet)->Open("b").ok());
    FeedAndFinish(fleet->get(), "a", events);
    FeedAndFinish(fleet->get(), "b", events);
    // Both tenants are idle after Finish, so enforcement on the last
    // release must have evicted them back under the 1-byte budget.
    const Result<std::string> summary = (*fleet)->StatsJson("");
    ASSERT_TRUE(summary.ok());
    EXPECT_LE(JsonInt(*summary, "cache_bytes"), 1);
    EXPECT_GE(CounterValue(obs::SnapshotMetrics(), "server.cache_evictions"),
              1u);
  }
  obs::SetMetricsEnabled(false);
}

// --- stale checkpoint -------------------------------------------------------

TEST(TenantStaleCheckpointTest, CheckpointAheadOfReplayedStreamIsIoError) {
  ScopedTempDir dir;
  TenantOptions options;
  options.monitor = ExactMonitor();
  options.checkpoint_path = dir.path() + "/stale.ckpt";
  options.output_path = dir.path() + "/stale.csv";

  const std::vector<WireEvent> full =
      MakeEvents(2, /*windows=*/8, kPerWindow, kNodes);
  {
    Result<std::unique_ptr<Tenant>> tenant = Tenant::Create("stale", options);
    ASSERT_TRUE(tenant.ok());
    ASSERT_TRUE((*tenant)->ApplyBatch(full).ok());
    ASSERT_TRUE((*tenant)->Finish().ok());
  }

  // The replayed "stream" covers only windows 0-1: the checkpoint claims
  // windows the stream never contained, so this is a mismatched pairing of
  // checkpoint and input, not a resumable state.
  Result<std::unique_ptr<Tenant>> resumed = Tenant::Create("stale", options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE((*resumed)->resumed());
  const std::vector<WireEvent> shorter(
      full.begin(), full.begin() + 2 * kPerWindow);
  ASSERT_TRUE((*resumed)->ApplyBatch(shorter).ok());
  const Status finished = (*resumed)->Finish();
  ASSERT_FALSE(finished.ok());
  EXPECT_EQ(finished.code(), StatusCode::kIoError);
  EXPECT_NE(finished.message().find("checkpoint"), std::string::npos)
      << finished.ToString();
}

// --- finish semantics -------------------------------------------------------

TEST(TenantFinishTest, SecondFinishAndPostFinishBatchesAreRejected) {
  TenantOptions options;
  options.monitor = ExactMonitor();
  Result<std::unique_ptr<Tenant>> tenant = Tenant::Create("once", options);
  ASSERT_TRUE(tenant.ok());
  const std::vector<WireEvent> events =
      MakeEvents(3, /*windows=*/4, kPerWindow, kNodes);
  ASSERT_TRUE((*tenant)->ApplyBatch(events).ok());
  ASSERT_TRUE((*tenant)->Finish().ok());

  const Status again = (*tenant)->Finish();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  const Status late = (*tenant)->ApplyBatch(events);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
}

// --- open/enqueue validation ------------------------------------------------

TEST(FleetOpenTest, ValidatesNamesAndIsIdempotent) {
  ScopedTempDir dir;
  Result<std::unique_ptr<TenantFleet>> fleet =
      TenantFleet::Create(FleetFor(dir.path(), ExactMonitor()));
  ASSERT_TRUE(fleet.ok());
  for (const char* bad : {"", ".", "..", "a/b", "a b"}) {
    const Result<OpenReply> reply = (*fleet)->Open(bad);
    ASSERT_FALSE(reply.ok()) << bad;
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  ASSERT_TRUE((*fleet)->Open("same").ok());
  ASSERT_TRUE((*fleet)->Open("same").ok());
  EXPECT_EQ((*fleet)->tenant_count(), 1u);

  const Result<bool> unknown =
      (*fleet)->Enqueue("nope", std::vector<WireEvent>(1));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(FleetOpenTest, RejectsNegativeOrNanNodesPerTransitionAtCreate) {
  // The server validates its tenant template at start-up, so a bad --l
  // fails cad_server with a Status instead of a CHECK in the first window.
  for (const double l : {-1.0, std::nan("")}) {
    ScopedTempDir dir;
    OnlineMonitorOptions monitor = ExactMonitor();
    monitor.nodes_per_transition = l;
    const Result<std::unique_ptr<TenantFleet>> fleet =
        TenantFleet::Create(FleetFor(dir.path(), monitor));
    ASSERT_FALSE(fleet.ok()) << l;
    EXPECT_EQ(fleet.status().code(), StatusCode::kInvalidArgument) << l;

    TenantOptions options;
    options.monitor = monitor;
    const Result<std::unique_ptr<Tenant>> tenant =
        Tenant::Create("bad_l", options);
    ASSERT_FALSE(tenant.ok()) << l;
    EXPECT_EQ(tenant.status().code(), StatusCode::kInvalidArgument) << l;
  }
}

// --- concurrent ingest stress (TSan target) ---------------------------------

/// Runs `tenants` producer threads against a fleet with `workers` workers
/// and returns (per-tenant report CSVs, non-timer counter snapshot).
std::pair<std::vector<std::string>, std::vector<std::pair<std::string,
                                                          uint64_t>>>
RunStress(size_t workers) {
  ScopedTempDir dir;
  FleetOptions options = FleetFor(dir.path(), ExactMonitor());
  options.num_workers = workers;
  options.tenant.checkpoint_every = 0;
  // Ample capacity: rejections depend on scheduling and must stay 0 for
  // the cross-thread-count metric comparison.
  options.tenant.queue_capacity_events = 1u << 20;
  Result<std::unique_ptr<TenantFleet>> fleet = TenantFleet::Create(options);
  CAD_CHECK(fleet.ok());

  constexpr size_t kStressTenants = 8;
  for (size_t i = 0; i < kStressTenants; ++i) {
    CAD_CHECK((*fleet)->Open(TenantName(i)).ok());
  }
  std::vector<std::thread> producers;
  for (size_t i = 0; i < kStressTenants; ++i) {
    producers.emplace_back([&fleet, i] {
      const std::vector<WireEvent> events =
          MakeEvents(i, /*windows=*/6, /*per_window=*/16, kNodes);
      for (std::vector<WireEvent>& batch : InBatches(events, 32)) {
        while (true) {
          const Result<bool> accepted = (*fleet)->Enqueue(TenantName(i),
                                                          batch);
          CAD_CHECK(accepted.ok());
          if (*accepted) break;
        }
      }
      CAD_CHECK((*fleet)->Finish(TenantName(i)).ok());
    });
  }
  for (std::thread& producer : producers) producer.join();

  std::vector<std::string> reports;
  for (size_t i = 0; i < kStressTenants; ++i) {
    reports.push_back(ReadFile(dir.path() + "/" + TenantName(i) + ".csv"));
    CAD_CHECK(!reports.back().empty());
  }
  return {std::move(reports), obs::SnapshotMetrics().counters};
}

TEST(FleetStressTest, ConcurrentIngestIsThreadCountInvariant) {
  obs::SetMetricsEnabled(true);
  obs::ResetMetrics();
  auto [reports_small, counters_small] = RunStress(/*workers=*/2);
  obs::ResetMetrics();
  auto [reports_large, counters_large] = RunStress(/*workers=*/7);
  obs::SetMetricsEnabled(false);

  // Reports are byte-identical and every non-timer counter (per-tenant
  // events/windows, fleet rejections/evictions) lands on the same value no
  // matter how many workers raced over the queues.
  ASSERT_EQ(reports_small.size(), reports_large.size());
  for (size_t i = 0; i < reports_small.size(); ++i) {
    EXPECT_EQ(reports_small[i], reports_large[i]) << TenantName(i);
  }
  EXPECT_EQ(counters_small, counters_large);
}

}  // namespace
}  // namespace cad::server
