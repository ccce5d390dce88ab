// Tests for the metrics half of src/obs/: instrument semantics, histogram
// bucket boundaries, exactness of concurrent recording, and the
// deterministic sorted CSV/JSON exports.
//
// The CAD_METRIC_* macros write to the process-global registry, which never
// unregisters names; macro tests therefore use test-unique metric names and
// look them up in the snapshot instead of asserting on its overall size.
// Export-shape tests use local MetricsRegistry instances, which are fully
// isolated.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/obs.h"

namespace cad {
namespace obs {
namespace {

bool FindCounter(const MetricsSnapshot& snapshot, const std::string& name,
                 uint64_t* value) {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) {
      *value = v;
      return true;
    }
  }
  return false;
}

const HistogramData* FindHistogram(const MetricsSnapshot& snapshot,
                                   const std::string& name) {
  for (const auto& [n, data] : snapshot.histograms) {
    if (n == name) return &data;
  }
  return nullptr;
}

// --- instrument semantics (no macros, registry-local) ----------------------

TEST(HistogramTest, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 2.0);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1024.0);
  EXPECT_TRUE(std::isinf(
      Histogram::BucketUpperBound(Histogram::kNumFiniteBuckets)));
}

TEST(HistogramTest, BucketIndexIsSmallestContainingBucket) {
  // Values <= 1 (and non-finite garbage) land in the first bucket.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0u);
  // Upper bounds are inclusive.
  EXPECT_EQ(Histogram::BucketIndex(1.5), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.5), 2u);
  EXPECT_EQ(Histogram::BucketIndex(1024.0), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1025.0), 11u);
  // Largest finite bucket, then overflow.
  EXPECT_EQ(Histogram::BucketIndex(std::ldexp(1.0, 39)), 39u);
  EXPECT_EQ(Histogram::BucketIndex(1e12), Histogram::kNumFiniteBuckets);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumFiniteBuckets);
}

TEST(HistogramTest, ObserveTracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isinf(h.Min()));
  EXPECT_GT(h.Min(), 0.0);  // +inf sentinel
  EXPECT_TRUE(std::isinf(h.Max()));
  EXPECT_LT(h.Max(), 0.0);  // -inf sentinel

  h.Observe(3.0);
  h.Observe(1.0);
  h.Observe(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 10.0);
  EXPECT_EQ(h.bucket_count(Histogram::BucketIndex(3.0)), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::BucketIndex(1.0)), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::BucketIndex(10.0)), 1u);
}

TEST(HistogramTest, FixedPointSumIsExactForBinaryFractions) {
  // 0.25 * 1024 is integral, so a thousand observations accumulate with no
  // rounding drift at all.
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Observe(0.25);
  EXPECT_DOUBLE_EQ(h.Sum(), 250.0);
}

TEST(HistogramTest, ResetRestoresSentinels) {
  Histogram h;
  h.Observe(7.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_TRUE(std::isinf(h.Min()) && h.Min() > 0.0);
  EXPECT_TRUE(std::isinf(h.Max()) && h.Max() < 0.0);
}

TEST(MetricsRegistryTest, HandlesAreStableAndResetZeroes) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  counter->Add(41);
  counter->Increment();
  EXPECT_EQ(registry.GetCounter("c"), counter);  // same handle on re-get
  EXPECT_EQ(counter->Value(), 42u);
  registry.GetGauge("g")->Set(0.5);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(registry.GetGauge("g")->Value(), 0.0);
}

TEST(MetricsRegistryTest, SnapshotIsNameSorted) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Add(1);
  registry.GetCounter("alpha")->Add(2);
  registry.GetCounter("mid")->Add(3);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha");
  EXPECT_EQ(snapshot.counters[1].first, "mid");
  EXPECT_EQ(snapshot.counters[2].first, "zeta");
}

// --- quantile interpolation -------------------------------------------------

TEST(QuantileTest, EmptyHistogramReturnsNaN) {
  const HistogramData empty;
  EXPECT_TRUE(std::isnan(empty.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(empty.Quantile(0.0)));
  EXPECT_TRUE(std::isnan(empty.Quantile(1.0)));
}

TEST(QuantileTest, SingleSampleReportsTheExactObservation) {
  MetricsRegistry registry;  // route through a snapshot for the Data form
  registry.GetHistogram("single")->Observe(3.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramData* data = FindHistogram(snapshot, "single");
  ASSERT_NE(data, nullptr);
  // The [min, max] clamp pins every rank of a one-sample histogram to the
  // observation itself.
  EXPECT_DOUBLE_EQ(data->Quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(data->Quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(data->Quantile(0.99), 3.0);
  EXPECT_DOUBLE_EQ(data->Quantile(1.0), 3.0);
}

/// One observation per bucket at the bucket upper bounds 1, 2, 4, 8.
HistogramData PowerOfTwoLadder() {
  HistogramData data;
  data.count = 4;
  data.sum = 15.0;
  data.min = 1.0;
  data.max = 8.0;
  data.buckets = {{1.0, 1}, {2.0, 1}, {4.0, 1}, {8.0, 1}};
  return data;
}

TEST(QuantileTest, ExactBucketBoundariesInterpolateToTheBound) {
  const HistogramData data = PowerOfTwoLadder();
  // Rank q*count lands exactly on each bucket's cumulative edge, and linear
  // interpolation across [lower, upper] reaches the upper bound exactly.
  EXPECT_DOUBLE_EQ(data.Quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(data.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(data.Quantile(0.75), 4.0);
  EXPECT_DOUBLE_EQ(data.Quantile(1.0), 8.0);
}

TEST(QuantileTest, MidBucketRanksInterpolateLinearly) {
  const HistogramData data = PowerOfTwoLadder();
  // Rank 2.5 is halfway through the (2, 4] bucket: 2 + 0.5 * (4 - 2).
  EXPECT_DOUBLE_EQ(data.Quantile(0.625), 3.0);
  // Rank 0.5 is halfway through [0, 1] -> 0.5, clamped up to min = 1.
  EXPECT_DOUBLE_EQ(data.Quantile(0.125), 1.0);
}

TEST(QuantileTest, QIsClampedToUnitInterval) {
  const HistogramData data = PowerOfTwoLadder();
  EXPECT_DOUBLE_EQ(data.Quantile(-3.0), data.Quantile(0.0));
  EXPECT_DOUBLE_EQ(data.Quantile(7.0), data.Quantile(1.0));
}

TEST(QuantileTest, OverflowBucketReportsMax) {
  HistogramData data;
  data.count = 2;
  data.min = 1e12;
  data.max = 9e12;
  data.buckets = {{std::numeric_limits<double>::infinity(), 2}};
  EXPECT_DOUBLE_EQ(data.Quantile(0.5), 9e12);
  EXPECT_DOUBLE_EQ(data.Quantile(0.99), 9e12);
}

TEST(QuantileTest, DeterministicGivenIdenticalBucketCounts) {
  // Two histograms built in different observation orders have identical
  // bucket counts, so every quantile matches bit-for-bit.
  MetricsRegistry first;
  MetricsRegistry second;
  for (double v : {5.0, 100.0, 3.0, 17.0}) {
    first.GetHistogram("h")->Observe(v);
  }
  for (double v : {17.0, 3.0, 100.0, 5.0}) {
    second.GetHistogram("h")->Observe(v);
  }
  // FindHistogram points into its snapshot, so each must outlive the reads.
  const MetricsSnapshot first_snapshot = first.Snapshot();
  const MetricsSnapshot second_snapshot = second.Snapshot();
  const HistogramData* a = FindHistogram(first_snapshot, "h");
  const HistogramData* b = FindHistogram(second_snapshot, "h");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a->Quantile(q), b->Quantile(q)) << "q=" << q;
  }
}

// --- delta snapshots --------------------------------------------------------

TEST(DiffSinceTest, CountersAndTimersBecomeDeltas) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(5);
  registry.GetTimer("t")->AddNanos(100);
  const MetricsSnapshot before = registry.Snapshot();
  registry.GetCounter("c")->Add(3);
  registry.GetTimer("t")->AddNanos(250);
  const MetricsSnapshot delta = registry.Snapshot().DiffSince(before);
  uint64_t value = 0;
  ASSERT_TRUE(FindCounter(delta, "c", &value));
  EXPECT_EQ(value, 3u);
  ASSERT_EQ(delta.timers.size(), 1u);
  EXPECT_EQ(delta.timers[0].second.count, 1u);
  EXPECT_EQ(delta.timers[0].second.total_ns, 250u);
}

TEST(DiffSinceTest, MetricAppearingBetweenSnapshotsReportsFullValue) {
  MetricsRegistry registry;
  registry.GetCounter("old")->Add(1);
  const MetricsSnapshot before = registry.Snapshot();
  registry.GetCounter("appeared")->Add(7);
  registry.GetHistogram("appeared_hist")->Observe(2.0);
  const MetricsSnapshot delta = registry.Snapshot().DiffSince(before);
  uint64_t value = 0;
  ASSERT_TRUE(FindCounter(delta, "appeared", &value));
  EXPECT_EQ(value, 7u);
  const HistogramData* hist = FindHistogram(delta, "appeared_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  // Unchanged instruments report a zero delta but stay listed.
  ASSERT_TRUE(FindCounter(delta, "old", &value));
  EXPECT_EQ(value, 0u);
}

TEST(DiffSinceTest, GaugesCarryTheCurrentValue) {
  MetricsRegistry registry;
  registry.GetGauge("g")->Set(1.5);
  const MetricsSnapshot before = registry.Snapshot();
  registry.GetGauge("g")->Set(9.0);
  const MetricsSnapshot delta = registry.Snapshot().DiffSince(before);
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(delta.gauges[0].second, 9.0);
}

TEST(DiffSinceTest, HistogramDeltaOmitsUnchangedBucketsKeepsLifetimeMinMax) {
  MetricsRegistry registry;
  registry.GetHistogram("h")->Observe(1.0);    // bucket_le_1
  registry.GetHistogram("h")->Observe(100.0);  // bucket_le_128
  const MetricsSnapshot before = registry.Snapshot();
  registry.GetHistogram("h")->Observe(100.0);
  const MetricsSnapshot delta = registry.Snapshot().DiffSince(before);
  const HistogramData* hist = FindHistogram(delta, "h");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_DOUBLE_EQ(hist->sum, 100.0);
  // Only the bucket that grew survives; min/max are the lifetime extrema.
  ASSERT_EQ(hist->buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(hist->buckets[0].first, 128.0);
  EXPECT_EQ(hist->buckets[0].second, 1u);
  EXPECT_DOUBLE_EQ(hist->min, 1.0);
  EXPECT_DOUBLE_EQ(hist->max, 100.0);
}

TEST(DiffSinceTest, BackwardsCounterIsACallerBug) {
  MetricsRegistry ahead;
  ahead.GetCounter("c")->Add(10);
  const MetricsSnapshot newer = ahead.Snapshot();
  MetricsRegistry behind;
  behind.GetCounter("c")->Add(4);
  const MetricsSnapshot older = behind.Snapshot();
#ifdef CAD_ENABLE_DCHECK
  EXPECT_DEATH((void)older.DiffSince(newer), "went backwards");
#else
  // Release builds clamp the impossible negative delta to zero.
  const MetricsSnapshot delta = older.DiffSince(newer);
  uint64_t value = 99;
  ASSERT_TRUE(FindCounter(delta, "c", &value));
  EXPECT_EQ(value, 0u);
#endif
}

// --- timer histograms -------------------------------------------------------

TEST(TimerHistogramTest, RegisteredSeparatelyAndExportedUnderTimerKind) {
  MetricsRegistry registry;
  registry.GetTimerHistogram("latency")->Observe(1.5e6);
  registry.GetTimerHistogram("latency")->Observe(3.0e6);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.histograms.empty());
  ASSERT_EQ(snapshot.timer_histograms.size(), 1u);
  EXPECT_EQ(snapshot.timer_histograms[0].second.count, 2u);

  std::ostringstream out;
  ASSERT_TRUE(WriteMetricsCsv(snapshot, &out).ok());
  const std::string csv = out.str();
  // Rows carry kind "timer" (so `grep -v '^timer'` strips them) with
  // millisecond quantile fields.
  EXPECT_NE(csv.find("timer,latency,count,2\n"), std::string::npos);
  EXPECT_NE(csv.find("timer,latency,p50_ms,"), std::string::npos);
  EXPECT_NE(csv.find("timer,latency,p90_ms,"), std::string::npos);
  EXPECT_NE(csv.find("timer,latency,p99_ms,"), std::string::npos);
  EXPECT_NE(csv.find("timer,latency,max_ms,3\n"), std::string::npos);
  EXPECT_EQ(csv.find("histogram,latency"), std::string::npos);
}

TEST(TimerHistogramTest, ResetZeroesAndDiffSinceDeltas) {
  MetricsRegistry registry;
  registry.GetTimerHistogram("latency")->Observe(10.0);
  const MetricsSnapshot before = registry.Snapshot();
  registry.GetTimerHistogram("latency")->Observe(20.0);
  const MetricsSnapshot delta = registry.Snapshot().DiffSince(before);
  ASSERT_EQ(delta.timer_histograms.size(), 1u);
  EXPECT_EQ(delta.timer_histograms[0].second.count, 1u);
  registry.Reset();
  const MetricsSnapshot cleared = registry.Snapshot();
  ASSERT_EQ(cleared.timer_histograms.size(), 1u);
  EXPECT_EQ(cleared.timer_histograms[0].second.count, 0u);
}

// --- exports ----------------------------------------------------------------

/// Builds the same small registry twice; exports must agree byte-for-byte
/// no matter when or in which order the instruments were touched.
MetricsSnapshot BuildReferenceSnapshot(bool reversed) {
  MetricsRegistry registry;
  if (reversed) {
    registry.GetTimer("t")->AddNanos(1500000);
    registry.GetHistogram("h")->Observe(3.0);
    registry.GetHistogram("h")->Observe(1.0);
    registry.GetGauge("g")->Set(0.5);
    registry.GetCounter("b")->Add(2);
    registry.GetCounter("a")->Add(1);
  } else {
    registry.GetCounter("a")->Add(1);
    registry.GetCounter("b")->Add(2);
    registry.GetGauge("g")->Set(0.5);
    registry.GetHistogram("h")->Observe(1.0);
    registry.GetHistogram("h")->Observe(3.0);
    registry.GetTimer("t")->AddNanos(1500000);
  }
  return registry.Snapshot();
}

TEST(MetricsExportTest, CsvIsDeterministicAcrossBuildOrder) {
  std::ostringstream first;
  std::ostringstream second;
  ASSERT_TRUE(WriteMetricsCsv(BuildReferenceSnapshot(false), &first).ok());
  ASSERT_TRUE(WriteMetricsCsv(BuildReferenceSnapshot(true), &second).ok());
  EXPECT_EQ(first.str(), second.str());
}

TEST(MetricsExportTest, CsvRowsCarryKindNameFieldValue) {
  std::ostringstream out;
  ASSERT_TRUE(WriteMetricsCsv(BuildReferenceSnapshot(false), &out).ok());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,a,value,1\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,b,value,2\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,value,0.5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,count,2\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,sum,4\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,min,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,max,3\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,bucket_le_1,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,bucket_le_4,1\n"), std::string::npos);
  EXPECT_NE(csv.find("timer,t,count,1\n"), std::string::npos);
  EXPECT_NE(csv.find("timer,t,total_ms,1.5\n"), std::string::npos);
  // Sorted: counter a before counter b.
  EXPECT_LT(csv.find("counter,a,"), csv.find("counter,b,"));
}

TEST(MetricsExportTest, JsonIsDeterministicAndStructured) {
  std::ostringstream first;
  std::ostringstream second;
  ASSERT_TRUE(WriteMetricsJson(BuildReferenceSnapshot(false), &first).ok());
  ASSERT_TRUE(WriteMetricsJson(BuildReferenceSnapshot(true), &second).ok());
  EXPECT_EQ(first.str(), second.str());
  const std::string json = first.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("\"a\""), std::string::npos);
}

TEST(MetricsExportTest, EmptyHistogramOmitsMinMaxRows) {
  MetricsRegistry registry;
  registry.GetHistogram("empty");
  std::ostringstream out;
  ASSERT_TRUE(WriteMetricsCsv(registry.Snapshot(), &out).ok());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("histogram,empty,count,0\n"), std::string::npos);
  EXPECT_EQ(csv.find("histogram,empty,min"), std::string::npos);
  EXPECT_EQ(csv.find("histogram,empty,max"), std::string::npos);
}

// --- macros against the global registry -------------------------------------

#ifndef CAD_OBS_DISABLED

TEST(MetricMacroTest, DisabledMacrosRecordNothing) {
  ASSERT_FALSE(MetricsEnabled()) << "tests must not leak the enabled state";
  CAD_METRIC_INC("test.obs_metrics.disabled_counter");
  CAD_METRIC_OBSERVE("test.obs_metrics.disabled_hist", 5.0);
  const MetricsSnapshot snapshot = SnapshotMetrics();
  uint64_t value = 0;
  EXPECT_FALSE(
      FindCounter(snapshot, "test.obs_metrics.disabled_counter", &value));
  EXPECT_EQ(FindHistogram(snapshot, "test.obs_metrics.disabled_hist"),
            nullptr);
}

TEST(MetricMacroTest, CounterAndGaugeRecordWhenEnabled) {
  const ScopedMetricsEnable enable;
  CAD_METRIC_ADD("test.obs_metrics.counter", 5);
  CAD_METRIC_INC("test.obs_metrics.counter");
  CAD_METRIC_SET("test.obs_metrics.gauge", 2.5);
  const MetricsSnapshot snapshot = SnapshotMetrics();
  uint64_t value = 0;
  ASSERT_TRUE(FindCounter(snapshot, "test.obs_metrics.counter", &value));
  EXPECT_EQ(value, 6u);
  bool gauge_found = false;
  for (const auto& [name, gauge] : snapshot.gauges) {
    if (name == "test.obs_metrics.gauge") {
      gauge_found = true;
      EXPECT_DOUBLE_EQ(gauge, 2.5);
    }
  }
  EXPECT_TRUE(gauge_found);
}

TEST(MetricMacroTest, ConcurrentIncrementsAreExact) {
  const ScopedMetricsEnable enable;
  constexpr size_t kTasks = 1000;
  ParallelFor(kTasks, 8, [](size_t i) {
    CAD_METRIC_INC("test.obs_metrics.concurrent_counter");
    CAD_METRIC_OBSERVE("test.obs_metrics.concurrent_hist",
                       static_cast<double>(i % 7 + 1));
  });
  const MetricsSnapshot snapshot = SnapshotMetrics();
  uint64_t value = 0;
  ASSERT_TRUE(
      FindCounter(snapshot, "test.obs_metrics.concurrent_counter", &value));
  EXPECT_EQ(value, kTasks);
  const HistogramData* hist =
      FindHistogram(snapshot, "test.obs_metrics.concurrent_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kTasks);
  double expected_sum = 0.0;
  for (size_t i = 0; i < kTasks; ++i) {
    expected_sum += static_cast<double>(i % 7 + 1);
  }
  // Integral observations are exact in the fixed-point sum, so this holds
  // bit-for-bit regardless of the interleaving.
  EXPECT_DOUBLE_EQ(hist->sum, expected_sum);
  EXPECT_DOUBLE_EQ(hist->min, 1.0);
  EXPECT_DOUBLE_EQ(hist->max, 7.0);
}

TEST(MetricMacroTest, TimeHistMacroRecordsIntoTimerHistograms) {
  const ScopedMetricsEnable enable;
  CAD_METRIC_TIME_HIST_NS("test.obs_metrics.latency_hist", 1000);
  CAD_METRIC_TIME_HIST_NS("test.obs_metrics.latency_hist", 3000);
  const MetricsSnapshot snapshot = SnapshotMetrics();
  const HistogramData* found = nullptr;
  for (const auto& [name, data] : snapshot.timer_histograms) {
    if (name == "test.obs_metrics.latency_hist") found = &data;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 2u);
  // Not registered as a plain (deterministic-contract) histogram.
  EXPECT_EQ(FindHistogram(snapshot, "test.obs_metrics.latency_hist"), nullptr);
}

TEST(MetricMacroTest, RepeatedRunsExportIdenticalNonTimerCsv) {
  const auto run_once = [] {
    const ScopedMetricsEnable enable;
    ParallelFor(64, 4, [](size_t i) {
      CAD_METRIC_INC("test.obs_metrics.replay_counter");
      CAD_METRIC_OBSERVE("test.obs_metrics.replay_hist",
                         static_cast<double>(i + 1));
    });
    std::ostringstream out;
    EXPECT_TRUE(WriteMetricsCsv(SnapshotMetrics(), &out).ok());
    // Drop timer rows, the one kind allowed to differ between reruns.
    std::istringstream in(out.str());
    std::string line;
    std::string filtered;
    while (std::getline(in, line)) {
      if (line.rfind("timer,", 0) == 0) continue;
      filtered += line;
      filtered += '\n';
    }
    return filtered;
  };
  EXPECT_EQ(run_once(), run_once());
}

#endif  // CAD_OBS_DISABLED

}  // namespace
}  // namespace obs
}  // namespace cad
