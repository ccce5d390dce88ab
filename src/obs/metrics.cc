#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/csv_writer.h"
#include "common/json_writer.h"
#include "obs/trace.h"

namespace cad {
namespace obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

/// Formats metric values for CSV/JSON field names: integers print without a
/// decimal point so bucket field names stay readable (bucket_le_1024).
std::string FormatBound(double bound) {
  if (std::isinf(bound)) return "inf";
  return std::to_string(static_cast<uint64_t>(bound));
}

}  // namespace

double Histogram::BucketUpperBound(size_t index) {
  CAD_CHECK(index < kNumBuckets);
  if (index == kNumFiniteBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, static_cast<int>(index));  // 2^index
}

size_t Histogram::BucketIndex(double value) {
  if (!(value > 1.0)) return 0;  // NaN and <= 1 land in the first bucket
  // Smallest i with value <= 2^i, i.e. ceil(log2(value)) for value > 1.
  const int exponent = std::ilogb(value);
  const double floor_pow = std::ldexp(1.0, exponent);
  const size_t index =
      static_cast<size_t>(exponent) + (value > floor_pow ? 1 : 0);
  return std::min(index, kNumFiniteBuckets);
}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  sum_fixed_.fetch_add(static_cast<int64_t>(std::llround(value * kSumScale)),
                       std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Monotone CAS against the +-inf sentinels: deterministic for a fixed
  // multiset of observations regardless of interleaving.
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double Histogram::Sum() const {
  return static_cast<double>(sum_fixed_.load(std::memory_order_relaxed)) /
         kSumScale;
}

double Histogram::Min() const { return min_.load(std::memory_order_relaxed); }

double Histogram::Max() const { return max_.load(std::memory_order_relaxed); }

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_fixed_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double HistogramData::Quantile(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (const auto& [upper, bucket_count] : buckets) {
    const uint64_t next = cumulative + bucket_count;
    if (rank <= static_cast<double>(next) || next == count) {
      if (std::isinf(upper)) return max;  // overflow bucket: only max is known
      // Log2 buckets span (upper/2, upper]; the first spans [0, 1].
      const double lower = upper == 1.0 ? 0.0 : upper / 2.0;
      const double fraction =
          bucket_count == 0
              ? 1.0
              : (rank - static_cast<double>(cumulative)) /
                    static_cast<double>(bucket_count);
      const double value = lower + fraction * (upper - lower);
      return std::min(std::max(value, min), max);
    }
    cumulative = next;
  }
  return max;  // unreachable for a consistent snapshot
}

namespace {

/// Merge-walks two name-sorted vectors; `previous` may be missing names
/// (instruments registered after it was taken).
template <typename T, typename Diff>
std::vector<std::pair<std::string, T>> DiffSorted(
    const std::vector<std::pair<std::string, T>>& current,
    const std::vector<std::pair<std::string, T>>& previous, Diff diff) {
  std::vector<std::pair<std::string, T>> result;
  result.reserve(current.size());
  size_t p = 0;
  for (const auto& [name, value] : current) {
    while (p < previous.size() && previous[p].first < name) ++p;
    const T* before =
        (p < previous.size() && previous[p].first == name) ? &previous[p].second
                                                           : nullptr;
    result.emplace_back(name, diff(value, before));
  }
  return result;
}

uint64_t MonotoneDelta(uint64_t current, uint64_t previous) {
  CAD_DCHECK_GE(current, previous)
      << "metric went backwards between snapshots (mismatched registries or "
         "an interleaved Reset)";
  return current >= previous ? current - previous : 0;
}

HistogramData DiffHistogram(const HistogramData& current,
                            const HistogramData* previous) {
  if (previous == nullptr) return current;
  HistogramData delta;
  delta.count = MonotoneDelta(current.count, previous->count);
  delta.sum = current.sum - previous->sum;
  // Per-interval extrema are not recoverable from buckets: carry the
  // lifetime min/max (still valid bounds for every interval observation).
  delta.min = current.min;
  delta.max = current.max;
  size_t p = 0;
  for (const auto& [bound, bucket_count] : current.buckets) {
    while (p < previous->buckets.size() && previous->buckets[p].first < bound) {
      ++p;
    }
    const uint64_t before =
        (p < previous->buckets.size() && previous->buckets[p].first == bound)
            ? previous->buckets[p].second
            : 0;
    const uint64_t bucket_delta = MonotoneDelta(bucket_count, before);
    if (bucket_delta > 0) delta.buckets.emplace_back(bound, bucket_delta);
  }
  return delta;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::DiffSince(
    const MetricsSnapshot& previous) const {
  MetricsSnapshot delta;
  delta.counters = DiffSorted(
      counters, previous.counters, [](uint64_t value, const uint64_t* before) {
        return before == nullptr ? value : MonotoneDelta(value, *before);
      });
  // Gauges are last-write instruments; the interval delta is the value.
  delta.gauges = gauges;
  const auto diff_histogram = [](const HistogramData& value,
                                 const HistogramData* before) {
    return DiffHistogram(value, before);
  };
  delta.histograms = DiffSorted(histograms, previous.histograms,
                                diff_histogram);
  delta.timer_histograms = DiffSorted(timer_histograms,
                                      previous.timer_histograms,
                                      diff_histogram);
  delta.timers = DiffSorted(
      timers, previous.timers, [](const TimerData& value,
                                  const TimerData* before) {
        if (before == nullptr) return value;
        return TimerData{MonotoneDelta(value.count, before->count),
                         MonotoneDelta(value.total_ns, before->total_ns)};
      });
  return delta;
}

void MetricsRegistry::CheckKind(const std::string& name, Kind kind) {
  const auto [it, inserted] = kinds_.emplace(name, kind);
  CAD_CHECK(it->second == kind)
      << "metric '" << name << "' registered under two instrument kinds";
  (void)inserted;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  CheckKind(name, Kind::kCounter);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  CheckKind(name, Kind::kGauge);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  CheckKind(name, Kind::kHistogram);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

TimerMetric* MetricsRegistry::GetTimer(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  CheckKind(name, Kind::kTimer);
  std::unique_ptr<TimerMetric>& slot = timers_[name];
  if (!slot) slot = std::make_unique<TimerMetric>();
  return slot.get();
}

Histogram* MetricsRegistry::GetTimerHistogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  CheckKind(name, Kind::kTimerHistogram);
  std::unique_ptr<Histogram>& slot = timer_histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::Reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  for (auto& [name, histogram] : timer_histograms_) histogram->Reset();
  for (auto& [name, timer] : timers_) timer->Reset();
}

HistogramData SnapshotHistogram(const Histogram& histogram) {
  HistogramData data;
  data.count = histogram.count();
  data.sum = histogram.Sum();
  data.min = histogram.Min();
  data.max = histogram.Max();
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t bucket_count = histogram.bucket_count(b);
    if (bucket_count == 0) continue;
    data.buckets.emplace_back(Histogram::BucketUpperBound(b), bucket_count);
  }
  return data;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  // std::map iteration is already name-sorted.
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, SnapshotHistogram(*histogram));
  }
  for (const auto& [name, histogram] : timer_histograms_) {
    snapshot.timer_histograms.emplace_back(name, SnapshotHistogram(*histogram));
  }
  for (const auto& [name, timer] : timers_) {
    snapshot.timers.emplace_back(name,
                                 TimerData{timer->count(), timer->total_ns()});
  }
  return snapshot;
}

MetricsRegistry& GlobalMetrics() {
  // Intentionally leaked so exiting threads can still flush into it.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter* PrefixedMetrics::GetCounter(const std::string& suffix) const {
  return GlobalMetrics().GetCounter(prefix_ + "." + suffix);
}

Gauge* PrefixedMetrics::GetGauge(const std::string& suffix) const {
  return GlobalMetrics().GetGauge(prefix_ + "." + suffix);
}

Histogram* PrefixedMetrics::GetHistogram(const std::string& suffix) const {
  return GlobalMetrics().GetHistogram(prefix_ + "." + suffix);
}

TimerMetric* PrefixedMetrics::GetTimer(const std::string& suffix) const {
  return GlobalMetrics().GetTimer(prefix_ + "." + suffix);
}

Histogram* PrefixedMetrics::GetTimerHistogram(
    const std::string& suffix) const {
  return GlobalMetrics().GetTimerHistogram(prefix_ + "." + suffix);
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void ResetMetrics() { GlobalMetrics().Reset(); }

MetricsSnapshot SnapshotMetrics() { return GlobalMetrics().Snapshot(); }

Status WriteMetricsCsv(const MetricsSnapshot& snapshot, std::ostream* out) {
  CAD_CHECK(out != nullptr);
  CsvWriter writer(out, {"kind", "name", "field", "value"});
  for (const auto& [name, value] : snapshot.counters) {
    writer.WriteRow({"counter", name, "value", std::to_string(value)});
  }
  for (const auto& [name, value] : snapshot.gauges) {
    writer.WriteRow({"gauge", name, "value", FormatDouble(value, 12)});
  }
  for (const auto& [name, data] : snapshot.histograms) {
    writer.WriteRow({"histogram", name, "count", std::to_string(data.count)});
    writer.WriteRow({"histogram", name, "sum", FormatDouble(data.sum, 12)});
    if (data.count > 0) {
      writer.WriteRow({"histogram", name, "min", FormatDouble(data.min, 12)});
      writer.WriteRow({"histogram", name, "max", FormatDouble(data.max, 12)});
    }
    for (const auto& [bound, bucket_count] : data.buckets) {
      writer.WriteRow({"histogram", name, "bucket_le_" + FormatBound(bound),
                       std::to_string(bucket_count)});
    }
  }
  for (const auto& [name, data] : snapshot.timers) {
    writer.WriteRow({"timer", name, "count", std::to_string(data.count)});
    writer.WriteRow({"timer", name, "total_ms",
                     FormatDouble(static_cast<double>(data.total_ns) / 1e6, 6)});
  }
  // Timer histograms record nanosecond durations; like plain timers they are
  // wall-clock-dependent, so they export under kind "timer" to stay out of
  // the deterministic non-timer row contract.
  for (const auto& [name, data] : snapshot.timer_histograms) {
    writer.WriteRow({"timer", name, "count", std::to_string(data.count)});
    writer.WriteRow({"timer", name, "total_ms",
                     FormatDouble(data.sum / 1e6, 6)});
    if (data.count > 0) {
      writer.WriteRow(
          {"timer", name, "p50_ms", FormatDouble(data.Quantile(0.5) / 1e6, 6)});
      writer.WriteRow(
          {"timer", name, "p90_ms", FormatDouble(data.Quantile(0.9) / 1e6, 6)});
      writer.WriteRow({"timer", name, "p99_ms",
                       FormatDouble(data.Quantile(0.99) / 1e6, 6)});
      writer.WriteRow({"timer", name, "max_ms",
                       FormatDouble(data.max / 1e6, 6)});
    }
  }
  if (!out->good()) return Status::IoError("metrics CSV write failed");
  return Status::OK();
}

Status WriteMetricsJson(const MetricsSnapshot& snapshot, std::ostream* out) {
  CAD_CHECK(out != nullptr);
  JsonWriter json(out);
  json.BeginObject();
  json.Key("counters");
  json.BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    json.Key(name);
    json.Number(static_cast<size_t>(value));
  }
  json.EndObject();
  json.Key("gauges");
  json.BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    json.Key(name);
    json.Number(value);
  }
  json.EndObject();
  json.Key("histograms");
  json.BeginObject();
  for (const auto& [name, data] : snapshot.histograms) {
    json.Key(name);
    json.BeginObject();
    json.Key("count");
    json.Number(static_cast<size_t>(data.count));
    json.Key("sum");
    json.Number(data.sum);
    if (data.count > 0) {
      json.Key("min");
      json.Number(data.min);
      json.Key("max");
      json.Number(data.max);
    }
    json.Key("buckets");
    json.BeginArray();
    for (const auto& [bound, bucket_count] : data.buckets) {
      json.BeginObject();
      json.Key("le");
      if (std::isinf(bound)) {
        json.String("inf");
      } else {
        json.Number(bound);
      }
      json.Key("count");
      json.Number(static_cast<size_t>(bucket_count));
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
  json.Key("timers");
  json.BeginObject();
  for (const auto& [name, data] : snapshot.timers) {
    json.Key(name);
    json.BeginObject();
    json.Key("count");
    json.Number(static_cast<size_t>(data.count));
    json.Key("total_ms");
    json.Number(static_cast<double>(data.total_ns) / 1e6);
    json.EndObject();
  }
  json.EndObject();
  json.Key("timer_histograms");
  json.BeginObject();
  for (const auto& [name, data] : snapshot.timer_histograms) {
    json.Key(name);
    json.BeginObject();
    json.Key("count");
    json.Number(static_cast<size_t>(data.count));
    json.Key("total_ms");
    json.Number(data.sum / 1e6);
    if (data.count > 0) {
      json.Key("p50_ms");
      json.Number(data.Quantile(0.5) / 1e6);
      json.Key("p90_ms");
      json.Number(data.Quantile(0.9) / 1e6);
      json.Key("p99_ms");
      json.Number(data.Quantile(0.99) / 1e6);
      json.Key("max_ms");
      json.Number(data.max / 1e6);
    }
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  (*out) << "\n";
  if (!out->good()) return Status::IoError("metrics JSON write failed");
  return Status::OK();
}


namespace {

/// ParallelFor instrumentation (common/parallel.h). common/ cannot call up
/// into obs/, so the hooks live here and are installed at static-init time;
/// metrics.cc is linked into anything that consumes metrics, so every
/// observable binary gets them.
void* ParallelCallBegin(size_t task_count) {
  CAD_METRIC_INC("parallel.calls");
  CAD_METRIC_ADD("parallel.tasks", task_count);
  if (!TracingEnabled() && !MetricsEnabled()) return nullptr;
  return new TraceSpan("parallel_for");
}

void ParallelCallEnd(void* cookie) { delete static_cast<TraceSpan*>(cookie); }

void ParallelTaskTimeNs(uint64_t nanos) {
  CAD_METRIC_TIME_NS("parallel.task", nanos);
}

const ParallelHooks kParallelHooks{&ParallelCallBegin, &ParallelCallEnd,
                                   &MetricsEnabled, &ParallelTaskTimeNs};

[[maybe_unused]] const bool g_parallel_hooks_installed = [] {
  SetParallelHooks(&kParallelHooks);
  return true;
}();

}  // namespace

}  // namespace obs
}  // namespace cad
