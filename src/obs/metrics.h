#ifndef CAD_OBS_METRICS_H_
#define CAD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cad {
namespace obs {

/// \brief Dependency-free metrics layer (DESIGN.md §5).
///
/// Four instrument kinds, all thread-safe and near-zero-cost when disabled
/// (one relaxed atomic load per call site, see the CAD_METRIC_* macros):
///  - Counter: monotonically increasing uint64. Deterministic across thread
///    counts and runs (integer addition commutes).
///  - Gauge: last-written double. Only write values that are themselves
///    deterministic (residuals, shifts) — never wall-clock durations, which
///    belong in TimerMetric so exports can separate reproducible rows.
///  - Histogram: fixed log2-spaced buckets plus count/sum/min/max. The sum
///    is accumulated in 1/1024 fixed point so that concurrent observation
///    order cannot perturb the exported bytes (exact for integral values
///    such as iteration counts and nanosecond durations).
///  - TimerMetric: count + total nanoseconds of wall time. Exported under
///    kind "timer" so deterministic diffing can filter it out
///    (`grep -v '^timer' metrics.csv` is byte-stable across runs).
///  - Timer histogram (GetTimerHistogram / CAD_METRIC_TIME_HIST_NS): a
///    Histogram whose observations are nanosecond durations, so quantiles
///    (p50/p90/p99) of per-window latency are computable mid-run. Exported
///    under kind "timer" — wall time stays on the volatile side of the
///    determinism contract.
///
/// Exports are sorted by instrument name, so two identical workloads produce
/// byte-identical CSV/JSON regardless of registration or scheduling order.

class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Wall-time accumulator: total nanoseconds + number of intervals.
class TimerMetric {
 public:
  void AddNanos(uint64_t nanos) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(nanos, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t total_ns() const { return total_ns_.load(std::memory_order_relaxed); }
  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_ns_{0};
};

/// \brief Histogram over fixed log-spaced buckets.
///
/// Finite bucket i (0-based) has upper bound 2^i; values <= 1 land in bucket
/// 0, values above 2^(kNumFiniteBuckets-1) land in the overflow bucket. The
/// bounds cover both iteration counts (1..10^6) and nanosecond durations
/// (10^2..10^11) without configuration.
class Histogram {
 public:
  /// Finite buckets with upper bounds 2^0 .. 2^39 (~5.5e11); index
  /// kNumFiniteBuckets is the +inf overflow bucket.
  static constexpr size_t kNumFiniteBuckets = 40;
  static constexpr size_t kNumBuckets = kNumFiniteBuckets + 1;
  /// Fixed-point scale for the order-independent sum (binary, so integral
  /// observations accumulate exactly).
  static constexpr double kSumScale = 1024.0;

  /// Upper bound of bucket `index`; +inf for the overflow bucket.
  static double BucketUpperBound(size_t index);
  /// Index of the bucket `value` falls into (value <= upper bound).
  static size_t BucketIndex(double value);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  /// Sum of observed values, rounded to 1/1024 per observation.
  double Sum() const;
  double Min() const;  // +inf when empty
  double Max() const;  // -inf when empty
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_fixed_{0};
  // Sentinel-initialized so concurrent first observations need no special
  // case: every update is a plain monotone CAS.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Exported view of one histogram.
struct HistogramData {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// (upper bound, count) for every non-empty bucket, in bound order. The
  /// overflow bucket reports an upper bound of +inf.
  std::vector<std::pair<double, uint64_t>> buckets;

  /// \brief Interpolated quantile estimate from the bucket counts
  /// (DESIGN.md §10). `q` is clamped to [0, 1]; an empty histogram returns
  /// NaN. The target rank q*count is located in the cumulative bucket
  /// counts and linearly interpolated across that bucket's [lower, upper)
  /// span (lower = upper/2 for log2 buckets, 0 for the first); the result
  /// is clamped into [min, max], so a single-sample histogram reports the
  /// exact observation and ranks landing in the +inf overflow bucket
  /// report max. Deterministic given identical bucket counts.
  double Quantile(double q) const;
};

/// Point-in-time HistogramData view of a live histogram.
HistogramData SnapshotHistogram(const Histogram& histogram);

struct TimerData {
  uint64_t count = 0;
  uint64_t total_ns = 0;
};

/// \brief Point-in-time export of a registry, sorted by name within each
/// instrument kind. Byte-identical exports for identical workloads.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;
  std::vector<std::pair<std::string, TimerData>> timers;
  /// Histograms of wall-time observations (CAD_METRIC_TIME_HIST_NS).
  /// Exported under CSV kind "timer" so the determinism contract's
  /// `grep -v '^timer'` filter strips them like plain timers.
  std::vector<std::pair<std::string, HistogramData>> timer_histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           timers.empty() && timer_histograms.empty();
  }

  /// \brief Delta view since `previous` (taken earlier from the same
  /// registry): counters, timers, and histogram counts/sums/buckets become
  /// differences, so rates over the interval fall out directly. Rules:
  ///  - Counters/timers: current minus previous. Registered instruments are
  ///    monotone, so a current value below the previous one is a caller bug
  ///    (snapshots from different registries, or a Reset in between) —
  ///    CAD_DCHECK fires, release builds clamp the delta to 0.
  ///  - Instruments absent from `previous` (registered in between) report
  ///    their full current value.
  ///  - Gauges are last-write instruments: the delta carries the current
  ///    value unchanged.
  ///  - Histogram min/max cannot be recovered per interval from buckets, so
  ///    the delta carries the lifetime min/max; zero-delta buckets are
  ///    omitted. Quantile() on a delta therefore interpolates the
  ///    interval's observations, clamped to lifetime extrema.
  /// Entries whose delta is zero are kept (callers filter as needed).
  MetricsSnapshot DiffSince(const MetricsSnapshot& previous) const;
};

/// \brief Owns instruments by name. Handles returned by the Get* methods are
/// valid for the registry's lifetime (the global registry never dies).
/// Registering one name under two different kinds is a CHECK failure.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  TimerMetric* GetTimer(const std::string& name);
  /// A histogram of wall-time observations (nanoseconds). Same storage as
  /// GetHistogram but exported under CSV kind "timer": durations may vary
  /// between runs, so they must live on the volatile side of the
  /// determinism contract while still supporting Quantile().
  Histogram* GetTimerHistogram(const std::string& name);

  /// Zeroes every registered instrument (handles stay valid).
  void Reset();

  MetricsSnapshot Snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kTimer, kTimerHistogram };
  void CheckKind(const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<TimerMetric>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>> timer_histograms_;
};

/// The process-wide registry used by the CAD_METRIC_* macros.
MetricsRegistry& GlobalMetrics();

/// \brief Handle factory for per-entity instrument families (the
/// multi-tenant server's `tenant.<name>.` prefixes, DESIGN.md §13): binds a
/// prefix once and resolves `<prefix>.<suffix>` instruments in the global
/// registry. The CAD_METRIC_* macros cache one static handle per call site
/// and so cannot vary the name at runtime; this is the sanctioned path for
/// dynamic names. Handles come from the same registry, so prefixed rows
/// appear in the same sorted exports and inherit the determinism contract
/// of their kind. Resolution takes the registry lock — resolve handles once
/// per entity and bump those, not per event.
class PrefixedMetrics {
 public:
  explicit PrefixedMetrics(std::string prefix) : prefix_(std::move(prefix)) {}

  Counter* GetCounter(const std::string& suffix) const;
  Gauge* GetGauge(const std::string& suffix) const;
  Histogram* GetHistogram(const std::string& suffix) const;
  TimerMetric* GetTimer(const std::string& suffix) const;
  Histogram* GetTimerHistogram(const std::string& suffix) const;

  const std::string& prefix() const { return prefix_; }

 private:
  std::string prefix_;
};

/// Runtime switch for the CAD_METRIC_* macros; disabled by default so
/// instrumented hot paths cost one relaxed atomic load.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Zeroes the global registry.
void ResetMetrics();

/// Snapshot of the global registry (sorted, deterministic).
MetricsSnapshot SnapshotMetrics();

/// \brief Writes a snapshot as CSV with header `kind,name,field,value`.
/// Rows are emitted counters, gauges, histograms, then timers and timer
/// histograms (the latter two under kind "timer", with p50/p90/p99/max
/// quantile fields in milliseconds), each block sorted by name; histogram
/// buckets appear as `bucket_le_<bound>` fields in bound order (empty
/// buckets omitted). All rows except kind "timer" are byte-identical across
/// reruns of a deterministic workload.
[[nodiscard]] Status WriteMetricsCsv(const MetricsSnapshot& snapshot,
                                     std::ostream* out);

/// \brief Writes a snapshot as one JSON object
/// {counters: {...}, gauges: {...}, histograms: {...}, timers: {...}} with
/// sorted keys.
[[nodiscard]] Status WriteMetricsJson(const MetricsSnapshot& snapshot,
                                      std::ostream* out);

}  // namespace obs
}  // namespace cad

// --- Instrumentation macros ------------------------------------------------
//
// Each macro checks the runtime switch first and resolves its instrument
// handle once per call site (function-local static), so the disabled cost is
// a relaxed load + branch and the enabled steady-state cost is one atomic
// RMW. `name` must be a string literal (or other static-storage string).
// Building with -DCAD_OBS=OFF (CMake) defines CAD_OBS_DISABLED and compiles
// every call site away entirely.

#ifndef CAD_OBS_DISABLED

#define CAD_METRIC_ADD(name, delta)                                     \
  do {                                                                  \
    if (::cad::obs::MetricsEnabled()) {                                 \
      static ::cad::obs::Counter* _cad_metric_handle =                  \
          ::cad::obs::GlobalMetrics().GetCounter(name);                 \
      _cad_metric_handle->Add(static_cast<uint64_t>(delta));            \
    }                                                                   \
  } while (false)

#define CAD_METRIC_INC(name) CAD_METRIC_ADD(name, 1)

#define CAD_METRIC_SET(name, value)                                     \
  do {                                                                  \
    if (::cad::obs::MetricsEnabled()) {                                 \
      static ::cad::obs::Gauge* _cad_metric_handle =                    \
          ::cad::obs::GlobalMetrics().GetGauge(name);                   \
      _cad_metric_handle->Set(static_cast<double>(value));              \
    }                                                                   \
  } while (false)

#define CAD_METRIC_OBSERVE(name, value)                                 \
  do {                                                                  \
    if (::cad::obs::MetricsEnabled()) {                                 \
      static ::cad::obs::Histogram* _cad_metric_handle =                \
          ::cad::obs::GlobalMetrics().GetHistogram(name);               \
      _cad_metric_handle->Observe(static_cast<double>(value));          \
    }                                                                   \
  } while (false)

#define CAD_METRIC_TIME_NS(name, nanos)                                 \
  do {                                                                  \
    if (::cad::obs::MetricsEnabled()) {                                 \
      static ::cad::obs::TimerMetric* _cad_metric_handle =              \
          ::cad::obs::GlobalMetrics().GetTimer(name);                   \
      _cad_metric_handle->AddNanos(static_cast<uint64_t>(nanos));       \
    }                                                                   \
  } while (false)

#define CAD_METRIC_TIME_HIST_NS(name, nanos)                            \
  do {                                                                  \
    if (::cad::obs::MetricsEnabled()) {                                 \
      static ::cad::obs::Histogram* _cad_metric_handle =                \
          ::cad::obs::GlobalMetrics().GetTimerHistogram(name);          \
      _cad_metric_handle->Observe(static_cast<double>(nanos));          \
    }                                                                   \
  } while (false)

#else  // CAD_OBS_DISABLED

#define CAD_METRIC_ADD(name, delta) \
  do {                              \
    if (false) {                    \
      (void)(name);                 \
      (void)(delta);                \
    }                               \
  } while (false)
#define CAD_METRIC_INC(name) CAD_METRIC_ADD(name, 1)
#define CAD_METRIC_SET(name, value) CAD_METRIC_ADD(name, value)
#define CAD_METRIC_OBSERVE(name, value) CAD_METRIC_ADD(name, value)
#define CAD_METRIC_TIME_NS(name, nanos) CAD_METRIC_ADD(name, nanos)
#define CAD_METRIC_TIME_HIST_NS(name, nanos) CAD_METRIC_ADD(name, nanos)

#endif  // CAD_OBS_DISABLED

#endif  // CAD_OBS_METRICS_H_
