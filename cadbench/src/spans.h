#ifndef CADBENCH_SPANS_H_
#define CADBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cadbench {

/// Monotonic clock in nanoseconds (the library's Timer clock).
uint64_t NowNs();

/// One timed call into a layer, recorded by the benchmark around its calls
/// into the library.
struct Span {
  std::string name;
  uint64_t duration_ns = 0;
  /// Index of the enclosing span in SpanLog::spans(), or -1 for a root.
  int parent = -1;
  /// A layer span's self time is attributed to its layer. A container span
  /// (an enclosing public call such as OnlineCadMonitor::Observe) is not a
  /// layer: whatever its children do not cover stays unattributed.
  bool layer = true;
};

/// \brief In-memory span log with self-time accounting.
///
/// Spans are opened and closed around calls (Open/Close, or ScopedSpan), or
/// added with a known duration under an enclosing span (Add) when the time
/// was measured another way: read from the library's own `span.*` timers, or
/// by timing a public function beside the call that encloses it.
class SpanLog {
 public:
  int Open(const std::string& name, bool layer = true);
  void Close(int index);
  int Add(int parent, const std::string& name, uint64_t duration_ns,
          bool layer = true);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the summed durations of the direct children. Negative
  /// when a beside measurement overestimates what the enclosing call did.
  std::vector<double> SelfNs() const;

  /// Summed self time of the layer spans, by name.
  std::map<std::string, double> LayerSelfNs() const;

  /// Summed durations, by name (layers and containers).
  std::map<std::string, double> TotalNs() const;

  /// `traced_total_ns` minus the summed self time of every layer span: the
  /// time no layer accounts for.
  double UnattributedNs(double traced_total_ns) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint64_t> starts_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, bool layer = true)
      : log_(log), index_(log->Open(name, layer)) {}
  ~ScopedSpan() { log_->Close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The highest of p99, p90 and p75 that has at least ten of `samples`
/// beyond it; 0.5 (the median) when none has.
double TailLevel(size_t samples);

}  // namespace cadbench

#endif  // CADBENCH_SPANS_H_
