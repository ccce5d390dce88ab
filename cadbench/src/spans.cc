#include "spans.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/timer.h"

namespace cadbench {

uint64_t NowNs() { return cad::Timer::NowNanos(); }

int SpanLog::Open(const std::string& name, bool layer) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, 0, open_.empty() ? -1 : open_.back(), layer});
  starts_.push_back(NowNs());
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int index) {
  const uint64_t now = NowNs();
  CAD_CHECK(!open_.empty() && open_.back() == index)
      << "spans must close innermost first";
  open_.pop_back();
  spans_[static_cast<size_t>(index)].duration_ns =
      now - starts_[static_cast<size_t>(index)];
}

int SpanLog::Add(int parent, const std::string& name, uint64_t duration_ns,
                 bool layer) {
  CAD_CHECK(parent < static_cast<int>(spans_.size()));
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, duration_ns, parent, layer});
  starts_.push_back(0);
  return index;
}

std::vector<double> SpanLog::SelfNs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].duration_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].duration_ns);
    }
  }
  return self;
}

std::map<std::string, double> SpanLog::LayerSelfNs() const {
  const std::vector<double> self = SelfNs();
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer) by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

std::map<std::string, double> SpanLog::TotalNs() const {
  std::map<std::string, double> by_name;
  for (const Span& span : spans_) {
    by_name[span.name] += static_cast<double>(span.duration_ns);
  }
  return by_name;
}

double SpanLog::UnattributedNs(double traced_total_ns) const {
  double attributed = 0.0;
  for (const auto& [name, ns] : LayerSelfNs()) attributed += ns;
  return traced_total_ns - attributed;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t low = static_cast<size_t>(std::floor(position));
  const size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

double TailLevel(size_t samples) {
  for (const double level : {0.99, 0.9, 0.75}) {
    if (static_cast<double>(samples) * (1.0 - level) >= 10.0) return level;
  }
  return 0.5;
}

}  // namespace cadbench
