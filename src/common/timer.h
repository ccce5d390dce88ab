#ifndef CAD_COMMON_TIMER_H_
#define CAD_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace cad {

/// \brief Simple monotonic stopwatch used by the benchmark harnesses and the
/// observability layer (src/obs/).
///
/// This header is the repo's single owner of raw wall-clock access: the
/// `raw-clock` lint rule bans std::chrono steady/high_resolution clock use
/// everywhere else so that all timing flows through one instrumentable seam.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Monotonic timestamp in nanoseconds since an arbitrary (per-process)
  /// epoch. The basis for every trace span and timer metric.
  static uint64_t NowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Nanoseconds elapsed since construction or the last Restart().
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cad

#endif  // CAD_COMMON_TIMER_H_
