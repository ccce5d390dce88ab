#ifndef CAD_COMMON_PARALLEL_H_
#define CAD_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace cad {

/// \brief Observability hooks for ParallelFor, injected by a higher layer.
///
/// common/ sits at the bottom of the layer DAG and must not depend on
/// src/obs, so ParallelFor publishes its lifecycle through this table
/// instead of calling the metrics/tracing macros directly. src/obs installs
/// an implementation at static-init time (from metrics.cc, which every
/// metrics consumer links); with no hooks installed ParallelFor runs
/// uninstrumented.
struct ParallelHooks {
  /// Called once per ParallelFor invocation before any task runs; the
  /// returned cookie is handed back to call_end (may be nullptr).
  void* (*call_begin)(size_t task_count) = nullptr;
  /// Called once after every task has completed, including on early paths.
  void (*call_end)(void* cookie) = nullptr;
  /// Latched once per call; true enables per-task wall-time measurement.
  bool (*observe_tasks)() = nullptr;
  /// Receives each task's elapsed wall time when observe_tasks() was true.
  void (*task_time_ns)(uint64_t nanos) = nullptr;
};

/// Installs `hooks` (nullptr uninstalls). The table must outlive every
/// subsequent ParallelFor call; installation is an atomic pointer swap.
void SetParallelHooks(const ParallelHooks* hooks);

/// \brief Runs `fn(i)` for every i in [0, count), distributing iterations
/// over up to `num_threads` worker threads via an atomic work counter.
///
/// With num_threads <= 1 (or count <= 1) everything runs inline on the
/// calling thread — callers can pass a configuration value straight through.
/// `fn` must be safe to invoke concurrently from multiple threads for
/// distinct `i`; iteration order is unspecified. The call returns after all
/// iterations complete.
void ParallelFor(size_t count, size_t num_threads,
                 const std::function<void(size_t)>& fn);

/// \brief Number of CPUs the calling thread may run on (its affinity mask),
/// falling back to std::thread::hardware_concurrency(), with a floor of 1.
size_t HardwareThreads();

}  // namespace cad

#endif  // CAD_COMMON_PARALLEL_H_
