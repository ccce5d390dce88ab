#include "common/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/timer.h"

namespace cad {
namespace {

std::atomic<const ParallelHooks*> g_hooks{nullptr};

/// Pairs call_begin/call_end around every exit path of ParallelFor.
class HookScope {
 public:
  HookScope(const ParallelHooks* hooks, size_t count) : hooks_(hooks) {
    if (hooks_ != nullptr && hooks_->call_begin != nullptr) {
      cookie_ = hooks_->call_begin(count);
    }
  }
  ~HookScope() {
    if (hooks_ != nullptr && hooks_->call_end != nullptr) {
      hooks_->call_end(cookie_);
    }
  }

  HookScope(const HookScope&) = delete;
  HookScope& operator=(const HookScope&) = delete;

 private:
  const ParallelHooks* hooks_;
  void* cookie_ = nullptr;
};

}  // namespace

void SetParallelHooks(const ParallelHooks* hooks) {
  g_hooks.store(hooks, std::memory_order_release);
}

void ParallelFor(size_t count, size_t num_threads,
                 const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  const ParallelHooks* hooks = g_hooks.load(std::memory_order_acquire);
  HookScope scope(hooks, count);
  // Latch the switch once per call so a mid-call toggle cannot split the
  // accounting; instrumentation only observes, so `fn`'s results (and their
  // bit patterns) are untouched either way.
  const bool observe = hooks != nullptr && hooks->observe_tasks != nullptr &&
                       hooks->task_time_ns != nullptr && hooks->observe_tasks();
  const auto run_task = [&](size_t i) {
    if (observe) {
      // Per-task wall time is a "timer" metric: the only CSV kind allowed
      // to vary between same-seed runs (see the determinism contract).
      const Timer task_timer;
      fn(i);
      hooks->task_time_ns(task_timer.ElapsedNanos());
    } else {
      fn(i);
    }
  };

  num_threads = std::min(num_threads, count);
  if (num_threads <= 1) {
    for (size_t i = 0; i < count; ++i) {
      run_task(i);
    }
    return;
  }

  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      run_task(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads - 1);
  for (size_t t = 0; t + 1 < num_threads; ++t) {
    threads.emplace_back(worker);
  }
  worker();  // the calling thread participates
  for (std::thread& thread : threads) thread.join();
}

size_t HardwareThreads() {
  // The CPUs this thread may run on: under `taskset` or a cpuset-limited
  // container that is fewer than the host's hardware threads.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int allowed_count = CPU_COUNT(&allowed);
    if (allowed_count > 0) return static_cast<size_t>(allowed_count);
  }
  const unsigned int count = std::thread::hardware_concurrency();
  return count == 0 ? 1 : static_cast<size_t>(count);
}

}  // namespace cad
