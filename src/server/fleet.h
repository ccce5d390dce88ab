#ifndef CAD_SERVER_FLEET_H_
#define CAD_SERVER_FLEET_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "server/protocol.h"
#include "server/tenant.h"

namespace cad::server {

/// \brief Fleet-wide configuration (DESIGN.md §13).
struct FleetOptions {
  /// Worker threads shared by every tenant. Each tenant is processed by at
  /// most one worker at a time (the monitor is single-caller state), so
  /// parallelism comes from concurrent tenants, not from within one.
  size_t num_workers = 4;
  /// Shared solver-cache budget in bytes across all tenants; when the sum
  /// of per-tenant CommuteSolverCache footprints exceeds it, the
  /// least-recently-active idle tenants are evicted (cold rebuild on their
  /// next window). 0 = unlimited. Eviction changes warm-started approximate
  /// scores, so byte-identical-resume tests run with 0.
  size_t cache_budget_bytes = 0;
  /// Directory for per-tenant durable state (`<name>.ckpt`, `<name>.csv`);
  /// created if missing. Empty disables checkpoints and report files (the
  /// in-memory report tail still serves kReport).
  std::string data_dir;
  /// Template for every tenant; checkpoint_path/output_path are derived
  /// from data_dir per tenant and must be left empty here.
  TenantOptions tenant;
};

/// The options tenant `name` opens with: the fleet's template, with the
/// per-tenant paths under data_dir and one solve thread — the fleet's
/// workers already spread tenants over the cores, so each tenant solves and
/// scores on the worker that runs it.
TenantOptions TenantOptionsFor(const FleetOptions& options,
                               const std::string& name);

/// \brief The multi-tenant core of cad_server: owns every Tenant, a shared
/// worker pool that drains tenant queues (at most one worker per tenant at
/// a time), the shared solver-cache budget, and the drain sequence.
///
/// Thread-safety: every public method is safe to call from any connection
/// thread. Finish and DrainAll acquire per-tenant exclusivity (wait for the
/// tenant to go idle, then run inline on the calling thread) so processing
/// calls never overlap a worker.
class TenantFleet {
 public:
  [[nodiscard]] static Result<std::unique_ptr<TenantFleet>> Create(
      FleetOptions options);

  TenantFleet(const TenantFleet&) = delete;
  TenantFleet& operator=(const TenantFleet&) = delete;

  /// Joins the workers (Stop) if still running.
  ~TenantFleet();

  /// Opens or resumes the named tenant (idempotent: re-opening a live
  /// tenant returns its current resume point without disturbing it).
  [[nodiscard]] Result<OpenReply> Open(const std::string& name);

  /// Re-opens every tenant that left a `<name>.ckpt` in data_dir, so a
  /// restarted server is resumed (and queryable) before clients reconnect.
  /// Continues past individual failures and returns the first error.
  [[nodiscard]] Status ResumeAll();

  /// Queues one event batch for the tenant's worker. Returns false when the
  /// bounded queue refused the batch (backpressure): the batch is NOT
  /// queued, `server.queue_rejections` is bumped, and the caller must
  /// surface kRejected so the client owns the retry. Never drops silently.
  [[nodiscard]] Result<bool> Enqueue(const std::string& name,
                                     std::vector<WireEvent> batch);

  /// Flushes the tenant's queue and runs Tenant::Finish inline (final
  /// window flush + checkpoint), with per-tenant exclusivity.
  [[nodiscard]] Status Finish(const std::string& name);

  /// Per-tenant stats JSON, or the fleet summary when `name` is empty.
  [[nodiscard]] Result<std::string> StatsJson(const std::string& name);

  /// Recent anomaly-report rows for one tenant (CSV with header).
  [[nodiscard]] Result<std::string> ReportTail(const std::string& name);

  /// Graceful-drain step (DESIGN.md §13): with intake already stopped by
  /// the caller, flush every tenant's queue and write every tenant's
  /// checkpoint. Returns the first checkpoint error but completes the
  /// sweep. Call Stop() afterwards to join the workers.
  [[nodiscard]] Status DrainAll();

  /// Stops the worker pool: queued work in the ready list is still
  /// processed, then workers exit and are joined. Idempotent.
  void Stop();

  size_t tenant_count() const;

 private:
  /// Per-tenant scheduling record. `scheduled` means in the ready list;
  /// `running` means a worker (or an exclusive inline caller) is processing.
  /// Both are guarded by mutex_; together they guarantee at most one
  /// processing call per tenant at a time.
  struct Entry {
    std::unique_ptr<Tenant> tenant;
    bool scheduled = false;
    bool running = false;
    /// Monotone activity stamp; the cache-budget eviction walks idle
    /// entries in ascending order (least recently active first).
    uint64_t last_active = 0;
    size_t cache_bytes = 0;
  };

  explicit TenantFleet(FleetOptions options);

  void WorkerLoop();
  /// Drains the tenant's queue batch by batch. Batch failures latch inside
  /// the tenant (later queries report them); the queue is emptied so a
  /// failed tenant cannot wedge its producers.
  static void ProcessQueue(Tenant* tenant);
  /// Waits until `entry` is neither scheduled nor running, then marks it
  /// running for the caller. mutex_ must be held (and is re-acquired).
  void AcquireExclusive(std::unique_lock<std::mutex>* lock, Entry* entry);
  /// Clears `running`, stamps activity, refreshes cache accounting, and
  /// reschedules if the queue refilled. mutex_ must be held.
  void ReleaseLocked(Entry* entry);
  /// Evicts least-recently-active idle tenants until the shared cache
  /// budget is met. mutex_ must be held.
  void EnforceCacheBudgetLocked();
  [[nodiscard]] Result<Entry*> FindLocked(const std::string& name);

  const FleetOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;  // workers: ready list became non-empty
  std::condition_variable idle_cv_;   // exclusivity waiters: a tenant idled
  std::map<std::string, Entry> tenants_;  // node-based: Entry* stays stable
  std::deque<Entry*> ready_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  bool stopped_ = false;
  uint64_t active_seq_ = 0;
};

}  // namespace cad::server

#endif  // CAD_SERVER_FLEET_H_
