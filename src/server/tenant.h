#ifndef CAD_SERVER_TENANT_H_
#define CAD_SERVER_TENANT_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "app/stream_session.h"
#include "common/result.h"
#include "core/online_monitor.h"
#include "io/event_stream.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"
#include "server/event_queue.h"
#include "server/protocol.h"

namespace cad::server {

/// First bytes of a server tenant checkpoint: an envelope (tenant name,
/// report-CSV high-water offset, committed id mode) wrapping a monitor
/// checkpoint in the standard v1/v2/v3 format.
inline constexpr char kTenantCheckpointMagic[] = "CADSRV";  // 6 bytes
inline constexpr size_t kTenantCheckpointMagicSize = 6;
inline constexpr uint8_t kTenantCheckpointVersion = 1;

/// Per-tenant configuration. TenantFleet fills paths and defaults; every
/// field must match across a kill/restart for byte-identical resumption
/// (options are not stored in the checkpoint).
struct TenantOptions {
  /// The stream's windowing, error policy, checkpoint cadence and monitor.
  /// Under kStrict the first bad event fails the tenant (later requests for
  /// it report the error). num_nodes must stay 0 (Create rejects any other
  /// value): tenants discover their node sets (DESIGN.md §8 grow mode). A
  /// checkpoint_every above 0 requires checkpoint_path.
  StreamSessionOptions session;
  /// Backpressure bound of the ingest queue, in events.
  size_t queue_capacity_events = 4096;
  /// Envelope-checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Anomaly-report CSV file (the StreamSession row format); empty keeps
  /// rows only in the in-memory tail.
  std::string output_path;
  /// Report rows retained in memory for the kReport query.
  size_t report_tail_rows = 64;
  /// Per-tenant heartbeat cadence in windows (0 disables the reporter).
  size_t stats_every = 0;
};

/// \brief One stream's worth of server state: a StreamSession (the monitor,
/// its window aggregator and vocabulary), the wire-event decoder, the ingest
/// queue, the report CSV, and the checkpoint envelope that ties them
/// together (DESIGN.md §13).
///
/// Threading contract: ApplyBatch / Finish / Checkpoint are "processing"
/// calls and must be externally serialized (TenantFleet schedules at most
/// one worker per tenant). StatsJson / ReportTailCsv / RecordRejection and
/// the queue are safe from any thread concurrently with processing — they
/// read a mutex-guarded summary that processing publishes at batch
/// boundaries, never the monitor itself.
class Tenant {
 public:
  /// Opens a fresh tenant, or resumes one from its envelope checkpoint when
  /// `options.checkpoint_path` names an existing file. Resume restores the
  /// monitor, re-seeds the vocabulary and aggregator, and truncates the
  /// report CSV to the envelope's offset — discarding rows written after
  /// the checkpoint, which the replayed stream regenerates byte-identically.
  [[nodiscard]] static Result<std::unique_ptr<Tenant>> Create(
      const std::string& name, TenantOptions options);

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  /// Feeds one decoded batch through the aggregator/monitor pipeline,
  /// emitting report rows and interval checkpoints as windows complete.
  [[nodiscard]] Status ApplyBatch(const std::vector<WireEvent>& events);

  /// End of stream: StreamSession::Finish (the stale-checkpoint check and
  /// the final partial window), then a final checkpoint. Idempotent-hostile:
  /// a finished tenant rejects further batches.
  [[nodiscard]] Status Finish();

  /// Flushes + fsyncs the report CSV, then atomically replaces the envelope
  /// checkpoint (WriteFileAtomic). The write order is the crash-safety
  /// contract: the envelope's CSV offset never exceeds the durable CSV
  /// bytes, so resume can always truncate to a consistent prefix.
  [[nodiscard]] Status Checkpoint();

  /// Checkpoint for the drain path: a no-op when no checkpointing is
  /// configured, never fails the drain for an already-failed tenant.
  [[nodiscard]] Status CheckpointForDrain();

  /// One JSON object: progress counters, queue state, cache bytes, window
  /// latency quantiles (p50/p90/p99/max ms) from this tenant's timer
  /// histogram, and the latest heartbeat line. Thread-safe.
  std::string StatsJson() const;

  /// The most recent report rows (CSV, with header). Thread-safe.
  std::string ReportTailCsv() const;

  /// Counts a backpressure rejection (fleet calls this when TryPush
  /// refuses). Thread-safe.
  void RecordRejection();

  const std::string& name() const { return name_; }
  BoundedBatchQueue& queue() { return queue_; }
  bool resumed() const { return session_.resumed(); }
  size_t first_window() const { return session_.first_window(); }

  /// Snapshot of the node-set high-water mark for OpenReply. Thread-safe.
  uint64_t NumNodesForReply() const;

  /// Solver-cache footprint after the most recent processing call;
  /// 0 while idle-fresh. Thread-safe (published at batch boundaries).
  size_t CacheBytes() const;

  /// Drops the monitor's solver cache (shared-budget eviction). Processing
  /// call: fleet invokes it only while the tenant is not scheduled.
  void EvictSolverCache();

 private:
  Tenant(std::string name, TenantOptions options, StreamSession session);

  /// Restores the session + envelope fields from checkpoint_path.
  [[nodiscard]] Status LoadFromCheckpoint();
  /// Truncates/opens the report CSV consistent with resume state.
  [[nodiscard]] Status OpenOutput();
  [[nodiscard]] Status ApplyEvent(const WireEvent& event);
  /// Observes every window the session has pending: report rows to the CSV
  /// and the tail, interval checkpoints when due.
  [[nodiscard]] Status ObservePendingWindows();
  /// Marks the tenant failed and returns the same status.
  [[nodiscard]] Status Fail(const Status& status);
  /// Publishes the processing-side counters into the query snapshot.
  void PublishQueryState();
  /// Moves any complete heartbeat lines out of the reporter's buffer.
  void DrainHeartbeat();

  const std::string name_;
  const TenantOptions options_;

  // --- processing-side state (serialized by the fleet scheduler) ---------
  StreamSession session_;
  /// Interns into the session's vocabulary; its committed id mode is
  /// checkpointed so a resumed tenant reads replayed endpoints the same way.
  EventDecoder decoder_;
  std::ofstream output_;
  bool output_open_ = false;
  /// Bytes of report CSV the tenant has accounted for (header + rows, or the
  /// envelope's offset on resume). Tracked explicitly rather than via
  /// tellp() so append-mode streams cannot under-report the offset.
  uint64_t csv_bytes_ = 0;
  bool finished_ = false;
  uint64_t events_received_ = 0;
  /// Wire events the decoder rejected under kSkip.
  uint64_t events_rejected_decode_ = 0;
  std::ostringstream heartbeat_buffer_;
  std::unique_ptr<obs::StatsReporter> stats_;
  Status failed_ = Status::OK();

  // Per-tenant instruments, resolved once ("tenant.<name>." prefix).
  obs::PrefixedMetrics metrics_;
  obs::Counter* counter_events_ = nullptr;
  obs::Counter* counter_windows_ = nullptr;
  obs::Counter* counter_rejections_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;

  // --- cross-thread state ------------------------------------------------
  BoundedBatchQueue queue_;

  /// Query-visible summary, updated under `query_mutex_` at batch
  /// boundaries so queries never touch the monitor concurrently.
  struct QueryState {
    uint64_t windows = 0;
    uint64_t transitions = 0;
    double delta = 0.0;
    uint64_t num_nodes = 0;
    uint64_t events_received = 0;
    /// Every rejection, decode or windowing, counts as rejected_parse.
    uint64_t events_rejected_parse = 0;
    StreamEventCounts counts;
    uint64_t rejections = 0;
    size_t cache_bytes = 0;
    bool finished = false;
    Status failed = Status::OK();
    std::string last_heartbeat;
    std::deque<std::string> report_tail;
  };
  mutable std::mutex query_mutex_;
  QueryState query_;
};

}  // namespace cad::server

#endif  // CAD_SERVER_TENANT_H_
