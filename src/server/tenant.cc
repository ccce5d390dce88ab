#include "server/tenant.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/json_writer.h"
#include "common/timer.h"
#include "core/checkpoint.h"

namespace cad::server {
namespace {

bool FileExists(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0;
}

}  // namespace

Tenant::Tenant(std::string name, TenantOptions options,
               StreamSession session)
    : name_(std::move(name)),
      options_(std::move(options)),
      session_(std::move(session)),
      decoder_(session_.intake()->vocabulary()),
      metrics_("tenant." + name_),
      queue_(options_.queue_capacity_events) {
  // Handles resolved once per tenant (registry lock per resolution); the
  // record sites still honor the global MetricsEnabled switch like the
  // CAD_METRIC_* macros do.
  counter_events_ = metrics_.GetCounter("events");
  counter_windows_ = metrics_.GetCounter("windows");
  counter_rejections_ = metrics_.GetCounter("queue_rejections");
  latency_hist_ = metrics_.GetTimerHistogram("window_latency");
}

Result<std::unique_ptr<Tenant>> Tenant::Create(const std::string& name,
                                               TenantOptions options) {
  if (!IsValidTenantName(name)) {
    return Status::InvalidArgument(
        "invalid tenant name '" + name + "': use 1-" +
        std::to_string(kMaxTenantNameBytes) +
        " characters from [A-Za-z0-9_.-], not '.' or '..'");
  }
  if (options.queue_capacity_events == 0) {
    return Status::InvalidArgument("tenant queue capacity must be >= 1");
  }
  if (options.session.num_nodes != 0) {
    return Status::InvalidArgument(
        "server tenants discover their node sets; session.num_nodes must "
        "be 0");
  }
  if (options.session.checkpoint_every > 0 &&
      options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "tenant checkpoint_every requires a checkpoint path");
  }
  Result<StreamSession> session = StreamSession::Create(options.session);
  if (!session.ok()) return session.status();
  std::unique_ptr<Tenant> tenant(
      new Tenant(name, std::move(options), std::move(*session)));
  if (!tenant->options_.checkpoint_path.empty() &&
      FileExists(tenant->options_.checkpoint_path)) {
    CAD_RETURN_NOT_OK(tenant->LoadFromCheckpoint());
  }
  CAD_RETURN_NOT_OK(tenant->OpenOutput());

  if (tenant->options_.stats_every > 0) {
    // Heartbeats land in an in-memory buffer the kStats query drains. The
    // reporter snapshots the global registry, so deltas are process-wide;
    // this tenant's own activity appears under its `tenant.<name>.` rows.
    tenant->stats_ = std::make_unique<obs::StatsReporter>(
        &tenant->heartbeat_buffer_,
        static_cast<uint64_t>(tenant->options_.stats_every));
    tenant->session_.observer()->mutable_monitor()->SetStatsReporter(
        tenant->stats_.get());
  }
  tenant->PublishQueryState();
  return tenant;
}

Status Tenant::LoadFromCheckpoint() {
  std::ifstream in(options_.checkpoint_path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open tenant checkpoint " +
                           options_.checkpoint_path);
  }
  char magic[kTenantCheckpointMagicSize];
  in.read(magic, static_cast<std::streamsize>(kTenantCheckpointMagicSize));
  if (!in.good() ||
      std::memcmp(magic, kTenantCheckpointMagic,
                  kTenantCheckpointMagicSize) != 0) {
    return Status::IoError(options_.checkpoint_path +
                           " is not a server tenant checkpoint");
  }
  CheckpointReader reader(&in);
  uint8_t version = 0;
  CAD_ASSIGN_OR_RETURN(version, reader.ReadU8());
  if (version != kTenantCheckpointVersion) {
    return Status::IoError("unsupported tenant checkpoint version " +
                           std::to_string(version));
  }
  std::string saved_name;
  CAD_ASSIGN_OR_RETURN(saved_name, reader.ReadString());
  if (saved_name != name_) {
    return Status::IoError("checkpoint " + options_.checkpoint_path +
                           " belongs to tenant '" + saved_name +
                           "', not '" + name_ + "'");
  }
  CAD_ASSIGN_OR_RETURN(csv_bytes_, reader.ReadU64());
  uint8_t mode = 0;
  CAD_ASSIGN_OR_RETURN(mode, reader.ReadU8());
  if (mode > 2) {
    return Status::IoError("tenant checkpoint has invalid id-mode byte " +
                           std::to_string(mode));
  }
  CAD_RETURN_NOT_OK(session_.Resume(&in));
  decoder_ =
      EventDecoder(session_.intake()->vocabulary(),
                   static_cast<EventIdMode>(mode));
  return Status::OK();
}

Status Tenant::OpenOutput() {
  if (options_.output_path.empty()) return Status::OK();
  if (session_.resumed()) {
    // Rows written after the checkpoint are discarded; the replayed stream
    // regenerates them byte-identically. The envelope is written only after
    // the CSV is fsync'd, so the durable file is always >= csv_bytes_ long.
    if (!FileExists(options_.output_path)) {
      return Status::IoError("tenant report CSV " + options_.output_path +
                             " is missing but the checkpoint expects " +
                             std::to_string(csv_bytes_) + " bytes of it");
    }
    if (::truncate(options_.output_path.c_str(),
                   static_cast<off_t>(csv_bytes_)) != 0) {
      return Status::IoError("cannot truncate tenant report CSV " +
                             options_.output_path);
    }
    output_.open(options_.output_path, std::ios::out | std::ios::app);
    if (!output_.is_open()) {
      return Status::IoError("cannot reopen tenant report CSV " +
                             options_.output_path);
    }
  } else {
    output_.open(options_.output_path, std::ios::out | std::ios::trunc);
    if (!output_.is_open()) {
      return Status::IoError("cannot open tenant report CSV " +
                             options_.output_path);
    }
    output_ << kReportCsvHeader;
    csv_bytes_ = sizeof(kReportCsvHeader) - 1;  // string literal, minus NUL
  }
  output_open_ = true;
  return Status::OK();
}

Status Tenant::ApplyBatch(const std::vector<WireEvent>& events) {
  if (!failed_.ok()) return failed_;
  if (finished_) {
    return Status::FailedPrecondition("tenant '" + name_ +
                                      "' is finished; no more events");
  }
  for (const WireEvent& event : events) {
    const Status applied = ApplyEvent(event);
    if (!applied.ok()) return Fail(applied);
  }
  if (obs::MetricsEnabled()) counter_events_->Add(events.size());
  PublishQueryState();
  DrainHeartbeat();
  return Status::OK();
}

Status Tenant::ApplyEvent(const WireEvent& event) {
  ++events_received_;
  Result<TimestampedEvent> decoded =
      decoder_.Decode(event.u, event.v, event.timestamp, event.weight);
  Status offered = Status::OK();
  if (decoded.ok()) {
    offered = session_.intake()->Offer(*decoded).status();
  } else if (options_.session.error_policy == EventErrorPolicy::kSkip) {
    ++events_rejected_decode_;
  } else {
    offered = decoded.status();
  }
  if (!offered.ok()) {
    return Status(offered.code(), "event " + std::to_string(events_received_) +
                                      " of tenant '" + name_ +
                                      "': " + offered.message());
  }
  return ObservePendingWindows();
}

Status Tenant::ObservePendingWindows() {
  while (session_.intake()->closed_windows() > 0) {
    const uint64_t start_ns = Timer::NowNanos();
    Result<StreamSession::Window> window = session_.ObserveNext();
    if (!window.ok()) return window.status();
    const uint64_t elapsed_ns = Timer::NowNanos() - start_ns;
    if (obs::MetricsEnabled()) {
      latency_hist_->Observe(static_cast<double>(elapsed_ns));
      counter_windows_->Increment();
    }
    std::vector<std::string>& rows = window->report_rows;
    if (!rows.empty()) {
      if (output_open_) {
        for (const std::string& row : rows) {
          output_ << row << "\n";
          csv_bytes_ += row.size() + 1;
        }
        if (!output_.good()) {
          return Status::IoError("tenant '" + name_ +
                                 "': report CSV write failed");
        }
      }
      const std::lock_guard<std::mutex> guard(query_mutex_);
      for (std::string& row : rows) {
        query_.report_tail.push_back(std::move(row));
      }
      while (query_.report_tail.size() > options_.report_tail_rows) {
        query_.report_tail.pop_front();
      }
    }
    if (window->checkpoint_due) CAD_RETURN_NOT_OK(Checkpoint());
  }
  return Status::OK();
}

Status Tenant::Checkpoint() {
  if (options_.checkpoint_path.empty()) return Status::OK();
  // Crash-safety order: make the CSV prefix durable first, then publish the
  // offset in the envelope. A crash between the two leaves an older
  // envelope whose offset is still <= the durable CSV length, so resume's
  // truncate-to-offset always lands on a consistent prefix.
  if (output_open_) {
    output_.flush();
    if (!output_.good()) {
      return Status::IoError("tenant '" + name_ +
                             "': report CSV flush failed");
    }
    CAD_RETURN_NOT_OK(FsyncPath(options_.output_path));
  }
  return WriteFileAtomic(
      options_.checkpoint_path, [this](std::ostream* out) -> Status {
        CheckpointWriter writer(out);
        writer.WriteBytes(kTenantCheckpointMagic, kTenantCheckpointMagicSize);
        writer.WriteU8(kTenantCheckpointVersion);
        writer.WriteString(name_);
        writer.WriteU64(csv_bytes_);
        // The envelope stores EventIdMode's value: 0 auto, 1 integer, 2 named.
        writer.WriteU8(static_cast<uint8_t>(decoder_.id_mode()));
        CAD_RETURN_NOT_OK(writer.Finish());
        return session_.observer()->SaveCheckpoint(out);
      });
}

Status Tenant::CheckpointForDrain() {
  // A failed tenant's pipeline stopped mid-window; its last good checkpoint
  // is already on disk, so the drain leaves it alone. A finished tenant
  // checkpointed in Finish.
  if (options_.checkpoint_path.empty() || !failed_.ok() || finished_) {
    return Status::OK();
  }
  // A drain can fall mid-window: hand the observe half what the open window
  // has interned and counted so far, so the checkpoint's vocabulary runs
  // ahead of the last closed window as the stream did.
  session_.observer()->Absorb(session_.intake()->TakeTally());
  return Checkpoint();
}

Status Tenant::Finish() {
  if (!failed_.ok()) return failed_;
  if (finished_) {
    return Status::FailedPrecondition("tenant '" + name_ +
                                      "' is already finished");
  }
  const Status ended = session_.intake()->Finish();
  if (!ended.ok()) {
    return Fail(Status(ended.code(), "tenant '" + name_ + "' (" +
                                         std::to_string(events_received_) +
                                         " events received): " +
                                         ended.message()));
  }
  const Status observed = ObservePendingWindows();
  if (!observed.ok()) return Fail(observed);
  session_.observer()->Absorb(session_.intake()->TakeTally());
  const Status checkpointed = Checkpoint();
  if (!checkpointed.ok()) return Fail(checkpointed);
  finished_ = true;
  PublishQueryState();
  DrainHeartbeat();
  return Status::OK();
}

Status Tenant::Fail(const Status& status) {
  failed_ = status;
  PublishQueryState();
  return status;
}

void Tenant::PublishQueryState() {
  const OnlineCadMonitor& monitor = session_.observer()->monitor();
  const StreamEventCounts& counts = session_.intake()->counts();
  const std::lock_guard<std::mutex> guard(query_mutex_);
  query_.windows = monitor.num_snapshots();
  query_.transitions = monitor.num_transitions();
  query_.delta = monitor.current_delta();
  query_.num_nodes = session_.num_nodes();
  query_.events_received = events_received_;
  query_.events_rejected_parse =
      events_rejected_decode_ + counts.rejected_range + counts.rejected_other;
  query_.counts = counts;
  query_.cache_bytes = monitor.solver_cache().ApproxBytes();
  query_.finished = finished_;
  query_.failed = failed_;
}

void Tenant::DrainHeartbeat() {
  if (stats_ == nullptr) return;
  const std::string buffered = heartbeat_buffer_.str();
  if (buffered.empty()) return;
  // StatsReporter writes whole flushed lines, and DrainHeartbeat runs on the
  // processing thread after the ticks, so the buffer holds complete records.
  const size_t last_newline = buffered.find_last_of('\n');
  if (last_newline == std::string::npos) return;
  const size_t line_start = buffered.find_last_of('\n', last_newline - 1);
  std::string line = buffered.substr(
      line_start == std::string::npos ? 0 : line_start + 1,
      last_newline - (line_start == std::string::npos ? 0 : line_start + 1));
  heartbeat_buffer_.str("");
  if (line.empty()) return;
  const std::lock_guard<std::mutex> guard(query_mutex_);
  query_.last_heartbeat = std::move(line);
}

void Tenant::RecordRejection() {
  if (obs::MetricsEnabled()) counter_rejections_->Increment();
  const std::lock_guard<std::mutex> guard(query_mutex_);
  ++query_.rejections;
}

uint64_t Tenant::NumNodesForReply() const {
  const std::lock_guard<std::mutex> guard(query_mutex_);
  return query_.num_nodes;
}

size_t Tenant::CacheBytes() const {
  const std::lock_guard<std::mutex> guard(query_mutex_);
  return query_.cache_bytes;
}

void Tenant::EvictSolverCache() {
  session_.observer()->mutable_monitor()->EvictSolverCache();
  const std::lock_guard<std::mutex> guard(query_mutex_);
  query_.cache_bytes = 0;
}

std::string Tenant::StatsJson() const {
  const obs::HistogramData latency = obs::SnapshotHistogram(*latency_hist_);
  QueryState state;
  {
    const std::lock_guard<std::mutex> guard(query_mutex_);
    state = query_;
  }
  const size_t pending = queue_.pending_events();

  std::ostringstream out;
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("tenant");
  json.String(name_);
  json.Key("windows");
  json.Number(static_cast<uint64_t>(state.windows));
  json.Key("transitions");
  json.Number(static_cast<uint64_t>(state.transitions));
  json.Key("delta");
  json.Number(state.delta);
  json.Key("num_nodes");
  json.Number(static_cast<uint64_t>(state.num_nodes));
  json.Key("events");
  json.BeginObject();
  json.Key("received");
  json.Number(static_cast<uint64_t>(state.events_received));
  json.Key("fed");
  json.Number(static_cast<uint64_t>(state.counts.fed));
  json.Key("skipped_resume");
  json.Number(static_cast<uint64_t>(state.counts.skipped_resume));
  json.Key("rejected_parse");
  json.Number(static_cast<uint64_t>(state.events_rejected_parse));
  json.Key("rejected_range");
  json.Number(static_cast<uint64_t>(state.counts.rejected_range));
  json.Key("before_start");
  json.Number(static_cast<uint64_t>(state.counts.before_start));
  json.EndObject();
  json.Key("queue");
  json.BeginObject();
  json.Key("pending_events");
  json.Number(pending);
  json.Key("capacity_events");
  json.Number(queue_.capacity_events());
  json.Key("rejections");
  json.Number(static_cast<uint64_t>(state.rejections));
  json.EndObject();
  json.Key("cache_bytes");
  json.Number(state.cache_bytes);
  json.Key("finished");
  json.Bool(state.finished);
  json.Key("failed");
  json.String(state.failed.ok() ? "" : state.failed.ToString());
  json.Key("latency_ms");
  json.BeginObject();
  json.Key("count");
  json.Number(static_cast<uint64_t>(latency.count));
  const bool has_latency = latency.count > 0;
  json.Key("p50");
  json.Number(has_latency ? latency.Quantile(0.5) / 1e6 : 0.0);
  json.Key("p90");
  json.Number(has_latency ? latency.Quantile(0.9) / 1e6 : 0.0);
  json.Key("p99");
  json.Number(has_latency ? latency.Quantile(0.99) / 1e6 : 0.0);
  json.Key("max");
  json.Number(has_latency ? latency.max / 1e6 : 0.0);
  json.EndObject();
  json.Key("heartbeat");
  json.String(state.last_heartbeat);
  json.EndObject();
  return out.str();
}

std::string Tenant::ReportTailCsv() const {
  std::string csv = kReportCsvHeader;
  const std::lock_guard<std::mutex> guard(query_mutex_);
  for (const std::string& row : query_.report_tail) {
    csv += row;
    csv += "\n";
  }
  return csv;
}

}  // namespace cad::server
