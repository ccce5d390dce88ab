#include "server/tenant.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/json_writer.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/checkpoint.h"

namespace cad::server {
namespace {

/// True when `token` parses as a non-negative integer (a dense node id) —
/// the same commitment rule EventStreamReader uses for EventIdMode::kAuto.
bool LooksLikeIntegerId(const std::string& token) {
  Result<int64_t> value = ParseInt64(token);
  return value.ok() && *value >= 0;
}

bool FileExists(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0;
}

/// fsync by path (the ofstream API exposes no descriptor). Read-only opens
/// are enough for fsync on POSIX; WriteFileAtomic uses the same idiom.
Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot reopen " + path + " for fsync");
  const int synced = ::fsync(fd);
  ::close(fd);
  if (synced != 0) return Status::IoError("fsync failed for " + path);
  return Status::OK();
}

/// Point-in-time HistogramData view of a live histogram, shaped exactly like
/// MetricsRegistry::Snapshot's export so HistogramData::Quantile applies.
obs::HistogramData SnapshotHistogram(const obs::Histogram& histogram) {
  obs::HistogramData data;
  data.count = histogram.count();
  data.sum = histogram.Sum();
  data.min = histogram.Min();
  data.max = histogram.Max();
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    const uint64_t count = histogram.bucket_count(i);
    if (count > 0) {
      data.buckets.emplace_back(obs::Histogram::BucketUpperBound(i), count);
    }
  }
  return data;
}

constexpr char kReportHeader[] = "transition,u,v,score,weight_delta,commute_delta\n";

/// One report row, byte-identical to cad_stream's WriteReportRows (no
/// trailing newline; the caller appends it when writing to the CSV).
std::string FormatReportRow(uint64_t transition, const ScoredEdge& edge,
                            const NodeVocabulary* vocabulary) {
  return std::to_string(transition) + "," + NodeLabel(vocabulary, edge.pair.u) +
         "," + NodeLabel(vocabulary, edge.pair.v) + "," +
         FormatDouble(edge.score, 9) + "," +
         FormatDouble(edge.weight_delta, 9) + "," +
         FormatDouble(edge.commute_delta, 9);
}

uint8_t EncodeIdMode(EventIdMode mode) {
  switch (mode) {
    case EventIdMode::kAuto:
      return 0;
    case EventIdMode::kInteger:
      return 1;
    case EventIdMode::kNamed:
      return 2;
  }
  return 0;
}

}  // namespace

Tenant::Tenant(std::string name, TenantOptions options)
    : name_(std::move(name)),
      options_(std::move(options)),
      monitor_(options_.monitor),
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
  if (options.window_length <= 0.0 ||
      !std::isfinite(options.window_length)) {
    return Status::InvalidArgument("tenant window_length must be positive");
  }
  if (!std::isfinite(options.start_time)) {
    return Status::InvalidArgument("tenant start_time must be finite");
  }
  if (options.queue_capacity_events == 0) {
    return Status::InvalidArgument("tenant queue capacity must be >= 1");
  }
  CAD_RETURN_NOT_OK(
      ValidateNodesPerTransition(options.monitor.nodes_per_transition));
  if (options.checkpoint_every > 0 && options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "tenant checkpoint_every requires a checkpoint path");
  }
  std::unique_ptr<Tenant> tenant(new Tenant(name, std::move(options)));
  if (!tenant->options_.checkpoint_path.empty() &&
      FileExists(tenant->options_.checkpoint_path)) {
    CAD_RETURN_NOT_OK(tenant->LoadFromCheckpoint());
  }
  CAD_RETURN_NOT_OK(tenant->OpenOutput());

  EventWindowOptions window_options;
  window_options.window_length = tenant->options_.window_length;
  window_options.start_time = tenant->options_.start_time;
  // Server streams always discover their node set (DESIGN.md §8 grow mode);
  // on resume the aggregator is seeded at the checkpoint's high-water mark,
  // exactly like cad_stream --num_nodes 0 --resume_from.
  window_options.grow_nodes = true;
  window_options.num_nodes = tenant->resumed_
                                 ? std::max(tenant->vocab_.size(),
                                            tenant->monitor_.num_nodes())
                                 : 0;
  window_options.first_window = tenant->first_window_;
  Result<EventWindowAggregator> aggregator =
      EventWindowAggregator::Create(window_options);
  if (!aggregator.ok()) return aggregator.status();
  tenant->aggregator_.emplace(std::move(*aggregator));

  if (tenant->options_.stats_every > 0) {
    // Heartbeats land in an in-memory buffer the kStats query drains. The
    // reporter snapshots the global registry, so deltas are process-wide;
    // this tenant's own activity appears under its `tenant.<name>.` rows.
    tenant->stats_ = std::make_unique<obs::StatsReporter>(
        &tenant->heartbeat_buffer_,
        static_cast<uint64_t>(tenant->options_.stats_every));
    tenant->monitor_.SetStatsReporter(tenant->stats_.get());
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
  id_mode_ = mode == 1   ? EventIdMode::kInteger
             : mode == 2 ? EventIdMode::kNamed
                         : EventIdMode::kAuto;
  CAD_RETURN_NOT_OK(monitor_.LoadCheckpoint(&in));
  if (monitor_.vocabulary() != nullptr) vocab_ = *monitor_.vocabulary();
  first_window_ = monitor_.num_snapshots();
  last_checkpoint_window_ = first_window_;
  resumed_ = true;
  return Status::OK();
}

Status Tenant::OpenOutput() {
  if (options_.output_path.empty()) return Status::OK();
  if (resumed_) {
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
    output_ << kReportHeader;
    csv_bytes_ = sizeof(kReportHeader) - 1;  // string literal, minus NUL
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
  // Commit the id mode on the first event, like EventStreamReader does on
  // its first data line: integer-looking endpoints mean a dense-id stream,
  // anything else a named stream. Committed mode is checkpointed so a
  // resumed tenant interprets replayed endpoints identically.
  if (id_mode_ == EventIdMode::kAuto) {
    id_mode_ = LooksLikeIntegerId(event.u) && LooksLikeIntegerId(event.v)
                   ? EventIdMode::kInteger
                   : EventIdMode::kNamed;
  }
  TimestampedEvent parsed;
  parsed.timestamp = event.timestamp;
  parsed.weight = event.weight;
  Status malformed = Status::OK();
  if (id_mode_ == EventIdMode::kInteger) {
    Result<int64_t> u = ParseInt64(event.u);
    Result<int64_t> v = ParseInt64(event.v);
    constexpr int64_t kMaxId = std::numeric_limits<NodeId>::max();
    if (!u.ok() || *u < 0 || !v.ok() || *v < 0) {
      malformed = Status::InvalidArgument(
          "event " + std::to_string(events_received_) + " of tenant '" +
          name_ + "': endpoints '" + event.u + "' / '" + event.v +
          "' are not non-negative integer ids");
    } else if (*u > kMaxId || *v > kMaxId) {
      malformed = Status::InvalidArgument(
          "event " + std::to_string(events_received_) + " of tenant '" +
          name_ + "': node id exceeds " + std::to_string(kMaxId));
    } else {
      parsed.u = static_cast<NodeId>(*u);
      parsed.v = static_cast<NodeId>(*v);
    }
  } else {
    Result<NodeId> u = vocab_.Intern(event.u);
    Result<NodeId> v = u.ok() ? vocab_.Intern(event.v) : u;
    if (!u.ok() || !v.ok()) {
      malformed = Status::InvalidArgument(
          "event " + std::to_string(events_received_) + " of tenant '" +
          name_ + "': " + (u.ok() ? v : u).status().message());
    } else {
      parsed.u = *u;
      parsed.v = *v;
    }
  }
  if (!malformed.ok()) {
    if (options_.error_policy == EventErrorPolicy::kStrict) return malformed;
    ++events_rejected_parse_;
    return Status::OK();
  }

  Result<size_t> event_window = aggregator_->WindowIndex(parsed.timestamp);
  if (!event_window.ok()) {
    // Timestamps before start_time are dropped, matching cad_stream and the
    // batch aggregator; anything else follows the error policy.
    if (parsed.timestamp < options_.start_time) {
      ++events_before_start_;
      return Status::OK();
    }
    if (options_.error_policy == EventErrorPolicy::kStrict) {
      return event_window.status();
    }
    ++events_rejected_parse_;
    return Status::OK();
  }
  if (!max_window_seen_.has_value() || *event_window > *max_window_seen_) {
    max_window_seen_ = *event_window;
  }
  if (*event_window < first_window_) {
    ++events_skipped_resume_;  // consumed by the run that checkpointed
    return Status::OK();
  }

  std::vector<WeightedGraph> completed;
  const Status added = aggregator_->Add(parsed, *event_window, &completed);
  if (!added.ok()) {
    if (options_.error_policy == EventErrorPolicy::kStrict) {
      return Status::InvalidArgument(
          "event " + std::to_string(events_received_) + " of tenant '" +
          name_ + "': " + added.message());
    }
    if (added.code() == StatusCode::kOutOfRange) ++events_rejected_range_;
    ++events_rejected_parse_;
    return Status::OK();
  }
  ++events_fed_;
  for (WeightedGraph& snapshot : completed) {
    CAD_RETURN_NOT_OK(ObserveWindow(std::move(snapshot)));
  }
  return Status::OK();
}

Status Tenant::ObserveWindow(WeightedGraph snapshot) {
  const uint64_t start_ns = Timer::NowNanos();
  Result<std::optional<AnomalyReport>> report =
      monitor_.Observe(std::move(snapshot));
  if (!report.ok()) return report.status();
  const uint64_t elapsed_ns = Timer::NowNanos() - start_ns;
  if (obs::MetricsEnabled()) {
    latency_hist_->Observe(static_cast<double>(elapsed_ns));
    counter_windows_->Increment();
  }
  if (report->has_value()) {
    const NodeVocabulary* vocabulary = vocab_.empty() ? nullptr : &vocab_;
    std::vector<std::string> rows;
    rows.reserve((*report)->edges.size());
    for (const ScoredEdge& edge : (*report)->edges) {
      rows.push_back(FormatReportRow(
          static_cast<uint64_t>((*report)->transition), edge, vocabulary));
    }
    for (const std::string& row : rows) {
      if (output_open_) {
        output_ << row << "\n";
        csv_bytes_ += row.size() + 1;
      }
    }
    if (output_open_ && !output_.good()) {
      return Status::IoError("tenant '" + name_ +
                             "': report CSV write failed");
    }
    const std::lock_guard<std::mutex> guard(query_mutex_);
    for (std::string& row : rows) {
      query_.report_tail.push_back(std::move(row));
    }
    while (query_.report_tail.size() > options_.report_tail_rows) {
      query_.report_tail.pop_front();
    }
  }
  if (options_.checkpoint_every > 0 &&
      monitor_.num_snapshots() % options_.checkpoint_every == 0) {
    CAD_RETURN_NOT_OK(Checkpoint());
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
  if (!vocab_.empty()) monitor_.SetVocabulary(vocab_);
  CAD_RETURN_NOT_OK(WriteFileAtomic(
      options_.checkpoint_path, [this](std::ostream* out) -> Status {
        CheckpointWriter writer(out);
        writer.WriteBytes(kTenantCheckpointMagic, kTenantCheckpointMagicSize);
        writer.WriteU8(kTenantCheckpointVersion);
        writer.WriteString(name_);
        writer.WriteU64(csv_bytes_);
        writer.WriteU8(EncodeIdMode(id_mode_));
        CAD_RETURN_NOT_OK(writer.Finish());
        return monitor_.SaveCheckpoint(out);
      }));
  last_checkpoint_window_ = monitor_.num_snapshots();
  return Status::OK();
}

Status Tenant::CheckpointForDrain() {
  // A failed tenant's pipeline stopped mid-window; its last good checkpoint
  // is already on disk, so the drain leaves it alone. A finished tenant
  // checkpointed in Finish.
  if (options_.checkpoint_path.empty() || !failed_.ok() || finished_) {
    return Status::OK();
  }
  return Checkpoint();
}

Status Tenant::Finish() {
  if (!failed_.ok()) return failed_;
  if (finished_) {
    return Status::FailedPrecondition("tenant '" + name_ +
                                      "' is already finished");
  }
  // A checkpoint "ahead" of the replayed stream means the events and the
  // checkpoint do not belong together; silently accepting it would re-feed
  // trailing windows into monitor state that already contains them
  // (cad_stream applies the same check with file line numbers).
  if (resumed_) {
    const size_t stream_windows =
        max_window_seen_.has_value() ? *max_window_seen_ + 1 : 0;
    if (first_window_ > stream_windows) {
      return Fail(Status::IoError(
          "tenant '" + name_ +
          "': resume checkpoint is ahead of the event stream: it resumes "
          "at window " +
          std::to_string(first_window_) + " but the replayed stream ends at " +
          (max_window_seen_.has_value()
               ? "window " + std::to_string(*max_window_seen_)
               : "no window at all") +
          " (" + std::to_string(events_received_) +
          " events received); wrong stream, or mismatched "
          "window_length/start_time"));
    }
  }
  // Close the in-progress window so the final (possibly partial) snapshot is
  // scored, matching cad_stream's end-of-stream flush; a resumed tenant that
  // added no events of its own has nothing to flush.
  if (!resumed_ || events_fed_ > 0) {
    const Status observed = ObserveWindow(aggregator_->Flush());
    if (!observed.ok()) return Fail(observed);
  }
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
  const size_t aggregator_nodes =
      aggregator_.has_value() ? aggregator_->num_nodes() : 0;
  const std::lock_guard<std::mutex> guard(query_mutex_);
  query_.windows = monitor_.num_snapshots();
  query_.transitions = monitor_.num_transitions();
  query_.delta = monitor_.current_delta();
  query_.num_nodes = std::max(aggregator_nodes, monitor_.num_nodes());
  query_.events_received = events_received_;
  query_.events_fed = events_fed_;
  query_.events_skipped_resume = events_skipped_resume_;
  query_.events_rejected_parse = events_rejected_parse_;
  query_.events_rejected_range = events_rejected_range_;
  query_.events_before_start = events_before_start_;
  query_.cache_bytes = monitor_.SolverCacheBytes();
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
  monitor_.EvictSolverCache();
  const std::lock_guard<std::mutex> guard(query_mutex_);
  query_.cache_bytes = 0;
}

uint64_t Tenant::WindowsObserved() const {
  const std::lock_guard<std::mutex> guard(query_mutex_);
  return query_.windows;
}

std::string Tenant::StatsJson() const {
  const obs::HistogramData latency = SnapshotHistogram(*latency_hist_);
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
  json.Number(static_cast<uint64_t>(state.events_fed));
  json.Key("skipped_resume");
  json.Number(static_cast<uint64_t>(state.events_skipped_resume));
  json.Key("rejected_parse");
  json.Number(static_cast<uint64_t>(state.events_rejected_parse));
  json.Key("rejected_range");
  json.Number(static_cast<uint64_t>(state.events_rejected_range));
  json.Key("before_start");
  json.Number(static_cast<uint64_t>(state.events_before_start));
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
  std::string csv = kReportHeader;
  const std::lock_guard<std::mutex> guard(query_mutex_);
  for (const std::string& row : query_.report_tail) {
    csv += row;
    csv += "\n";
  }
  return csv;
}

}  // namespace cad::server
