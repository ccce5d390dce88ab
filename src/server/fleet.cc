#include "server/fleet.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/json_writer.h"
#include "obs/metrics.h"

namespace cad::server {
namespace {

constexpr char kCheckpointSuffix[] = ".ckpt";

Status EnsureDirectory(const std::string& path) {
  struct stat info;
  if (::stat(path.c_str(), &info) == 0) {
    if (!S_ISDIR(info.st_mode)) {
      return Status::IoError(path + " exists and is not a directory");
    }
    return Status::OK();
  }
  if (::mkdir(path.c_str(), 0755) != 0) {
    return Status::IoError("cannot create data directory " + path);
  }
  return Status::OK();
}

}  // namespace

TenantFleet::TenantFleet(FleetOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<TenantFleet>> TenantFleet::Create(
    FleetOptions options) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("fleet needs at least one worker");
  }
  // Tenants open lazily; a template no tenant could run with is rejected at
  // start-up instead of at the first window.
  CAD_RETURN_NOT_OK(ValidateNodesPerTransition(
      options.tenant.monitor.nodes_per_transition));
  if (!options.tenant.checkpoint_path.empty() ||
      !options.tenant.output_path.empty()) {
    return Status::InvalidArgument(
        "per-tenant paths are derived from data_dir; leave the tenant "
        "template's checkpoint_path/output_path empty");
  }
  if (!options.data_dir.empty()) {
    CAD_RETURN_NOT_OK(EnsureDirectory(options.data_dir));
  }
  std::unique_ptr<TenantFleet> fleet(new TenantFleet(std::move(options)));
  fleet->workers_.reserve(fleet->options_.num_workers);
  for (size_t i = 0; i < fleet->options_.num_workers; ++i) {
    fleet->workers_.emplace_back([raw = fleet.get()] { raw->WorkerLoop(); });
  }
  return fleet;
}

TenantFleet::~TenantFleet() { Stop(); }

Result<OpenReply> TenantFleet::Open(const std::string& name) {
  if (!IsValidTenantName(name)) {
    return Status::InvalidArgument(
        "invalid tenant name '" + name + "': use 1-" +
        std::to_string(kMaxTenantNameBytes) +
        " characters from [A-Za-z0-9_.-], not '.' or '..'");
  }
  const std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    return Status::FailedPrecondition("server is draining; no new tenants");
  }
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    TenantOptions tenant_options = options_.tenant;
    if (!options_.data_dir.empty()) {
      tenant_options.checkpoint_path =
          options_.data_dir + "/" + name + kCheckpointSuffix;
      tenant_options.output_path = options_.data_dir + "/" + name + ".csv";
    }
    Result<std::unique_ptr<Tenant>> tenant =
        Tenant::Create(name, std::move(tenant_options));
    if (!tenant.ok()) return tenant.status();
    Entry entry;
    entry.tenant = std::move(*tenant);
    it = tenants_.emplace(name, std::move(entry)).first;
    CAD_METRIC_SET("server.tenants", tenants_.size());
  }
  OpenReply reply;
  reply.resumed = it->second.tenant->resumed();
  reply.next_window = it->second.tenant->first_window();
  reply.num_nodes = it->second.tenant->NumNodesForReply();
  return reply;
}

Status TenantFleet::ResumeAll() {
  if (options_.data_dir.empty()) return Status::OK();
  std::vector<std::string> names;
  {
    DIR* dir = ::opendir(options_.data_dir.c_str());
    if (dir == nullptr) {
      return Status::IoError("cannot list data directory " +
                             options_.data_dir);
    }
    const size_t suffix_len = sizeof(kCheckpointSuffix) - 1;
    for (struct dirent* entry = ::readdir(dir); entry != nullptr;
         entry = ::readdir(dir)) {
      const std::string file = entry->d_name;
      if (file.size() <= suffix_len ||
          file.compare(file.size() - suffix_len, suffix_len,
                       kCheckpointSuffix) != 0) {
        continue;
      }
      const std::string name = file.substr(0, file.size() - suffix_len);
      if (IsValidTenantName(name)) names.push_back(name);
    }
    ::closedir(dir);
  }
  // Deterministic resume order regardless of directory iteration order.
  std::sort(names.begin(), names.end());
  Status first_error = Status::OK();
  for (const std::string& name : names) {
    const Result<OpenReply> opened = Open(name);
    if (!opened.ok() && first_error.ok()) first_error = opened.status();
  }
  return first_error;
}

Result<bool> TenantFleet::Enqueue(const std::string& name,
                                  std::vector<WireEvent> batch) {
  const std::unique_lock<std::mutex> lock(mutex_);
  Result<Entry*> found = FindLocked(name);
  if (!found.ok()) return found.status();
  Entry* entry = *found;
  if (stopping_) {
    return Status::FailedPrecondition("server is draining; batch refused");
  }
  if (!entry->tenant->queue().TryPush(std::move(batch))) {
    // Reject-with-status, never silent drop: the client owns the retry.
    entry->tenant->RecordRejection();
    CAD_METRIC_INC("server.queue_rejections");
    return false;
  }
  if (!entry->scheduled && !entry->running) {
    entry->scheduled = true;
    ready_.push_back(entry);
    ready_cv_.notify_one();
  }
  return true;
}

Status TenantFleet::Finish(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  Result<Entry*> found = FindLocked(name);
  if (!found.ok()) return found.status();
  Entry* entry = *found;
  AcquireExclusive(&lock, entry);
  Tenant* tenant = entry->tenant.get();
  // The fleet lock never wraps tenant processing; exclusivity comes from
  // the running flag.
  lock.unlock();  // cad-lint: allow(lock-discipline)
  // Flush whatever the workers had not reached yet, then finish inline.
  ProcessQueue(tenant);
  const Status finished = tenant->Finish();
  lock.lock();  // cad-lint: allow(lock-discipline)
  ReleaseLocked(entry);
  return finished;
}

Result<std::string> TenantFleet::StatsJson(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!name.empty()) {
    Result<Entry*> found = FindLocked(name);
    if (!found.ok()) return found.status();
    Entry* entry = *found;
    Tenant* tenant = entry->tenant.get();
    // Queries read the tenant's published snapshot, never the monitor, so
    // no exclusivity is needed; drop the fleet lock during formatting.
    lock.unlock();  // cad-lint: allow(lock-discipline)
    return tenant->StatsJson();
  }
  size_t cache_total = 0;
  size_t pending_total = 0;
  for (const auto& [tenant_name, entry] : tenants_) {
    cache_total += entry.cache_bytes;
    pending_total += entry.tenant->queue().pending_events();
  }
  std::ostringstream out;
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("tenants");
  json.Number(tenants_.size());
  json.Key("pending_events");
  json.Number(pending_total);
  json.Key("cache_bytes");
  json.Number(cache_total);
  json.Key("cache_budget_bytes");
  json.Number(options_.cache_budget_bytes);
  json.Key("draining");
  json.Bool(stopping_);
  json.EndObject();
  return out.str();
}

Result<std::string> TenantFleet::ReportTail(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  Result<Entry*> found = FindLocked(name);
  if (!found.ok()) return found.status();
  Entry* entry = *found;
  Tenant* tenant = entry->tenant.get();
  lock.unlock();  // cad-lint: allow(lock-discipline)
  return tenant->ReportTailCsv();
}

Status TenantFleet::DrainAll() {
  Status first_error = Status::OK();
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto& [name, entry] : tenants_) {
    AcquireExclusive(&lock, &entry);
    Tenant* tenant = entry.tenant.get();
    lock.unlock();  // cad-lint: allow(lock-discipline)
    ProcessQueue(tenant);
    const Status checkpointed = tenant->CheckpointForDrain();
    if (!checkpointed.ok() && first_error.ok()) first_error = checkpointed;
    lock.lock();  // cad-lint: allow(lock-discipline)
    ReleaseLocked(&entry);
  }
  return first_error;
}

void TenantFleet::Stop() {
  {
    const std::unique_lock<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopping_ = true;
    ready_cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
  const std::unique_lock<std::mutex> lock(mutex_);
  stopped_ = true;
}

size_t TenantFleet::tenant_count() const {
  const std::unique_lock<std::mutex> lock(mutex_);
  return tenants_.size();
}

void TenantFleet::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    ready_cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (ready_.empty()) return;  // stopping, ready list drained
    Entry* entry = ready_.front();
    ready_.pop_front();
    entry->scheduled = false;
    entry->running = true;
    Tenant* tenant = entry->tenant.get();
    lock.unlock();  // cad-lint: allow(lock-discipline)
    ProcessQueue(tenant);
    lock.lock();  // cad-lint: allow(lock-discipline)
    ReleaseLocked(entry);
  }
}

void TenantFleet::ProcessQueue(Tenant* tenant) {
  while (true) {
    std::optional<std::vector<WireEvent>> batch = tenant->queue().TryPop();
    if (!batch.has_value()) return;
    // A batch failure latches inside the tenant (ApplyBatch keeps returning
    // it; queries expose it); the queue is still emptied so producers are
    // not wedged behind a dead tenant.
    (void)tenant->ApplyBatch(*batch);
  }
}

void TenantFleet::AcquireExclusive(std::unique_lock<std::mutex>* lock,
                                   Entry* entry) {
  idle_cv_.wait(*lock, [this, entry] {
    return !entry->running && (!entry->scheduled || stopping_);
  });
  if (entry->scheduled) {
    // Workers may already be gone (stopping): take over its ready slot.
    ready_.erase(std::find(ready_.begin(), ready_.end(), entry));
    entry->scheduled = false;
  }
  entry->running = true;
}

void TenantFleet::ReleaseLocked(Entry* entry) {
  entry->running = false;
  entry->last_active = ++active_seq_;
  entry->cache_bytes = entry->tenant->CacheBytes();
  if (!entry->tenant->queue().empty() && !entry->scheduled) {
    entry->scheduled = true;
    ready_.push_back(entry);
    ready_cv_.notify_one();
  }
  EnforceCacheBudgetLocked();
  idle_cv_.notify_all();
}

void TenantFleet::EnforceCacheBudgetLocked() {
  if (options_.cache_budget_bytes == 0) return;
  size_t total = 0;
  for (const auto& [name, entry] : tenants_) total += entry.cache_bytes;
  if (total > options_.cache_budget_bytes) {
    // Least-recently-active idle tenants give their caches back first; a
    // scheduled or running tenant is about to need its cache and is skipped.
    std::vector<Entry*> idle;
    for (auto& [name, entry] : tenants_) {
      if (!entry.scheduled && !entry.running && entry.cache_bytes > 0) {
        idle.push_back(&entry);
      }
    }
    std::sort(idle.begin(), idle.end(), [](const Entry* a, const Entry* b) {
      return a->last_active < b->last_active;
    });
    for (Entry* entry : idle) {
      if (total <= options_.cache_budget_bytes) break;
      entry->tenant->EvictSolverCache();
      total -= entry->cache_bytes;
      entry->cache_bytes = 0;
      CAD_METRIC_INC("server.cache_evictions");
    }
  }
  CAD_METRIC_SET("server.cache_bytes", total);
}

Result<TenantFleet::Entry*> TenantFleet::FindLocked(const std::string& name) {
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + name +
                            "'; open it first with kOpen");
  }
  return &it->second;
}

}  // namespace cad::server
