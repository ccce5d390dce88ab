// server_fleet: one cad_server process (2 workers, a checkpoint after every
// window, bounded calibration history) fed by a single-threaded open-loop
// generator over its unix socket. 40 light tenants (Enron-simulator
// organisations, ~150 named nodes, exact engine under `auto`) and 4 heavy
// tenants (R-MAT, 3000 nodes, approximate engine, k = 50) each emit one
// window per period, their events spread evenly over the period in batches
// of at most 256. kStats/kReport queries run beside the writes.
//
// Open loop: tenants are independent systems whose events arrive whether or
// not the server keeps up, so window w's latency runs from when the batch
// that closes it was *due* until its report rows are fsynced and its
// envelope checkpoint is renamed into place — seen from outside as the
// tenant's n-th `<tenant>.ckpt` rename in the data directory (inotify).

#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common/strings.h"
#include "inputs.h"
#include "layers.h"
#include "process.h"
#include "server/protocol.h"
#include "spans.h"
#include "workloads.h"

namespace cadbench {
namespace {

using cad::server::Frame;
using cad::server::MessageType;
using cad::server::WireEvent;

constexpr FleetShape kShape{.light_tenants = 40,
                            .light_nodes = 120,
                            .heavy_tenants = 4,
                            .heavy_nodes = 1200,
                            .heavy_edges = 4800};
// Fixed so that the two workers are about half busy.
constexpr double kPeriodS = 0.8;
constexpr size_t kBatchEvents = 256;
constexpr size_t kWorkers = 2;
constexpr size_t kMaxHistory = 4;
constexpr size_t kEmbeddingDim = 50;
constexpr double kQueryPeriodS = 0.025;
constexpr int kSetupRepeats = 3;
// A run is invalid (not reported as a latency) when the generator sends
// later than this, or when the last third of the windows waits much longer
// than the first third (a growing backlog).
constexpr double kMaxLateP99Ms = 50.0;
constexpr double kBacklogGrowth = 2.0;
constexpr double kBacklogSlackMs = 10.0;
constexpr double kDrainTimeoutS = 60.0;

constexpr char kSocket[] = "fleet.sock";
constexpr char kDataDir[] = "data";

std::vector<std::string> ServerCommand(const Context& context) {
  return {context.bin_dir + "/cad_server",
          "--socket", kSocket,
          "--data_dir", kDataDir,
          "--workers", std::to_string(kWorkers),
          "--window", "1",
          "--checkpoint_every", "1",
          "--max_history", std::to_string(kMaxHistory),
          "--engine", "auto",
          "--k", std::to_string(kEmbeddingDim),
          // Far above what a tenant queues at this rate: a rejection would
          // be a failure, not backpressure by design.
          "--queue_capacity", "1000000"};
}

// The reference: cad_stream over one tenant's events with the server's
// result-changing options.
std::vector<std::string> ReferenceCommand(const Context& context,
                                          const std::string& tenant) {
  return {context.bin_dir + "/cad_stream",
          "--events", "ref/" + tenant + ".events",
          "--window", "1",
          "--num_nodes", "0",
          "--engine", "auto",
          "--k", std::to_string(kEmbeddingDim),
          "--max_history", std::to_string(kMaxHistory),
          "--output", "ref/" + tenant + ".csv"};
}

// \brief Client side of the length-prefixed protocol over one connection.
class Connection {
 public:
  static cad::Result<std::unique_ptr<Connection>> Open(
      const std::string& path) {
    struct sockaddr_un addr {};
    if (path.size() >= sizeof(addr.sun_path)) {
      return cad::Status::InvalidArgument("socket path too long");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return cad::Status::IoError("cannot create socket");
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return cad::Status::IoError("cannot connect to " + path);
    }
    return std::unique_ptr<Connection>(new Connection(fd));
  }

  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  cad::Result<Frame> Call(MessageType type, const std::string& payload) {
    CAD_RETURN_NOT_OK(cad::server::WriteFrame(fd_, type, payload));
    std::optional<Frame> reply;
    CAD_ASSIGN_OR_RETURN(reply, cad::server::ReadFrame(fd_));
    if (!reply.has_value()) return cad::Status::IoError("server hung up");
    return *reply;
  }

  // A call whose reply must be `expected`; a kError reply becomes its text.
  cad::Result<std::string> Expect(MessageType type, const std::string& payload,
                                  MessageType expected) {
    Frame reply;
    CAD_ASSIGN_OR_RETURN(reply, Call(type, payload));
    if (reply.type == expected) {
      if (expected == MessageType::kOk || expected == MessageType::kOpenOk) {
        return std::string();
      }
      return cad::server::DecodeText(reply.payload);
    }
    const cad::Result<std::string> text =
        cad::server::DecodeText(reply.payload);
    return cad::Status::Internal(
        "unexpected reply " + std::to_string(static_cast<int>(reply.type)) +
        (text.ok() ? ": " + *text : std::string()));
  }

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_;
};

// \brief inotify on the data directory: every `<tenant>.ckpt.tmp` creation
// and every rename onto `<tenant>.ckpt`, timestamped when read.
class CheckpointWatch {
 public:
  struct Event {
    std::string tenant;
    bool renamed = false;  // else: the temporary file was created
    uint64_t ns = 0;
  };

  static cad::Result<std::unique_ptr<CheckpointWatch>> Create(
      const std::string& dir) {
    const int fd = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd < 0) return cad::Status::IoError("inotify_init1 failed");
    if (::inotify_add_watch(fd, dir.c_str(), IN_CREATE | IN_MOVED_TO) < 0) {
      ::close(fd);
      return cad::Status::IoError("cannot watch " + dir);
    }
    return std::unique_ptr<CheckpointWatch>(new CheckpointWatch(fd));
  }

  ~CheckpointWatch() { ::close(fd_); }
  CheckpointWatch(const CheckpointWatch&) = delete;
  CheckpointWatch& operator=(const CheckpointWatch&) = delete;

  int fd() const { return fd_; }
  bool overflowed() const { return overflowed_; }

  /// Reads every pending event.
  void Drain(std::vector<Event>* events) {
    alignas(struct inotify_event) char buffer[64 * 1024];
    while (true) {
      const ssize_t size = ::read(fd_, buffer, sizeof(buffer));
      if (size <= 0) return;
      const uint64_t now = NowNs();
      for (ssize_t offset = 0; offset < size;) {
        const auto* event =
            reinterpret_cast<const struct inotify_event*>(buffer + offset);
        offset +=
            static_cast<ssize_t>(sizeof(struct inotify_event) + event->len);
        if ((event->mask & IN_Q_OVERFLOW) != 0) overflowed_ = true;
        if (event->len == 0) continue;
        const std::string name(event->name);
        if ((event->mask & IN_MOVED_TO) != 0 && EndsWith(name, ".ckpt")) {
          events->push_back({name.substr(0, name.size() - 5), true, now});
        } else if ((event->mask & IN_CREATE) != 0 &&
                   EndsWith(name, ".ckpt.tmp")) {
          events->push_back({name.substr(0, name.size() - 9), false, now});
        }
      }
    }
  }

 private:
  explicit CheckpointWatch(int fd) : fd_(fd) {}
  static bool EndsWith(const std::string& text, const std::string& suffix) {
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  }
  int fd_;
  bool overflowed_ = false;
};

struct Batch {
  uint64_t due_ns = 0;  // offset from the start of the interval
  uint32_t tenant = 0;
  uint32_t window = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
};

// Each tenant's windows start at a tenant-specific phase of the period and
// its batches are spread evenly over the period. Heavy tenants take evenly
// spaced phases, so their windows do not close all at once.
std::vector<Batch> MakeSchedule(const std::vector<TenantInput>& tenants) {
  std::vector<size_t> heavy;
  std::vector<size_t> light;
  for (size_t i = 0; i < tenants.size(); ++i) {
    (tenants[i].heavy ? heavy : light).push_back(i);
  }
  std::vector<size_t> slot_of(tenants.size());
  size_t next_light = 0;
  for (size_t slot = 0, h = 0; slot < tenants.size(); ++slot) {
    if (h < heavy.size() && slot == h * tenants.size() / heavy.size()) {
      slot_of[heavy[h++]] = slot;
    } else {
      slot_of[light[next_light++]] = slot;
    }
  }
  std::vector<Batch> schedule;
  const double period_ns = kPeriodS * 1e9;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const double phase = period_ns * static_cast<double>(slot_of[i]) /
                         static_cast<double>(tenants.size());
    for (size_t w = 0; w < tenants[i].windows.size(); ++w) {
      const size_t events = tenants[i].windows[w].size();
      const size_t batches = std::max<size_t>(
          1, (events + kBatchEvents - 1) / kBatchEvents);
      for (size_t b = 0; b < batches; ++b) {
        Batch batch;
        batch.due_ns = static_cast<uint64_t>(
            phase + period_ns * (static_cast<double>(w) +
                                 static_cast<double>(b) /
                                     static_cast<double>(batches)));
        batch.tenant = static_cast<uint32_t>(i);
        batch.window = static_cast<uint32_t>(w);
        batch.begin = static_cast<uint32_t>(events * b / batches);
        batch.end = static_cast<uint32_t>(events * (b + 1) / batches);
        schedule.push_back(batch);
      }
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Batch& a, const Batch& b) {
                     return a.due_ns < b.due_ns;
                   });
  return schedule;
}

std::string EncodeBatch(const TenantInput& tenant, const Batch& batch) {
  std::vector<WireEvent> events;
  events.reserve(batch.end - batch.begin);
  for (uint32_t e = batch.begin; e < batch.end; ++e) {
    const cad::Edge& edge = tenant.windows[batch.window][e];
    events.push_back(WireEvent{tenant.Token(edge.u), tenant.Token(edge.v),
                               static_cast<double>(batch.window), edge.weight});
  }
  return cad::server::EncodeEvents(tenant.name, events);
}

// Starts cad_server on a fresh data directory and waits until it answers.
cad::Result<std::unique_ptr<ChildProcess>> StartServer(const Context& context) {
  RemoveTree(kDataDir);
  ::unlink(kSocket);
  std::unique_ptr<ChildProcess> server;
  CAD_ASSIGN_OR_RETURN(server, ChildProcess::Spawn(ServerCommand(context),
                                                   "server.out", "server.err"));
  for (int attempt = 0; attempt < 2000; ++attempt) {
    cad::Result<std::unique_ptr<Connection>> connection =
        Connection::Open(kSocket);
    if (connection.ok() &&
        (*connection)->Expect(MessageType::kPing, "", MessageType::kOk).ok()) {
      return server;
    }
    ExitInfo exit;
    cad::Result<bool> exited = server->TryWait(&exit);
    if (!exited.ok()) return exited.status();
    if (*exited) {
      return cad::Status::Internal("cad_server exited with " +
                                   std::to_string(exit.code) +
                                   " (see server.err)");
    }
    ::usleep(5000);
  }
  return cad::Status::Internal("cad_server did not answer within 10 s");
}

cad::Result<ExitInfo> StopServer(ChildProcess* server) {
  {
    std::unique_ptr<Connection> connection;
    CAD_ASSIGN_OR_RETURN(connection, Connection::Open(kSocket));
    CAD_RETURN_NOT_OK(
        connection->Expect(MessageType::kShutdown, "", MessageType::kOk)
            .status());
  }
  return server->Wait();
}

// Value of `field` for metric `name` in a kMetrics CSV (kind,name,field,value).
double MetricField(const std::string& csv, const std::string& name,
                   const std::string& field) {
  std::istringstream lines(csv);
  std::string line;
  const std::string key = "," + name + "," + field + ",";
  while (std::getline(lines, line)) {
    const size_t at = line.find(key);
    if (at == std::string::npos) continue;
    const cad::Result<double> value =
        cad::ParseDouble(line.substr(at + key.size()));
    return value.ok() ? *value : 0.0;
  }
  return 0.0;
}

// Events fed to the tenant, from its kStats JSON.
uint64_t EventsFed(const std::string& stats_json) {
  const std::string key = "\"fed\":";
  const size_t at = stats_json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(stats_json.c_str() + at + key.size(), nullptr, 10);
}

// Runs the reference cad_stream for every tenant, a few at a time.
cad::Status RunReferences(const Context& context,
                          const std::vector<TenantInput>& tenants,
                          Outcome* outcome) {
  RemoveTree("ref");
  std::error_code error;
  std::filesystem::create_directories("ref", error);
  for (const TenantInput& tenant : tenants) {
    CAD_RETURN_NOT_OK(
        WriteTenantEvents(tenant, "ref/" + tenant.name + ".events"));
  }
  constexpr size_t kParallel = 3;
  std::vector<std::pair<size_t, std::unique_ptr<ChildProcess>>> running;
  size_t next = 0;
  while (next < tenants.size() || !running.empty()) {
    while (next < tenants.size() && running.size() < kParallel) {
      std::unique_ptr<ChildProcess> child;
      CAD_ASSIGN_OR_RETURN(
          child, ChildProcess::Spawn(
                     ReferenceCommand(context, tenants[next].name), "/dev/null",
                     "ref/" + tenants[next].name + ".err"));
      running.emplace_back(next++, std::move(child));
    }
    ExitInfo exit;
    CAD_ASSIGN_OR_RETURN(exit, running.front().second->Wait());
    const std::string& name = tenants[running.front().first].name;
    running.erase(running.begin());
    outcome->Attempt();
    if (exit.code != 0) {
      outcome->Fail("reference cad_stream failed for " + name);
      continue;
    }
    const cad::Result<std::string> served =
        ReadFile(std::string(kDataDir) + "/" + name + ".csv");
    const cad::Result<std::string> reference = ReadFile("ref/" + name + ".csv");
    outcome->Check(served.ok() && reference.ok() && *served == *reference,
                   "tenant " + name +
                       "'s durable report differs from cad_stream's");
  }
  return cad::Status::OK();
}

}  // namespace

cad::Status RunServerFleet(const Context& context, Outcome* outcome) {
  const size_t windows = std::max<size_t>(
      4, static_cast<size_t>(context.seconds / kPeriodS));

  // Set-up: inputs, schedule, a started server with every tenant open. The
  // first repetitions are shut down again; the last one is measured.
  std::vector<double> setup_s;
  std::vector<TenantInput> tenants;
  std::vector<Batch> schedule;
  std::unique_ptr<ChildProcess> server;
  std::unique_ptr<Connection> connection;
  std::unique_ptr<CheckpointWatch> watch;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (server != nullptr) {
      connection.reset();
      watch.reset();
      ExitInfo stopped;
      CAD_ASSIGN_OR_RETURN(stopped, StopServer(server.get()));
      server.reset();
    }
    const uint64_t start = NowNs();
    CAD_ASSIGN_OR_RETURN(tenants,
                         MakeFleetInput(context.seed, kShape, windows));
    schedule = MakeSchedule(tenants);
    CAD_ASSIGN_OR_RETURN(server, StartServer(context));
    CAD_ASSIGN_OR_RETURN(watch, CheckpointWatch::Create(kDataDir));
    CAD_ASSIGN_OR_RETURN(connection, Connection::Open(kSocket));
    for (const TenantInput& tenant : tenants) {
      CAD_RETURN_NOT_OK(connection
                            ->Expect(MessageType::kOpen,
                                     cad::server::EncodeTenant(tenant.name),
                                     MessageType::kOpenOk)
                            .status());
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  std::map<std::string, size_t> tenant_index;
  for (size_t i = 0; i < tenants.size(); ++i) tenant_index[tenants[i].name] = i;
  // Per tenant: rename times (the k-th rename makes window k-1 durable) and
  // the open temporary file's creation time.
  std::vector<std::vector<uint64_t>> renames(tenants.size());
  std::vector<uint64_t> tmp_created(tenants.size(), 0);
  std::vector<double> checkpoint_ms;
  std::vector<CheckpointWatch::Event> events;
  const auto drain_watch = [&] {
    events.clear();
    watch->Drain(&events);
    for (const CheckpointWatch::Event& event : events) {
      const auto found = tenant_index.find(event.tenant);
      if (found == tenant_index.end()) continue;
      if (event.renamed) {
        renames[found->second].push_back(event.ns);
        if (tmp_created[found->second] != 0) {
          checkpoint_ms.push_back(
              static_cast<double>(event.ns - tmp_created[found->second]) / 1e6);
          tmp_created[found->second] = 0;
        }
      } else {
        tmp_created[found->second] = event.ns;
      }
    }
  };

  // The measured interval: the open-loop generator.
  std::vector<double> late_ms;
  std::vector<double> accept_ms;
  std::vector<double> query_ms;
  std::vector<uint64_t> sent_ns(schedule.size(), 0);
  uint64_t rejected = 0;
  size_t queries = 0;
  const uint64_t start = NowNs() + 20'000'000;  // first batch due in 20 ms
  uint64_t next_query = start;
  size_t next_batch = 0;
  while (next_batch < schedule.size()) {
    drain_watch();
    const uint64_t now = NowNs();
    const Batch& batch = schedule[next_batch];
    if (start + batch.due_ns <= now) {
      const std::string payload = EncodeBatch(tenants[batch.tenant], batch);
      const uint64_t sent = NowNs();
      while (true) {
        Frame reply;
        CAD_ASSIGN_OR_RETURN(
            reply, connection->Call(MessageType::kEvents, payload));
        if (reply.type == MessageType::kAccepted) break;
        if (reply.type != MessageType::kRejected) {
          return cad::Status::Internal(
              "batch refused with reply type " +
              std::to_string(static_cast<int>(reply.type)));
        }
        ++rejected;
        ::usleep(1000);
      }
      sent_ns[next_batch] = sent;
      late_ms.push_back(
          static_cast<double>(sent - (start + batch.due_ns)) / 1e6);
      accept_ms.push_back(static_cast<double>(NowNs() - sent) / 1e6);
      ++next_batch;
      continue;
    }
    if (next_query <= now) {
      const TenantInput& tenant = tenants[queries % tenants.size()];
      const bool stats = queries % 2 == 0;
      const uint64_t asked = NowNs();
      CAD_RETURN_NOT_OK(
          connection
              ->Expect(stats ? MessageType::kStats : MessageType::kReport,
                       cad::server::EncodeTenant(tenant.name),
                       stats ? MessageType::kStatsReply
                             : MessageType::kReportReply)
              .status());
      query_ms.push_back(static_cast<double>(NowNs() - asked) / 1e6);
      ++queries;
      next_query += static_cast<uint64_t>(kQueryPeriodS * 1e9);
      continue;
    }
    const uint64_t wake = std::min(start + batch.due_ns, next_query);
    struct pollfd watched {watch->fd(), POLLIN, 0};
    const struct timespec timeout {
      0, static_cast<long>(std::min<uint64_t>(wake - now, 999'999'999))
    };
    (void)::ppoll(&watched, 1, &timeout, nullptr);
  }
  const double interval_s = static_cast<double>(NowNs() - start) / 1e9;

  // Close every tenant's last window, then wait until every window is
  // durable: windows + 1 renames per tenant (Finish checkpoints twice).
  for (const TenantInput& tenant : tenants) {
    CAD_RETURN_NOT_OK(connection
                          ->Expect(MessageType::kFinish,
                                   cad::server::EncodeTenant(tenant.name),
                                   MessageType::kOk)
                          .status());
  }
  const uint64_t drain_deadline =
      NowNs() + static_cast<uint64_t>(kDrainTimeoutS * 1e9);
  const auto all_durable = [&] {
    for (const std::vector<uint64_t>& tenant_renames : renames) {
      if (tenant_renames.size() < windows + 1) return false;
    }
    return true;
  };
  while (!all_durable() && NowNs() < drain_deadline) {
    struct pollfd watched {watch->fd(), POLLIN, 0};
    (void)::poll(&watched, 1, 100);
    drain_watch();
  }

  // Server-side numbers, then a clean shutdown (peak RSS read from outside).
  uint64_t events_fed = 0;
  for (const TenantInput& tenant : tenants) {
    std::string stats;
    CAD_ASSIGN_OR_RETURN(stats, connection->Expect(
                                    MessageType::kStats,
                                    cad::server::EncodeTenant(tenant.name),
                                    MessageType::kStatsReply));
    uint64_t sent = 0;
    for (const auto& window : tenant.windows) sent += window.size();
    const uint64_t fed = EventsFed(stats);
    outcome->Check(fed == sent, "tenant " + tenant.name + " fed " +
                                    std::to_string(fed) + " of " +
                                    std::to_string(sent) + " events sent");
    events_fed += fed;
  }
  std::string metrics_csv;
  CAD_ASSIGN_OR_RETURN(metrics_csv,
                       connection->Expect(MessageType::kMetrics, "",
                                          MessageType::kMetricsReply));
  connection.reset();
  ExitInfo server_exit;
  CAD_ASSIGN_OR_RETURN(server_exit, StopServer(server.get()));
  server.reset();
  outcome->Check(server_exit.code == 0, "cad_server exited with " +
                                            std::to_string(server_exit.code));

  // Durable latency per window: due time of the batch that closes it (the
  // tenant's first batch of a later window) to the window's rename.
  std::vector<std::vector<uint64_t>> closing_due(
      tenants.size(), std::vector<uint64_t>(windows, 0));
  for (const Batch& batch : schedule) {
    for (uint32_t w = 0; w < batch.window; ++w) {
      uint64_t& due = closing_due[batch.tenant][w];
      if (due == 0) due = start + batch.due_ns;
    }
  }
  std::vector<std::pair<uint64_t, double>> durable;  // (due, latency ms)
  uint64_t checkpoint_bytes = 0;
  for (size_t i = 0; i < tenants.size(); ++i) {
    outcome->Attempt(windows);
    if (renames[i].size() < windows + 1) {
      outcome->Fail("tenant " + tenants[i].name + ": only " +
                        std::to_string(renames[i].size()) + " of " +
                        std::to_string(windows + 1) + " checkpoints durable",
                    windows + 1 - renames[i].size());
    }
    for (size_t w = 0; w + 1 < windows && w < renames[i].size(); ++w) {
      const uint64_t due = closing_due[i][w];
      durable.emplace_back(
          due, (static_cast<double>(renames[i][w]) - static_cast<double>(due)) /
                   1e6);
    }
    checkpoint_bytes +=
        FileSize(std::string(kDataDir) + "/" + tenants[i].name + ".ckpt");
  }
  outcome->Attempt(schedule.size());
  if (rejected > 0) {
    outcome->Fail(std::to_string(rejected) + " batches rejected", rejected);
  }
  outcome->Check(!watch->overflowed(), "the inotify queue overflowed");

  // Open-loop validity: the generator kept to its schedule, and the backlog
  // did not grow (last third of the windows against the first third).
  std::sort(durable.begin(), durable.end());
  std::vector<double> latencies;
  for (const auto& [due, ms] : durable) latencies.push_back(ms);
  const size_t third = latencies.size() / 3;
  const double early = Median(std::vector<double>(
      latencies.begin(),
      latencies.begin() + static_cast<std::ptrdiff_t>(third)));
  const double last = Median(std::vector<double>(
      latencies.begin() + static_cast<std::ptrdiff_t>(2 * third),
      latencies.end()));
  const double late_p99 = Quantile(late_ms, 0.99);
  Log(std::to_string(latencies.size()) + " durable windows over " +
      std::to_string(interval_s) + " s; generator late p99 " +
      std::to_string(late_p99) + " ms; first/last third median " +
      std::to_string(early) + "/" + std::to_string(last) + " ms");
  outcome->Check(late_p99 <= kMaxLateP99Ms,
                 "invalid open-loop run: the generator ran late (p99 " +
                     std::to_string(late_p99) + " ms)");
  outcome->Check(last <= kBacklogGrowth * early + kBacklogSlackMs,
                 "invalid open-loop run: the backlog grew");

  CAD_RETURN_NOT_OK(RunReferences(context, tenants, outcome));

  const Counters counters{
      {"events_fed", events_fed},
      {"checkpoint_bytes", checkpoint_bytes},
      {"pcg_iterations",
       static_cast<uint64_t>(
           MetricField(metrics_csv, "pcg.iterations", "value"))},
      {"calibration_iterations",
       static_cast<uint64_t>(MetricField(
           metrics_csv, "threshold.calibration_iterations", "value"))},
      {"windows",
       static_cast<uint64_t>(
           MetricField(metrics_csv, "monitor.windows", "value"))},
      {"exact_builds", static_cast<uint64_t>(MetricField(
                           metrics_csv, "commute.exact_builds", "value"))},
  };
  std::string difference;
  const bool counters_match =
      CountersMatchEarlierRuns("seed" + std::to_string(context.seed) + "-w" +
                         std::to_string(windows),
                     counters, &difference);
  outcome->Check(counters_match,
                 "work counters differ from an earlier run of this seed: " +
                     difference);

  const double level = TailLevel(latencies.size());
  Log("durable latency tail reported at p" + std::to_string(level * 100) +
      " over " + std::to_string(latencies.size()) + " windows");
  if (!context.trace) {
    AddEndToEndMetrics(Median(setup_s), server_exit.peak_rss_mb,
                       Median(latencies), Quantile(latencies, level), outcome);
    return cad::Status::OK();
  }

  const auto field = [&](const char* name, const char* key) {
    return MetricField(metrics_csv, name, key);
  };
  LayerValues values;
  values["io.events"] = static_cast<double>(events_fed);
  values["linalg.pcg_ms"] = field("span.pcg_solve_many", "total_ms") +
                            field("span.pcg_solve_block", "total_ms") +
                            field("span.pcg_solve", "total_ms");
  values["linalg.pcg_iterations"] = field("pcg.iterations", "value");
  values["linalg.pcg_nonconverged"] = field("pcg.nonconverged", "value");
  values["linalg.cholesky_ms"] = field("span.cholesky_factor", "total_ms");
  values["commute.exact_build_ms"] =
      field("span.exact_commute_build", "total_ms");
  values["commute.build_ms"] = values["commute.exact_build_ms"] +
                               field("span.approx_commute_build", "total_ms");
  values["commute.build_other_ms"] = values["commute.build_ms"] -
                                     values["linalg.pcg_ms"] -
                                     values["linalg.cholesky_ms"];
  values["core.calibration_iterations"] =
      field("threshold.calibration_iterations", "value");
  values["core.observe_p50_ms"] = field("monitor.window_latency", "p50_ms");
  values["core.observe_p99_ms"] = field("monitor.window_latency", "p99_ms");
  values["server.window_p50_ms"] = values["core.observe_p50_ms"];
  values["server.window_p99_ms"] = values["core.observe_p99_ms"];
  values["core.checkpoint_p50_ms"] = Median(checkpoint_ms);
  values["core.checkpoint_p99_ms"] = Quantile(checkpoint_ms, 0.99);
  values["core.checkpoint_mb"] = static_cast<double>(checkpoint_bytes) / 1e6 /
                                 static_cast<double>(tenants.size());
  values["server.accept_p50_ms"] = Median(accept_ms);
  values["server.accept_p99_ms"] = Quantile(accept_ms, 0.99);
  values["server.query_p50_ms"] = Median(query_ms);
  values["server.query_p99_ms"] = Quantile(query_ms, 0.99);
  // Worker time per window: Observe plus the checkpoint write.
  double checkpoint_total_ms = 0.0;
  for (const double ms : checkpoint_ms) checkpoint_total_ms += ms;
  values["server.busy_frac"] =
      (field("monitor.window_latency", "total_ms") + checkpoint_total_ms) /
      (static_cast<double>(kWorkers) * interval_s * 1e3);
  values["server.wait_p50_ms"] =
      Median(latencies) - values["server.accept_p50_ms"] -
      values["server.window_p50_ms"] - values["core.checkpoint_p50_ms"];
  values["server.queue_rejections"] = field("server.queue_rejections", "value");
  values["server.cache_evictions"] = field("server.cache_evictions", "value");
  values["bench.gen_late_p99_ms"] = late_p99;
  values["bench.traced_total_ms"] = Median(latencies);
  // Layers along the blocking path of the median window; what is left is
  // queue and scheduling wait, which no span measures yet.
  values["bench.unattributed_frac"] =
      values["server.wait_p50_ms"] / std::max(1e-9, Median(latencies));
  if (values["bench.unattributed_frac"] > 0.05) {
    Log("flag: unattributed remainder above 5% (queue wait has no span)");
  }
  AddLayerMetrics(values, outcome);
  return cad::Status::OK();
}

}  // namespace cadbench
