// cad_server — multi-tenant always-on anomaly service (DESIGN.md §13).
//
// A resident process that ingests many concurrent named-node event streams
// (tenant = stream) over a length-prefixed unix-socket protocol
// (src/server/protocol.h). Each tenant runs its own OnlineCadMonitor on a
// shared worker pool under a shared solver-cache memory budget; bounded
// per-tenant queues reject-with-status under backpressure (never a silent
// drop; see the `server.queue_rejections` metric); interval checkpoints use
// the standard v1/v2/v3 monitor format wrapped in a per-tenant envelope.
//
// For example (one command line, wrapped here):
//   cad_server --socket /tmp/cad.sock --data_dir /var/lib/cad --window 1
//              --checkpoint_every 8 --workers 4
//
// Heartbeats, metrics, and anomaly-report tails are served over the same
// socket (kStats / kMetrics / kReport) from the src/obs registry, including
// per-tenant p99 window latency from timer histograms.
//
// Shutdown: SIGTERM (or a kShutdown frame) starts the graceful drain — stop
// accepting, flush every tenant's queue, checkpoint every tenant, exit 0.
// kill -9 loses nothing durable: on restart every tenant resumes from its
// envelope checkpoint, and a client replaying its stream reproduces the
// uninterrupted run's report CSV byte-identically.

#include <csignal>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "app/tool_flags.h"
#include "obs/obs.h"
#include "server/fleet.h"
#include "server/signal_util.h"
#include "server/socket_server.h"

namespace cad {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  server::FleetOptions fleet_options;
  server::TenantOptions& tenant = fleet_options.tenant;
  tenant.session.checkpoint_every = 8;
  std::string socket_path;
  size_t cache_budget_mb = 0;
  AddSessionFlags(&flags, &tenant.session);
  AddStatsEveryFlag(&flags, &tenant.stats_every);
  flags.AddString("socket", &socket_path,
                  "unix-socket path the server listens on");
  flags.AddString("data_dir", &fleet_options.data_dir,
                  "directory for per-tenant checkpoints ('<name>.ckpt') and "
                  "report CSVs ('<name>.csv'); empty = no durable state");
  flags.AddCount("workers", &fleet_options.num_workers,
                 "worker threads shared by all tenants", 1);
  flags.AddCount("cache_budget_mb", &cache_budget_mb,
                 "shared solver-cache budget across tenants in MiB; "
                 "least-recently-active idle tenants are evicted above it "
                 "(0 = unlimited)");
  flags.AddCount("queue_capacity", &tenant.queue_capacity_events,
                 "per-tenant ingest-queue bound in events; full queues "
                 "reject batches with kRejected (client retries)",
                 1);
  flags.AddCount("report_tail", &tenant.report_tail_rows,
                 "anomaly-report rows kept in memory per tenant for kReport");
  if (const std::optional<int> exit = ParseToolFlags(&flags, argc, argv)) {
    return *exit;
  }
  if (socket_path.empty()) {
    std::cerr << "--socket is required\n" << flags.Usage();
    return 2;
  }
  if (tenant.session.checkpoint_every > 0 && fleet_options.data_dir.empty()) {
    std::cerr << "--checkpoint_every requires --data_dir (use "
                 "--checkpoint_every 0 for a stateless server)\n";
    return 2;
  }
  if (cache_budget_mb > (SIZE_MAX >> 20)) {
    std::cerr << "--cache_budget_mb must be at most " << (SIZE_MAX >> 20)
              << "\n";
    return 2;
  }
  fleet_options.cache_budget_bytes = cache_budget_mb << 20;

  // Metrics are always on in the server: kMetrics/kStats queries and the
  // per-tenant latency histograms depend on the registry recording.
  obs::ResetMetrics();
  obs::SetMetricsEnabled(true);

  const Status signals = server::InstallStopSignalHandlers();
  if (!signals.ok()) {
    std::cerr << signals.ToString() << "\n";
    return 1;
  }

  const size_t workers = fleet_options.num_workers;
  Result<std::unique_ptr<server::TenantFleet>> fleet =
      server::TenantFleet::Create(std::move(fleet_options));
  if (!fleet.ok()) {
    std::cerr << fleet.status().ToString() << "\n";
    return 1;
  }
  // A restarted server resumes every checkpointed tenant before accepting
  // connections, so kill -9 -> restart is queryable immediately.
  const Status resumed = (*fleet)->ResumeAll();
  if (!resumed.ok()) {
    std::cerr << "tenant resume failed: " << resumed.ToString() << "\n";
    return 1;
  }

  Result<std::unique_ptr<server::SocketServer>> socket_server =
      server::SocketServer::Create(socket_path, fleet->get());
  if (!socket_server.ok()) {
    std::cerr << socket_server.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "cad_server listening on " << socket_path << " ("
            << (*fleet)->tenant_count() << " tenants resumed, " << workers
            << " workers)\n";

  const Status served = (*socket_server)->Serve();
  if (!served.ok()) {
    std::cerr << served.ToString() << "\n";
    return 1;
  }

  // Graceful drain (DESIGN.md §13): intake is already stopped; flush every
  // tenant's queue, checkpoint every tenant, then stop the workers. Exit 0
  // only when the drain completed cleanly.
  std::cerr << "draining " << (*fleet)->tenant_count() << " tenants (signal "
            << server::StopSignal() << ")\n";
  const Status drained = (*fleet)->DrainAll();
  (*fleet)->Stop();
  if (!drained.ok()) {
    std::cerr << "drain failed: " << drained.ToString() << "\n";
    return 1;
  }
  std::cerr << "drain complete\n";
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
