#include "inputs.h"

#include <algorithm>
#include <fstream>
#include <numeric>

#include "common/rng.h"
#include "datagen/enron_sim.h"
#include "datagen/rmat.h"
#include "report.h"

namespace cadbench {
namespace {

// The seed draws a relabelling of the node ids. The graphs themselves come
// from fixed generator seeds, so every seed asks for the same work laid out
// in a different memory order, and the spread of a metric across seeds is
// machine noise rather than a lottery over graph draws.
std::vector<cad::NodeId> Relabelling(uint64_t seed, size_t num_nodes) {
  std::vector<cad::NodeId> ids(num_nodes);
  std::iota(ids.begin(), ids.end(), cad::NodeId{0});
  cad::Rng rng(seed);
  rng.Shuffle(&ids);
  return ids;
}

cad::Edge Relabel(const cad::Edge& edge, const std::vector<cad::NodeId>& ids) {
  return cad::Edge{ids[edge.u], ids[edge.v], edge.weight};
}

}  // namespace

cad::Result<BatchInput> MakeBatchInput(uint64_t seed, size_t part,
                                       size_t num_nodes, size_t num_edges,
                                       size_t num_snapshots) {
  cad::RmatTemporalOptions options;
  options.base.num_nodes = num_nodes;
  options.base.num_edges = num_edges;
  options.base.seed = 1 + part;
  options.num_snapshots = num_snapshots;
  // Background churn is weight jitter plus light rewiring; the burst's
  // uniform rewiring then stands out as the anomaly.
  options.rewire_fraction = 0.001;
  options.anomaly_snapshot = num_snapshots - 1;
  cad::TemporalGraphSequence generated;
  std::vector<cad::Edge> injected;
  CAD_ASSIGN_OR_RETURN(generated,
                       cad::MakeRmatTemporalSequence(options, &injected));
  const std::vector<cad::NodeId> ids =
      Relabelling(seed * 131 + part, num_nodes);
  BatchInput input;
  input.sequence = cad::TemporalGraphSequence(num_nodes);
  for (size_t t = 0; t < generated.num_snapshots(); ++t) {
    cad::WeightedGraph snapshot(num_nodes);
    for (const cad::Edge& edge : generated.Snapshot(t).Edges()) {
      const cad::Edge relabelled = Relabel(edge, ids);
      CAD_RETURN_NOT_OK(
          snapshot.SetEdge(relabelled.u, relabelled.v, relabelled.weight));
    }
    CAD_RETURN_NOT_OK(input.sequence.Append(std::move(snapshot)));
  }
  for (const cad::Edge& edge : injected) {
    input.injected.push_back(Relabel(edge, ids));
  }
  input.burst_transition = num_snapshots - 2;
  return input;
}

cad::Result<StreamInput> WriteStreamEvents(uint64_t seed,
                                           const StreamShape& shape,
                                           const std::string& path) {
  cad::RmatTemporalOptions options;
  options.base.num_nodes = shape.num_nodes;
  options.base.num_edges = shape.num_edges;
  options.base.seed = 1;
  options.num_snapshots = shape.windows;
  // Weights stay put between windows (no jitter), so a window's churn is
  // exactly its rewired edges and the incremental path can skip re-solves.
  options.jitter = 0.0;
  options.rewire_fraction = shape.churn;
  options.anomaly_snapshot = shape.windows / 2;
  options.anomaly_fraction = shape.burst;
  cad::TemporalGraphSequence sequence;
  CAD_ASSIGN_OR_RETURN(sequence, cad::MakeRmatTemporalSequence(options));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return cad::Status::IoError("cannot write " + path);
  const std::vector<cad::NodeId> ids = Relabelling(seed, shape.num_nodes);
  StreamInput input;
  input.burst_window = options.anomaly_snapshot;
  std::string lines;
  for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
    lines.clear();
    for (const cad::Edge& edge : sequence.Snapshot(t).Edges()) {
      AppendEventLine(&lines, std::to_string(ids[edge.u]),
                      std::to_string(ids[edge.v]), t, edge.weight);
      ++input.events;
    }
    out << lines;
  }
  out.flush();
  if (!out.good()) return cad::Status::IoError("cannot write " + path);
  return input;
}

std::string TenantInput::Token(cad::NodeId node) const {
  return node_names.empty() ? std::to_string(node) : node_names[node];
}

cad::Result<std::vector<TenantInput>> MakeFleetInput(uint64_t seed,
                                                     const FleetShape& shape,
                                                     size_t windows) {
  std::vector<TenantInput> tenants;
  for (size_t i = 0; i < shape.light_tenants; ++i) {
    cad::EnronSimOptions options;
    options.num_employees = shape.light_nodes;
    options.num_months = std::max<size_t>(48, windows);
    options.seed = 1000 + i;
    const cad::EnronSimData data = cad::MakeEnronStyleData(options);
    TenantInput tenant;
    tenant.name = "light" + std::string(i < 10 ? "0" : "") + std::to_string(i);
    const std::vector<cad::NodeId> ids =
        Relabelling(seed * 1000 + i, data.node_names.size());
    tenant.node_names.resize(data.node_names.size());
    for (size_t node = 0; node < ids.size(); ++node) {
      tenant.node_names[ids[node]] = data.node_names[node];
    }
    for (size_t t = 0; t < windows; ++t) {
      tenant.windows.push_back(data.sequence.Snapshot(t).Edges());
    }
    tenants.push_back(std::move(tenant));
  }
  for (size_t i = 0; i < shape.heavy_tenants; ++i) {
    cad::RmatTemporalOptions options;
    options.base.num_nodes = shape.heavy_nodes;
    options.base.num_edges = shape.heavy_edges;
    options.base.seed = 1500 + i;
    options.num_snapshots = windows;
    options.anomaly_snapshot = windows / 2;
    cad::TemporalGraphSequence sequence;
    CAD_ASSIGN_OR_RETURN(sequence, cad::MakeRmatTemporalSequence(options));
    const std::vector<cad::NodeId> ids =
        Relabelling(seed * 1000 + 500 + i, shape.heavy_nodes);
    TenantInput tenant;
    tenant.name = "heavy" + std::to_string(i);
    tenant.heavy = true;
    for (size_t t = 0; t < windows; ++t) {
      tenant.windows.emplace_back();
      for (const cad::Edge& edge : sequence.Snapshot(t).Edges()) {
        tenant.windows.back().push_back(Relabel(edge, ids));
      }
    }
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

void AppendEventLine(std::string* out, const std::string& u,
                     const std::string& v, size_t window, double weight) {
  out->append(u);
  out->push_back(' ');
  out->append(v);
  out->push_back(' ');
  out->append(std::to_string(window));
  out->push_back(' ');
  out->append(ExactDouble(weight));
  out->push_back('\n');
}

cad::Status WriteTenantEvents(const TenantInput& tenant,
                              const std::string& path) {
  std::string lines;
  for (size_t t = 0; t < tenant.windows.size(); ++t) {
    for (const cad::Edge& edge : tenant.windows[t]) {
      AppendEventLine(&lines, tenant.Token(edge.u), tenant.Token(edge.v), t,
                      edge.weight);
    }
  }
  return WriteFile(path, lines);
}

}  // namespace cadbench
