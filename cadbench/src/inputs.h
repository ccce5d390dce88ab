#ifndef CADBENCH_INPUTS_H_
#define CADBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/temporal_graph.h"

namespace cadbench {

/// Seeded inputs of the three workloads. Equal seeds give byte-identical
/// inputs; the programs under test only ever see these generated inputs.

/// The graphs come from fixed generator seeds; `seed` draws a random
/// relabelling of their node ids (or names), so every seed asks for the same
/// work in a different memory order.

/// batch_rmat: R-MAT sequence number `part` of a pass, whose last snapshot
/// carries a burst of uniform rewiring (the anomaly), with the burst's edges
/// as ground truth.
struct BatchInput {
  cad::TemporalGraphSequence sequence;
  std::vector<cad::Edge> injected;
  size_t burst_transition = 0;
};
[[nodiscard]] cad::Result<BatchInput> MakeBatchInput(uint64_t seed,
                                                     size_t part,
                                                     size_t num_nodes,
                                                     size_t num_edges,
                                                     size_t num_snapshots);

/// stream_churn: an event file with one event per edge per window. Windows
/// differ by a small rewiring churn, except one burst window mid-stream.
struct StreamShape {
  size_t num_nodes = 0;
  size_t num_edges = 0;
  size_t windows = 0;
  double churn = 0.0;
  double burst = 0.0;
};
struct StreamInput {
  size_t burst_window = 0;
  uint64_t events = 0;
};
[[nodiscard]] cad::Result<StreamInput> WriteStreamEvents(
    uint64_t seed, const StreamShape& shape, const std::string& path);

/// server_fleet: one stream per tenant, as edges per window. Light tenants
/// are Enron-simulator organisations with named nodes; heavy tenants are
/// R-MAT sequences with integer ids.
struct TenantInput {
  std::string name;
  bool heavy = false;
  /// Node names of a named stream; empty for integer ids.
  std::vector<std::string> node_names;
  std::vector<std::vector<cad::Edge>> windows;

  /// The endpoint token the stream sends for `node`.
  std::string Token(cad::NodeId node) const;
};
struct FleetShape {
  size_t light_tenants = 0;
  size_t light_nodes = 0;
  size_t heavy_tenants = 0;
  size_t heavy_nodes = 0;
  size_t heavy_edges = 0;
};
[[nodiscard]] cad::Result<std::vector<TenantInput>> MakeFleetInput(
    uint64_t seed, const FleetShape& shape, size_t windows);

/// Appends one event line "<u> <v> <t> <w>"; the weight is written so that
/// it parses back to exactly `weight`.
void AppendEventLine(std::string* out, const std::string& u,
                     const std::string& v, size_t window, double weight);

/// Writes a tenant's stream as an event file, window index as timestamp.
[[nodiscard]] cad::Status WriteTenantEvents(const TenantInput& tenant,
                                            const std::string& path);

}  // namespace cadbench

#endif  // CADBENCH_INPUTS_H_
