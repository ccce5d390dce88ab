#include "graph/snapshot.h"

#include <cmath>
#include <string>

namespace cad {

namespace {

/// Lays out a symmetric CSR straight from a sorted edge list: row i holds
/// its lower neighbours (j < i), then the diagonal when `diagonal` is
/// given, then its upper neighbours (j > i), each ascending — the column
/// order a per-row sort would give, without the sort. The walk visits rows
/// in order; by the time it reaches row i, every edge (u, i) with u < i has
/// already filled row i's lower part in ascending u, so the diagonal and
/// then the edges (i, v), ascending in v, append behind it. Off-diagonal
/// values are the edge weights, negated for a Laplacian.
CsrMatrix AssembleSymmetricCsr(size_t num_nodes, const std::vector<Edge>& edges,
                               bool negate,
                               const std::vector<double>* diagonal) {
  std::vector<size_t> row_offsets(num_nodes + 1, 0);
  for (const Edge& edge : edges) {
    ++row_offsets[edge.u + 1];
    ++row_offsets[edge.v + 1];
  }
  if (diagonal != nullptr) {
    for (size_t i = 0; i < num_nodes; ++i) ++row_offsets[i + 1];
  }
  for (size_t i = 0; i < num_nodes; ++i) row_offsets[i + 1] += row_offsets[i];

  const size_t nnz = row_offsets[num_nodes];
  std::vector<uint32_t> cols(nnz);
  std::vector<double> vals(nnz);
  std::vector<size_t> cursor(row_offsets.begin(), row_offsets.end() - 1);
  size_t next = 0;
  for (size_t i = 0; i < num_nodes; ++i) {
    if (diagonal != nullptr) {
      const size_t pos = cursor[i]++;
      cols[pos] = static_cast<uint32_t>(i);
      vals[pos] = (*diagonal)[i];
    }
    for (; next < edges.size() && edges[next].u == i; ++next) {
      const Edge& edge = edges[next];
      const double value = negate ? -edge.weight : edge.weight;
      const size_t upper = cursor[i]++;
      cols[upper] = edge.v;
      vals[upper] = value;
      const size_t lower = cursor[edge.v]++;
      cols[lower] = edge.u;
      vals[lower] = value;
    }
  }
  return CsrMatrix(num_nodes, num_nodes, std::move(row_offsets),
                   std::move(cols), std::move(vals));
}

}  // namespace

Snapshot::Snapshot(const WeightedGraph& graph)
    : Snapshot(graph.num_nodes(), graph.Edges()) {}

Snapshot::Snapshot(size_t num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)), degrees_(num_nodes) {
  double total = 0.0;
  for (const Edge& edge : edges_) {
    degrees_[edge.u] += edge.weight;
    degrees_[edge.v] += edge.weight;
    total += edge.weight;
  }
  volume_ = 2.0 * total;
}

Result<Snapshot> Snapshot::FromSortedEdges(size_t num_nodes,
                                           std::vector<Edge> edges) {
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& edge = edges[i];
    const char* fault = nullptr;
    if (edge.u >= edge.v) {
      fault = "is not canonical (u < v)";
    } else if (edge.v >= num_nodes) {
      fault = "has an endpoint beyond the node count";
    } else if (!(edge.weight > 0.0) || !std::isfinite(edge.weight)) {
      fault = "has a weight that is not finite and positive";
    } else if (i > 0 && !(NodePair{edges[i - 1].u, edges[i - 1].v} <
                          NodePair{edge.u, edge.v})) {
      fault = "breaks strictly ascending (u, v) order";
    }
    if (fault != nullptr) {
      return Status::InvalidArgument(
          "edge " + std::to_string(i) + " {" + std::to_string(edge.u) + ", " +
          std::to_string(edge.v) + ", " + std::to_string(edge.weight) +
          "} of " + std::to_string(num_nodes) + " nodes " + fault);
    }
  }
  return Snapshot(num_nodes, std::move(edges));
}

Status Snapshot::GrowTo(size_t num_nodes) {
  if (num_nodes < num_nodes_) {
    return Status::InvalidArgument(
        "GrowTo cannot shrink the node set: " + std::to_string(num_nodes) +
        " < " + std::to_string(num_nodes_));
  }
  num_nodes_ = num_nodes;
  degrees_.resize(num_nodes, 0.0);
  return Status::OK();
}

CsrMatrix ToAdjacencyCsr(const Snapshot& snapshot) {
  return AssembleSymmetricCsr(snapshot.num_nodes(), snapshot.edges(),
                              /*negate=*/false, nullptr);
}

CsrMatrix ToLaplacianCsr(const Snapshot& snapshot, double regularization) {
  std::vector<double> diagonal = snapshot.weighted_degrees();
  for (double& d : diagonal) d += regularization;
  return AssembleSymmetricCsr(snapshot.num_nodes(), snapshot.edges(),
                              /*negate=*/true, &diagonal);
}

DenseMatrix ToLaplacianDense(const Snapshot& snapshot, double regularization) {
  const size_t n = snapshot.num_nodes();
  DenseMatrix l(n, n);
  for (const Edge& edge : snapshot.edges()) {
    l(edge.u, edge.v) = -edge.weight;
    l(edge.v, edge.u) = -edge.weight;
  }
  for (size_t i = 0; i < n; ++i) {
    l(i, i) = snapshot.weighted_degrees()[i] + regularization;
  }
  return l;
}

}  // namespace cad
