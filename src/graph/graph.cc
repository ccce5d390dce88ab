#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace cad {

namespace {

Status ValidateEndpoints(NodeId u, NodeId v, size_t num_nodes) {
  if (u == v) {
    return Status::InvalidArgument("self-loops are not allowed (node " +
                                   std::to_string(u) + ")");
  }
  if (u >= num_nodes || v >= num_nodes) {
    return Status::OutOfRange("edge endpoint out of range: {" +
                              std::to_string(u) + ", " + std::to_string(v) +
                              "} with n=" + std::to_string(num_nodes));
  }
  return Status::OK();
}

Status InvalidWeight(double weight) {
  return Status::InvalidArgument("edge weight must be finite and >= 0, got " +
                                 std::to_string(weight));
}

}  // namespace

Status WeightedGraph::GrowTo(size_t num_nodes) {
  if (num_nodes < num_nodes_) {
    return Status::InvalidArgument(
        "GrowTo cannot shrink the node set: " + std::to_string(num_nodes) +
        " < " + std::to_string(num_nodes_));
  }
  num_nodes_ = num_nodes;
  return Status::OK();
}

Status WeightedGraph::SetEdge(NodeId u, NodeId v, double weight) {
  CAD_RETURN_NOT_OK(ValidateEndpoints(u, v, num_nodes_));
  if (weight < 0.0 || !std::isfinite(weight)) return InvalidWeight(weight);
  const uint64_t key = NodePair::Make(u, v).Key();
  if (weight == 0.0) {
    weights_.erase(key);
  } else {
    weights_[key] = weight;
  }
  return Status::OK();
}

Status WeightedGraph::AddEdgeWeight(NodeId u, NodeId v, double delta) {
  CAD_RETURN_NOT_OK(ValidateEndpoints(u, v, num_nodes_));
  const uint64_t key = NodePair::Make(u, v).Key();
  if (delta > 0.0 && std::isfinite(delta)) {
    // The common aggregation step, in one probe: the sum is positive, so an
    // absent key is inserted holding 0 + delta == delta, exactly as
    // SetEdge would insert it.
    const auto [it, inserted] = weights_.try_emplace(key, delta);
    if (inserted) return Status::OK();
    const double next = it->second + delta;
    if (!std::isfinite(next)) return InvalidWeight(next);
    it->second = next;
    return Status::OK();
  }
  // Zero, negative and non-finite deltas: a key is inserted only when its
  // resulting weight is nonzero and erased when it reaches zero, exactly as
  // SetEdge(EdgeWeight + delta) would.
  const auto it = weights_.find(key);
  const double next = (it == weights_.end() ? 0.0 : it->second) + delta;
  if (next < 0.0) {
    return Status::InvalidArgument(
        "AddEdgeWeight would make weight negative: " + std::to_string(next));
  }
  if (!std::isfinite(next)) return InvalidWeight(next);
  if (next == 0.0) {
    if (it != weights_.end()) weights_.erase(it);
  } else if (it != weights_.end()) {
    it->second = next;
  } else {
    weights_.emplace(key, next);
  }
  return Status::OK();
}

double WeightedGraph::EdgeWeight(NodeId u, NodeId v) const {
  if (u == v || u >= num_nodes_ || v >= num_nodes_) return 0.0;
  const auto it = weights_.find(NodePair::Make(u, v).Key());
  return it == weights_.end() ? 0.0 : it->second;
}

std::vector<Edge> WeightedGraph::Edges() const {
  // A counting sort on u (one pass to size each node's bucket, one to fill
  // it), then a sort of each bucket on v. Buckets are as long as a node's
  // upper degree, so this is O(m + n) plus short sorts.
  std::vector<size_t> bucket_end(num_nodes_ + 1, 0);
  for (const auto& [key, weight] : weights_) {
    (void)weight;
    ++bucket_end[(key >> 32) + 1];
  }
  for (size_t u = 0; u < num_nodes_; ++u) bucket_end[u + 1] += bucket_end[u];
  std::vector<Edge> edges(weights_.size());
  for (const auto& [key, weight] : weights_) {
    const size_t u = key >> 32;
    edges[bucket_end[u]++] = Edge{static_cast<NodeId>(u),
                                  static_cast<NodeId>(key & 0xffffffffULL),
                                  weight};
  }
  // Each bucket_end[u] now points one past bucket u, i.e. at bucket u+1.
  size_t begin = 0;
  for (size_t u = 0; u < num_nodes_; ++u) {
    std::sort(edges.begin() + begin, edges.begin() + bucket_end[u],
              [](const Edge& a, const Edge& b) { return a.v < b.v; });
    begin = bucket_end[u];
  }
  return edges;
}

std::vector<size_t> WeightedGraph::Degrees() const {
  std::vector<size_t> degrees(num_nodes_, 0);
  for (const auto& [key, weight] : weights_) {
    (void)weight;
    ++degrees[key >> 32];
    ++degrees[key & 0xffffffffULL];
  }
  return degrees;
}

std::vector<std::vector<WeightedGraph::Neighbor>>
WeightedGraph::AdjacencyLists() const {
  std::vector<std::vector<Neighbor>> lists(num_nodes_);
  for (const auto& [key, weight] : weights_) {
    const auto u = static_cast<NodeId>(key >> 32);
    const auto v = static_cast<NodeId>(key & 0xffffffffULL);
    lists[u].push_back(Neighbor{v, weight});
    lists[v].push_back(Neighbor{u, weight});
  }
  for (auto& list : lists) {
    std::sort(list.begin(), list.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.node < b.node;
              });
  }
  return lists;
}

std::string WeightedGraph::ToString() const {
  return "WeightedGraph(n=" + std::to_string(num_nodes_) +
         ", m=" + std::to_string(num_edges()) + ")";
}

bool WeightedGraph::operator==(const WeightedGraph& other) const {
  return num_nodes_ == other.num_nodes_ && weights_ == other.weights_;
}

}  // namespace cad
