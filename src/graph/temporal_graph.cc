#include "graph/temporal_graph.h"

#include <cmath>

namespace cad {

Status TemporalGraphSequence::Append(WeightedGraph snapshot) {
  if (snapshot.num_nodes() != num_nodes_) {
    return Status::InvalidArgument(
        "snapshot node count " + std::to_string(snapshot.num_nodes()) +
        " does not match sequence node count " + std::to_string(num_nodes_));
  }
  snapshots_.push_back(std::move(snapshot));
  return Status::OK();
}

Status TemporalGraphSequence::AppendGrowing(WeightedGraph snapshot) {
  if (snapshot.num_nodes() > num_nodes_) {
    CAD_RETURN_NOT_OK(GrowTo(snapshot.num_nodes()));
  } else if (snapshot.num_nodes() < num_nodes_) {
    CAD_RETURN_NOT_OK(snapshot.GrowTo(num_nodes_));
  }
  snapshots_.push_back(std::move(snapshot));
  return Status::OK();
}

Status TemporalGraphSequence::GrowTo(size_t num_nodes) {
  if (num_nodes < num_nodes_) {
    return Status::InvalidArgument(
        "GrowTo cannot shrink the node set: " + std::to_string(num_nodes) +
        " < " + std::to_string(num_nodes_));
  }
  for (WeightedGraph& snapshot : snapshots_) {
    CAD_RETURN_NOT_OK(snapshot.GrowTo(num_nodes));
  }
  num_nodes_ = num_nodes;
  return Status::OK();
}

Status TemporalGraphSequence::SetVocabulary(NodeVocabulary vocabulary) {
  if (vocabulary.size() != num_nodes_) {
    return Status::InvalidArgument(
        "vocabulary size " + std::to_string(vocabulary.size()) +
        " does not match sequence node count " + std::to_string(num_nodes_));
  }
  vocabulary_ = std::move(vocabulary);
  return Status::OK();
}

double TemporalGraphSequence::AverageEdgesPerSnapshot() const {
  if (snapshots_.empty()) return 0.0;
  double total = 0.0;
  for (const WeightedGraph& g : snapshots_) {
    total += static_cast<double>(g.num_edges());
  }
  return total / static_cast<double>(snapshots_.size());
}

Status TemporalGraphSequence::CheckConsistent() const {
  if (vocabulary_.has_value() && vocabulary_->size() != num_nodes_) {
    return Status::Internal(
        "vocabulary has " + std::to_string(vocabulary_->size()) +
        " names, sequence has " + std::to_string(num_nodes_) + " nodes");
  }
  for (size_t t = 0; t < snapshots_.size(); ++t) {
    const WeightedGraph& g = snapshots_[t];
    if (g.num_nodes() != num_nodes_) {
      return Status::Internal(
          "snapshot " + std::to_string(t) + " has " +
          std::to_string(g.num_nodes()) + " nodes, sequence has " +
          std::to_string(num_nodes_));
    }
    for (const Edge& e : g.Edges()) {
      if (e.u >= num_nodes_ || e.v >= num_nodes_ || e.u >= e.v) {
        return Status::Internal("snapshot " + std::to_string(t) +
                                ": edge (" + std::to_string(e.u) + ", " +
                                std::to_string(e.v) +
                                ") is out of range or not canonical (u < v)");
      }
      if (!std::isfinite(e.weight) || e.weight <= 0.0) {
        return Status::NumericalError(
            "snapshot " + std::to_string(t) + ": edge (" +
            std::to_string(e.u) + ", " + std::to_string(e.v) +
            ") has non-finite or non-positive weight " +
            std::to_string(e.weight));
      }
    }
  }
  return Status::OK();
}

}  // namespace cad
