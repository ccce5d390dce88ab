#include "core/act_detector.h"

#include <cmath>

#include "graph/snapshot.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/vector_ops.h"

namespace cad {

Result<std::vector<std::vector<double>>> ActDetector::ActivityVectors(
    const TemporalGraphSequence& sequence) const {
  std::vector<std::vector<double>> activity;
  activity.reserve(sequence.num_snapshots());
  for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
    PowerIterationResult eig;
    CAD_ASSIGN_OR_RETURN(
        eig, PrincipalEigenvector(ToAdjacencyCsr(sequence.Snapshot(t)),
                                  options_.power));
    // Perron-Frobenius: the dominant eigenvector of a non-negative matrix
    // can be chosen non-negative; absolute values fix the arbitrary sign.
    for (double& v : eig.eigenvector) v = std::fabs(v);
    activity.push_back(std::move(eig.eigenvector));
  }
  return activity;
}

std::vector<double> ActDetector::WindowSummary(
    const std::vector<std::vector<double>>& activity, size_t first,
    size_t last) const {
  CAD_CHECK_LE(first, last);
  const size_t w = last - first + 1;
  if (w == 1) return activity[first];
  const size_t n = activity[first].size();

  // Principal left singular vector of U = [a_first ... a_last] (n x w) via
  // the w x w Gram matrix G = U^T U: if G c = sigma^2 c, then r = U c / |U c|.
  DenseMatrix gram(w, w);
  for (size_t a = 0; a < w; ++a) {
    for (size_t b = a; b < w; ++b) {
      const double dot = Dot(activity[first + a], activity[first + b]);
      gram(a, b) = dot;
      gram(b, a) = dot;
    }
  }
  Result<EigenDecomposition> eig = JacobiEigenDecomposition(gram);
  // The Gram matrix of unit vectors is tiny and well conditioned; a failure
  // here indicates a programming error rather than a data problem.
  CAD_CHECK(eig.ok()) << eig.status().ToString();
  std::vector<double> summary(n, 0.0);
  const size_t top = w - 1;  // eigenvalues ascending; last is the largest
  for (size_t a = 0; a < w; ++a) {
    Axpy(eig->eigenvectors(a, top), activity[first + a], &summary);
  }
  const double norm = Norm2(summary);
  if (norm > 0.0) ScaleInPlace(1.0 / norm, &summary);
  for (double& v : summary) v = std::fabs(v);
  return summary;
}

Result<TransitionNodeScores> ActDetector::ScoreTransitions(
    const TemporalGraphSequence& sequence) const {
  if (sequence.num_snapshots() < 2) {
    return Status::InvalidArgument("ACT needs at least two snapshots");
  }
  std::vector<std::vector<double>> activity;
  CAD_ASSIGN_OR_RETURN(activity, ActivityVectors(sequence));

  TransitionNodeScores scores;
  scores.reserve(sequence.num_transitions());
  const size_t n = sequence.num_nodes();
  for (size_t t = 0; t + 1 < sequence.num_snapshots(); ++t) {
    const size_t first =
        options_.window_size == 0 || t + 1 < options_.window_size
            ? 0
            : t + 1 - options_.window_size;
    const std::vector<double> summary = WindowSummary(activity, first, t);
    std::vector<double> node_scores(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      node_scores[i] = std::fabs(activity[t + 1][i] - summary[i]);
    }
    scores.push_back(std::move(node_scores));
  }
  return scores;
}

Result<std::vector<double>> ActDetector::TransitionZScores(
    const TemporalGraphSequence& sequence) const {
  if (sequence.num_snapshots() < 2) {
    return Status::InvalidArgument("ACT needs at least two snapshots");
  }
  std::vector<std::vector<double>> activity;
  CAD_ASSIGN_OR_RETURN(activity, ActivityVectors(sequence));

  std::vector<double> z_scores;
  z_scores.reserve(sequence.num_transitions());
  for (size_t t = 0; t + 1 < sequence.num_snapshots(); ++t) {
    const size_t first =
        options_.window_size == 0 || t + 1 < options_.window_size
            ? 0
            : t + 1 - options_.window_size;
    const std::vector<double> summary = WindowSummary(activity, first, t);
    z_scores.push_back(1.0 - Dot(summary, activity[t + 1]));
  }
  return z_scores;
}

}  // namespace cad
