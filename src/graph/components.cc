#include "graph/components.h"

#include "common/check.h"

namespace cad {

ComponentLabeling ConnectedComponents(const CsrMatrix& pattern) {
  CAD_CHECK_EQ(pattern.rows(), pattern.cols());
  const size_t n = pattern.rows();
  const std::vector<size_t>& offsets = pattern.row_offsets();
  const std::vector<uint32_t>& cols = pattern.col_indices();
  constexpr uint32_t kUnassigned = 0xffffffffu;
  ComponentLabeling labeling;
  labeling.component.assign(n, kUnassigned);

  // Every node enters the queue exactly once, so one n-slot array serves as
  // the FIFO for all components. A diagonal entry is the node itself, which
  // is already labeled by the time its row is scanned.
  std::vector<NodeId> queue(n);
  for (size_t start = 0; start < n; ++start) {
    if (labeling.component[start] != kUnassigned) continue;
    const auto id = static_cast<uint32_t>(labeling.num_components++);
    size_t head = 0;
    size_t tail = 0;
    labeling.component[start] = id;
    queue[tail++] = static_cast<NodeId>(start);
    while (head < tail) {
      const NodeId node = queue[head++];
      for (size_t p = offsets[node]; p < offsets[node + 1]; ++p) {
        if (labeling.component[cols[p]] == kUnassigned) {
          labeling.component[cols[p]] = id;
          queue[tail++] = cols[p];
        }
      }
    }
    labeling.sizes.push_back(tail);
  }
  return labeling;
}

ComponentLabeling ConnectedComponents(const Snapshot& snapshot) {
  return ConnectedComponents(ToAdjacencyCsr(snapshot));
}

bool IsConnected(const Snapshot& snapshot) {
  if (snapshot.num_nodes() == 0) return true;
  return ConnectedComponents(snapshot).num_components == 1;
}

}  // namespace cad
