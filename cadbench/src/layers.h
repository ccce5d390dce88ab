#ifndef CADBENCH_LAYERS_H_
#define CADBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "graph/graph.h"
#include "report.h"

namespace cadbench {

/// \brief Totals of the library's own instruments (DESIGN.md §5): the
/// `span.*` timers of the solver and commute builds and the work counters.
/// Differences of two readings attribute time and work that happen inside
/// one public call, such as the PCG solves inside CadDetector::BuildOracle.
struct LibraryTotals {
  uint64_t pcg_ns = 0;
  uint64_t cholesky_ns = 0;
  uint64_t approx_build_ns = 0;
  uint64_t incremental_build_ns = 0;
  uint64_t exact_build_ns = 0;
  uint64_t pcg_iterations = 0;
  uint64_t pcg_nonconverged = 0;
  uint64_t calibration_iterations = 0;
  uint64_t rhs_resolved = 0;
  uint64_t rhs_reused = 0;
  uint64_t rebuilds = 0;

  /// All commute-oracle builds: approximate, incremental and exact.
  uint64_t build_ns() const {
    return approx_build_ns + incremental_build_ns + exact_build_ns;
  }
  LibraryTotals operator-(const LibraryTotals& earlier) const;
};

/// Clears the library's metrics registry and turns recording on or off.
void EnableLibraryMetrics(bool enabled);

LibraryTotals ReadLibraryTotals();

/// Bytes one PCG iteration's sparse product touches on the regularised
/// Laplacian of `graph`, as computed (not measured): CSR values, column
/// indices and row offsets, plus one read and one write of the vector.
double SpmvBytes(const cad::WeightedGraph& graph);

/// Per-layer values of one traced run, by metric name. Names missing here
/// are printed as 0: that layer does no work on the workload.
using LayerValues = std::map<std::string, double>;

/// Adds every per-layer metric of the benchmark, in a fixed order, so that
/// a traced run always prints the full set.
void AddLayerMetrics(const LayerValues& values, Outcome* outcome);

/// Adds the end-to-end metrics every workload prints.
void AddEndToEndMetrics(double setup_s, double peak_rss_mb,
                        double latency_p50_ms, double latency_tail_ms,
                        Outcome* outcome);

}  // namespace cadbench

#endif  // CADBENCH_LAYERS_H_
