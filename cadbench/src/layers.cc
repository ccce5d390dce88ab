#include "layers.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace cadbench {
namespace {

uint64_t TimerNs(const char* name) {
  return cad::obs::GlobalMetrics().GetTimer(name)->total_ns();
}

uint64_t CounterValue(const char* name) {
  return cad::obs::GlobalMetrics().GetCounter(name)->Value();
}

// Every per-layer metric with its unit, in print order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const auto* const names =
      new std::vector<std::pair<std::string, std::string>>{
          {"io.parse_ms", "ms"},
          {"io.events", "count"},
          {"io.aggregate_ms", "ms"},
          {"graph.diff_ms", "ms"},
          {"graph.changed_edges", "count"},
          {"linalg.pcg_ms", "ms"},
          {"linalg.pcg_iterations", "count"},
          {"linalg.pcg_nonconverged", "count"},
          {"linalg.spmm_gb_computed", "GB"},
          {"linalg.cholesky_ms", "ms"},
          {"commute.build_ms", "ms"},
          {"commute.build_other_ms", "ms"},
          {"commute.incremental_ms", "ms"},
          {"commute.rhs_resolved_frac", "fraction"},
          {"commute.rebuilds", "count"},
          {"commute.exact_build_ms", "ms"},
          {"core.score_ms", "ms"},
          {"core.scored_edges", "count"},
          {"core.calibrate_ms", "ms"},
          {"core.calibration_iterations", "count"},
          {"core.observe_p50_ms", "ms"},
          {"core.observe_p99_ms", "ms"},
          {"core.checkpoint_p50_ms", "ms"},
          {"core.checkpoint_p99_ms", "ms"},
          {"core.checkpoint_mb", "MB"},
          {"app.classify_ms", "ms"},
          {"app.report_ms", "ms"},
          {"server.accept_p50_ms", "ms"},
          {"server.accept_p99_ms", "ms"},
          {"server.query_p50_ms", "ms"},
          {"server.query_p99_ms", "ms"},
          {"server.window_p50_ms", "ms"},
          {"server.window_p99_ms", "ms"},
          {"server.busy_frac", "fraction"},
          {"server.wait_p50_ms", "ms"},
          {"server.queue_rejections", "count"},
          {"server.cache_evictions", "count"},
          {"bench.gen_late_p99_ms", "ms"},
          {"bench.traced_total_ms", "ms"},
          {"bench.unattributed_frac", "fraction"},
          {"bench.trace_overhead_frac", "fraction"},
      };
  return *names;
}

}  // namespace

LibraryTotals LibraryTotals::operator-(const LibraryTotals& earlier) const {
  LibraryTotals d;
  d.pcg_ns = pcg_ns - earlier.pcg_ns;
  d.cholesky_ns = cholesky_ns - earlier.cholesky_ns;
  d.approx_build_ns = approx_build_ns - earlier.approx_build_ns;
  d.incremental_build_ns = incremental_build_ns - earlier.incremental_build_ns;
  d.exact_build_ns = exact_build_ns - earlier.exact_build_ns;
  d.pcg_iterations = pcg_iterations - earlier.pcg_iterations;
  d.pcg_nonconverged = pcg_nonconverged - earlier.pcg_nonconverged;
  d.calibration_iterations =
      calibration_iterations - earlier.calibration_iterations;
  d.rhs_resolved = rhs_resolved - earlier.rhs_resolved;
  d.rhs_reused = rhs_reused - earlier.rhs_reused;
  d.rebuilds = rebuilds - earlier.rebuilds;
  return d;
}

void EnableLibraryMetrics(bool enabled) {
  cad::obs::ResetMetrics();
  cad::obs::SetMetricsEnabled(enabled);
}

LibraryTotals ReadLibraryTotals() {
  LibraryTotals totals;
  // The solver entry points are never nested in one another: SolveMany's
  // per-RHS path and SolveBlock each open one outer span.
  totals.pcg_ns = TimerNs("span.pcg_solve_many") +
                  TimerNs("span.pcg_solve_block") + TimerNs("span.pcg_solve");
  totals.cholesky_ns = TimerNs("span.cholesky_factor");
  totals.approx_build_ns = TimerNs("span.approx_commute_build");
  totals.incremental_build_ns =
      TimerNs("span.approx_commute_build_incremental") +
      TimerNs("span.exact_commute_build_incremental");
  totals.exact_build_ns = TimerNs("span.exact_commute_build");
  totals.pcg_iterations = CounterValue("pcg.iterations");
  totals.pcg_nonconverged = CounterValue("pcg.nonconverged");
  totals.calibration_iterations =
      CounterValue("threshold.calibration_iterations");
  totals.rhs_resolved = CounterValue("commute.incremental_rhs_resolved");
  totals.rhs_reused = CounterValue("commute.incremental_rhs_reused");
  totals.rebuilds = CounterValue("commute.incremental_rebuild_churn") +
                    CounterValue("commute.incremental_rebuild_structure") +
                    CounterValue("commute.incremental_rebuild_breakdown");
  return totals;
}

double SpmvBytes(const cad::WeightedGraph& graph) {
  const double n = static_cast<double>(graph.num_nodes());
  const double nnz = 2.0 * static_cast<double>(graph.num_edges()) + n;
  return nnz * (sizeof(double) + sizeof(uint32_t)) +
         (n + 1.0) * sizeof(size_t) + 2.0 * n * sizeof(double);
}

void AddLayerMetrics(const LayerValues& values, Outcome* outcome) {
  for (const auto& [name, unit] : LayerMetricNames()) {
    const auto found = values.find(name);
    outcome->Add(name, found == values.end() ? 0.0 : found->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : LayerMetricNames()) known |= entry.first == name;
    if (!known) Log("internal: unlisted layer metric " + name);
  }
}

void AddEndToEndMetrics(double setup_s, double peak_rss_mb,
                        double latency_p50_ms, double latency_tail_ms,
                        Outcome* outcome) {
  outcome->Add("setup_s", setup_s, "s");
  outcome->Add("peak_rss_mb", peak_rss_mb, "MB");
  outcome->Add("latency_p50_ms", latency_p50_ms, "ms");
  outcome->Add("latency_tail_ms", latency_tail_ms, "ms");
}

}  // namespace cadbench
