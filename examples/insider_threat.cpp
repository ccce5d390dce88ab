// Insider-threat monitoring example (the paper's motivating application):
// simulate an organization's monthly email graphs, run CAD with the
// automated threshold, and produce an analyst-style report that names the
// employees whose *relationships* changed anomalously each month.
//
//   build/examples/insider_threat [--employees N] [--months T] [--l L]

#include <algorithm>
#include <iostream>

#include "common/check.h"
#include "common/flags.h"
#include "core/cad_detector.h"
#include "core/case_classifier.h"
#include "core/threshold.h"
#include "datagen/enron_sim.h"

int main(int argc, char** argv) {
  using namespace cad;

  FlagParser flags;
  int64_t employees = 151;
  int64_t months = 48;
  int64_t l = 5;
  int64_t seed = 7;
  flags.AddInt64("employees", &employees, "organization size");
  flags.AddInt64("months", &months, "number of monthly snapshots");
  flags.AddInt64("l", &l, "average anomalous employees per month to report");
  flags.AddInt64("seed", &seed, "simulator seed");
  CAD_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) return 0;

  EnronSimOptions sim;
  sim.num_employees = static_cast<size_t>(employees);
  sim.num_months = static_cast<size_t>(months);
  sim.seed = static_cast<uint64_t>(seed);
  const EnronSimData org = MakeEnronStyleData(sim);

  std::cout << "Monitoring " << employees << " employees over " << months
            << " months of simulated email traffic...\n";

  CadDetector detector;  // auto engine: exact for these sizes
  auto analyses = detector.Analyze(org.sequence);
  CAD_CHECK(analyses.ok()) << analyses.status().ToString();
  const double delta = CalibrateDelta(*analyses, static_cast<double>(l));
  const std::vector<AnomalyReport> reports = ApplyThreshold(*analyses, delta);
  std::cout << "Calibrated threshold delta = " << delta << " (targets ~" << l
            << " flagged employees/month)\n\n";

  for (const AnomalyReport& report : reports) {
    if (report.nodes.empty()) continue;
    std::cout << "Month " << report.transition << " -> "
              << report.transition + 1 << ": " << report.nodes.size()
              << " employee(s) flagged\n";
    // Top three relationships by anomaly score, classified into the paper's
    // Case 1/2/3 taxonomy against the before-snapshot commute time that
    // scoring already computed.
    for (size_t i = 0; i < std::min<size_t>(3, report.edges.size()); ++i) {
      const ScoredEdge& edge = report.edges[i];
      const AnomalyCase anomaly_case = ClassifyAnomalousEdge(
          edge, edge.commute_before, org.sequence.Snapshot(report.transition),
          org.sequence.Snapshot(report.transition + 1));
      std::cout << "    " << org.node_names[edge.pair.u] << " <-> "
                << org.node_names[edge.pair.v] << "  (score "
                << edge.score << ", email delta " << edge.weight_delta
                << ", " << AnomalyCaseToString(anomaly_case) << ")\n";
    }
    // Cross-reference with the simulator's scripted ground truth.
    if (org.IsEventTransition(report.transition)) {
      const std::vector<NodeId> truth = org.EventNodesAt(report.transition);
      size_t hits = 0;
      for (NodeId node : report.nodes) {
        if (std::count(truth.begin(), truth.end(), node)) ++hits;
      }
      std::cout << "    [scripted event here; " << hits
                << " flagged employee(s) match the script]\n";
    }
  }

  std::cout << "\nDone. Months without output were below the anomaly"
            << " threshold (calm).\n";
  return 0;
}
