// Reproduces Fig. 7 (anomalous-transition timeline, CAD vs ACT, l = 5 /
// w = 3 top-5) and Fig. 8 (the CEO-analogue's email-volume histogram and
// burst subgraph) on the Enron-style simulated corpus (§4.2.1).

#include <algorithm>
#include <iostream>
#include <optional>

#include "app/tool_flags.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/timer.h"
#include "core/act_detector.h"
#include "core/cad_detector.h"
#include "core/threshold.h"
#include "datagen/enron_sim.h"
#include "obs/obs.h"
#include "report.h"

namespace cad {
namespace {

/// Current value of the pcg.iterations counter (0 when obs is compiled out).
uint64_t PcgIterationCounter() {
  for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
    if (name == "pcg.iterations") return value;
  }
  return 0;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  int64_t num_employees = 151;
  int64_t num_months = 48;
  int64_t l = 5;
  int64_t act_window = 3;
  int64_t seed = 7;
  CommuteEngine engine = CommuteEngine::kExact;
  int64_t k = 50;
  bool warm_start = false;
  double refactor_threshold = 0.1;
  std::optional<CgPreconditioner> preconditioner;
  flags.AddInt64("employees", &num_employees, "organization size (paper: 151)");
  flags.AddInt64("months", &num_months, "monthly snapshots (paper: 48)");
  flags.AddInt64("l", &l, "target anomalous nodes per transition for CAD");
  flags.AddInt64("act_window", &act_window, "ACT window size w (paper: 3)");
  flags.AddInt64("seed", &seed, "simulator seed");
  flags.AddChoice("engine", &engine,
                  {{"exact", CommuteEngine::kExact},
                   {"approx", CommuteEngine::kApprox}},
                  "commute engine for CAD: exact (paper) or approx (solver "
                  "benchmarking)");
  flags.AddInt64("k", &k, "embedding dimension for --engine approx");
  flags.AddBool("warm_start", &warm_start,
                "approx engine: seed each snapshot's solves with the "
                "previous embedding and reuse the IC(0) factor");
  flags.AddDouble("refactor_threshold", &refactor_threshold,
                  "IC(0) staleness trigger under --warm_start");
  AddPreconditionerFlag(&flags, &preconditioner);
  if (const std::optional<int> exit = ParseToolFlags(&flags, argc, argv)) {
    return *exit;
  }

  EnronSimOptions sim;
  sim.num_employees = static_cast<size_t>(num_employees);
  sim.num_months = static_cast<size_t>(num_months);
  sim.seed = static_cast<uint64_t>(seed);
  const EnronSimData data = MakeEnronStyleData(sim);

  bench::Banner("Enron-style corpus (paper §4.2.1): Fig. 7 and Fig. 8");
  std::cout << "  employees = " << num_employees << ", months = " << num_months
            << ", l = " << l << ", ACT w = " << act_window << "\n";

  // --- CAD: exact commute times (as in the paper for n = 151), or the
  // approximate engine when benchmarking the solver stack. ---
  const bool approx_engine = engine == CommuteEngine::kApprox;
  CadOptions cad_options;
  cad_options.engine = engine;
  cad_options.approx.embedding_dim = static_cast<size_t>(k);
  cad_options.approx.warm_start = warm_start;
  cad_options.approx.refactor_threshold = refactor_threshold;
  cad_options.approx.cg.preconditioner = preconditioner.value_or(
      warm_start ? CgPreconditioner::kIncompleteCholesky
                 : CgPreconditioner::kJacobi);
  CadDetector cad(cad_options);
  const obs::ScopedMetricsEnable metrics_enable;
  const uint64_t iterations_before = PcgIterationCounter();
  Timer analyze_timer;
  auto analyses = cad.Analyze(data.sequence);
  const double analyze_seconds = analyze_timer.ElapsedSeconds();
  const uint64_t pcg_iterations =
      PcgIterationCounter() - iterations_before;
  CAD_CHECK(analyses.ok()) << analyses.status().ToString();
  if (approx_engine) {
    std::cout << "  approx engine: k = " << k << ", preconditioner = "
              << CgPreconditionerToString(
                     cad_options.approx.cg.preconditioner)
              << ", warm start = " << (warm_start ? "on" : "off") << "\n"
              << "  CAD analyze: " << bench::Fixed(analyze_seconds, 3)
              << " s, total pcg.iterations = " << pcg_iterations << "\n";
  }
  const double delta = CalibrateDelta(*analyses, static_cast<double>(l));
  const std::vector<AnomalyReport> reports = ApplyThreshold(*analyses, delta);

  // --- ACT: top-5 nodes at transitions it marks anomalous. ---
  ActOptions act_options;
  act_options.window_size = static_cast<size_t>(act_window);
  ActDetector act(act_options);
  auto act_scores = act.ScoreTransitions(data.sequence);
  CAD_CHECK(act_scores.ok());
  auto act_z = act.TransitionZScores(data.sequence);
  CAD_CHECK(act_z.ok());
  // ACT transition threshold: flag the top quartile of z-scores.
  std::vector<double> sorted_z = *act_z;
  std::sort(sorted_z.begin(), sorted_z.end());
  const double z_threshold = sorted_z[sorted_z.size() * 3 / 4];

  bench::Section("Fig. 7 — timeline of flagged transitions (bar heights = |V_t|)");
  {
    bench::Table table({"transition", "CAD |V_t|", "ACT top-5?", "scripted event"});
    for (size_t t = 0; t < reports.size(); ++t) {
      const size_t cad_nodes = reports[t].nodes.size();
      const bool act_flagged = (*act_z)[t] > z_threshold;
      std::string event = "";
      for (const OrgEvent& e : data.events) {
        if (e.onset_transition == t) event = e.description;
        if (e.offset_transition == t && event.empty()) {
          event = "(ends) " + e.description;
        }
      }
      if (cad_nodes == 0 && !act_flagged && event.empty()) continue;
      table.AddRow({std::to_string(t), std::to_string(cad_nodes),
                    act_flagged ? "yes" : "-", event});
    }
    table.Print();
    std::cout << "  (expected shape: detections sparse in the calm opening,"
              << " dense through the scripted turmoil window, quiet tail)\n";
  }

  bench::Section("Localization accuracy at scripted event onsets");
  {
    size_t onsets = 0;
    size_t cad_hits = 0;
    size_t act_hits = 0;
    for (const OrgEvent& event : data.events) {
      const size_t t = event.onset_transition;
      if (t >= reports.size()) continue;
      ++onsets;
      // CAD hit: any key node in V_t.
      for (NodeId key : event.key_nodes) {
        if (std::count(reports[t].nodes.begin(), reports[t].nodes.end(), key)) {
          ++cad_hits;
          break;
        }
      }
      // ACT hit: any key node in its top-5 scores at that transition.
      std::vector<std::pair<double, NodeId>> ranked;
      for (NodeId i = 0; i < data.sequence.num_nodes(); ++i) {
        ranked.emplace_back((*act_scores)[t][i], i);
      }
      std::partial_sort(ranked.begin(), ranked.begin() + 5, ranked.end(),
                        std::greater<>());
      for (int rank = 0; rank < 5; ++rank) {
        if (std::count(event.key_nodes.begin(), event.key_nodes.end(),
                       ranked[static_cast<size_t>(rank)].second)) {
          ++act_hits;
          break;
        }
      }
    }
    bench::Table table({"method", "events localized", "of"});
    table.AddRow({"CAD", std::to_string(cad_hits), std::to_string(onsets)});
    table.AddRow({"ACT (top-5)", std::to_string(act_hits), std::to_string(onsets)});
    table.Print();
  }

  bench::Section("Fig. 8a — monthly email volume of the CEO-analogue");
  {
    double max_volume = 1.0;
    std::vector<double> volumes;
    for (size_t month = 0; month < data.sequence.num_snapshots(); ++month) {
      volumes.push_back(data.MonthlyVolume(data.ceo, month));
      max_volume = std::max(max_volume, volumes.back());
    }
    for (size_t month = 0; month < volumes.size(); ++month) {
      const auto bar_length =
          static_cast<size_t>(48.0 * volumes[month] / max_volume);
      std::cout << "  month " << (month < 10 ? " " : "") << month << " |"
                << std::string(bar_length, '#') << " "
                << bench::Fixed(volumes[month], 0) << "\n";
    }
    std::cout << "  (expected: pronounced spike at the hub-burst months)\n";
  }

  bench::Section("Fig. 8b — CEO-analogue's contacts before/during the burst");
  {
    const auto contacts_at = [&data](size_t month) {
      size_t count = 0;
      const WeightedGraph& g = data.sequence.Snapshot(month);
      for (NodeId other = 0; other < g.num_nodes(); ++other) {
        if (other != data.ceo && g.HasEdge(data.ceo, other)) ++count;
      }
      return count;
    };
    bench::Table table({"month", "distinct contacts", "volume"});
    for (size_t month = 30; month < std::min<size_t>(36, sim.num_months);
         ++month) {
      table.AddRow({std::to_string(month), std::to_string(contacts_at(month)),
                    bench::Fixed(data.MonthlyVolume(data.ceo, month), 0)});
    }
    table.Print();
    std::cout << "  (expected: the contact set broadens sharply at months"
              << " 33-34, across all roles)\n";
  }
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
