// make_demo_data — writes sample datasets for cad_cli into a directory:
//   toy.tel        the paper's 17-node illustrative example (2 snapshots)
//   toy_names.txt  node names b1..b8, r1..r9 for --names
//   org.tel        an Enron-style simulated organization (48 months)
//   org_names.txt  role-based employee names
//   events.txt     org.tel re-expressed as timestamped events (cad_stream)
//   events_named.txt  the same events keyed by employee name instead of id
//                     (exercises the named-node ingestion path)
//   rmat_events.txt   a raw R-MAT edge-sample stream with power-law
//                     structure (duplicates kept; ingestion accumulates
//                     weight), spread over --rmat_snapshots windows — the
//                     small-scale stand-in for the million-node harness
//
//   make_demo_data --output_dir data
//   cad_cli --input data/toy.tel --method CAD --l 6 --edges_csv -

#include <fstream>
#include <iostream>
#include <optional>

#include "common/flags.h"
#include "datagen/enron_sim.h"
#include "datagen/rmat.h"
#include "datagen/toy_example.h"
#include "io/temporal_io.h"

namespace cad {
namespace {

Status WriteNames(const std::vector<std::string>& names,
                  const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  for (const std::string& name : names) out << name << "\n";
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

// Re-expresses each snapshot t as events at timestamp t + 0.5, so that
// aggregating with --window 1 --start_time 0 reproduces the sequence
// exactly. This is the demo input for cad_stream. With `names`, endpoints
// are written as the node names instead of integer ids (the named-node
// ingestion demo: id i maps back to names[i] because ids are interned in
// first-appearance order and the first snapshot's edges are emitted in
// ascending id order).
Status WriteEventFile(const TemporalGraphSequence& sequence,
                      const std::vector<std::string>& names,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out << "# timestamped events: <u> <v> <timestamp> <weight>\n";
  out.precision(17);
  for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
    const double timestamp = static_cast<double>(t) + 0.5;
    for (const Edge& e : sequence.Snapshot(t).Edges()) {
      if (names.empty()) {
        out << e.u << " " << e.v;
      } else {
        out << names[e.u] << " " << names[e.v];
      }
      out << " " << timestamp << " " << e.weight << "\n";
    }
  }
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

// Emits `samples` raw R-MAT draws split evenly across `snapshots` windows,
// each draw stamped mid-window (t + 0.5) like WriteEventFile. Duplicate
// draws are intentional: the event reader folds them by accumulating
// weight, which is exactly the raw-stream shape RmatEdgeSamples documents.
Status WriteRmatEventFile(const RmatOptions& options, size_t samples,
                          size_t snapshots, const std::string& path) {
  const std::vector<Edge> draws = RmatEdgeSamples(options, samples);
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out << "# timestamped events: <u> <v> <timestamp> <weight>\n";
  out.precision(17);
  const size_t per_snapshot = (draws.size() + snapshots - 1) / snapshots;
  for (size_t i = 0; i < draws.size(); ++i) {
    const double timestamp = static_cast<double>(i / per_snapshot) + 0.5;
    out << draws[i].u << " " << draws[i].v << " " << timestamp << " "
        << draws[i].weight << "\n";
  }
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string output_dir = "data";
  size_t employees = 151;
  size_t months = 48;
  uint64_t seed = 7;
  size_t rmat_nodes = 200;
  size_t rmat_samples = 4000;
  size_t rmat_snapshots = 6;
  flags.AddString("output_dir", &output_dir, "directory to write into");
  flags.AddCount("employees", &employees, "organization size for org.tel");
  flags.AddCount("months", &months, "months for org.tel");
  flags.AddCount("seed", &seed, "simulator seed");
  flags.AddCount("rmat_nodes", &rmat_nodes, "node count for rmat_events.txt");
  flags.AddCount("rmat_samples", &rmat_samples,
                 "raw R-MAT draws in rmat_events.txt (duplicates kept)");
  flags.AddCount("rmat_snapshots", &rmat_snapshots,
                 "windows the R-MAT draws are spread over", 1);
  if (const std::optional<int> exit = ParseToolFlags(&flags, argc, argv)) {
    return *exit;
  }

  const ToyExample toy = MakeToyExample();
  CAD_CHECK_OK(
      WriteTemporalEdgeListFile(toy.sequence, output_dir + "/toy.tel"));
  CAD_CHECK_OK(WriteNames(toy.node_names, output_dir + "/toy_names.txt"));
  std::cout << "wrote " << output_dir << "/toy.tel (17 nodes, 2 snapshots)\n";

  EnronSimOptions sim;
  sim.num_employees = employees;
  sim.num_months = months;
  sim.seed = seed;
  const EnronSimData org = MakeEnronStyleData(sim);
  CAD_CHECK_OK(
      WriteTemporalEdgeListFile(org.sequence, output_dir + "/org.tel"));
  CAD_CHECK_OK(WriteNames(org.node_names, output_dir + "/org_names.txt"));
  CAD_CHECK_OK(WriteEventFile(org.sequence, {}, output_dir + "/events.txt"));
  CAD_CHECK_OK(WriteEventFile(org.sequence, org.node_names,
                              output_dir + "/events_named.txt"));
  std::cout << "wrote " << output_dir << "/org.tel (" << employees
            << " nodes, " << months << " snapshots), events.txt, and "
            << "events_named.txt\n";
  std::cout << "ground-truth events in org.tel:\n";
  for (const OrgEvent& event : org.events) {
    std::cout << "  transition " << event.onset_transition << ": "
              << event.description << "\n";
  }

  RmatOptions rmat;
  rmat.num_nodes = rmat_nodes;
  rmat.num_edges = rmat_samples;  // validation bound only
  rmat.seed = seed;
  CAD_CHECK_OK(WriteRmatEventFile(rmat, rmat_samples, rmat_snapshots,
                                  output_dir + "/rmat_events.txt"));
  std::cout << "wrote " << output_dir << "/rmat_events.txt (" << rmat_nodes
            << " nodes, " << rmat_samples << " draws, " << rmat_snapshots
            << " windows)\n";
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
