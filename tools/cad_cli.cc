// cad_cli — command-line anomaly localization for temporal graph files.
//
// Reads a temporal edge list (the io/temporal_io.h text format), runs the
// selected method, and writes the anomalous-edge report and/or node scores
// as CSV. Example:
//
//   cad_cli --input emails.tel --method CAD --l 5 --edges_csv anomalies.csv
//   cad_cli --input emails.tel --method ACT --nodes_csv scores.csv
//
// Emitting `--dot_dir DIR` additionally writes one Graphviz file per flagged
// transition with the anomalous nodes/edges highlighted.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "app/pipeline.h"
#include "app/tool_flags.h"
#include "graph/node_vocabulary.h"
#include "graph/temporal_stats.h"
#include "io/dot_writer.h"
#include "io/event_stream.h"
#include "io/temporal_io.h"
#include "obs/obs.h"

namespace cad {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  PipelineOptions options;
  std::string input;
  std::string events;
  double window = 0.0;
  EventErrorPolicy policy = EventErrorPolicy::kStrict;
  std::string names_file;
  bool profile = false;
  std::string edges_csv;
  std::string nodes_csv;
  std::string json_out;
  std::string dot_dir;
  std::optional<CgPreconditioner> preconditioner;
  AddEventsFlag(&flags, &events);
  AddWindowFlags(&flags, &window, &policy);
  AddEngineFlags(&flags, &options.cad);
  AddWarmStartFlags(&flags, &options.warm_start, &options.refactor_threshold);
  AddPreconditionerFlag(&flags, &preconditioner);
  AddTargetFlag(&flags, &options.nodes_per_transition);
  AddThreadsFlag(&flags, &options.cad);
  ObservabilityFlags observability(&flags);
  flags.AddString("input", &input,
                  "temporal edge list file (this or --events is required)");
  flags.AddString("names", &names_file,
                  "optional node-name file (one name per line) used in "
                  "Graphviz output");
  flags.AddBool("profile", &profile,
                "print per-snapshot / per-transition dataset statistics");
  flags.AddString("method", &options.method,
                  "CAD, ADJ, COM, SUM, ACT, CLC, or AFM");
  flags.AddString("edges_csv", &edges_csv,
                  "write the anomalous-edge report here ('-' for stdout)");
  flags.AddString("nodes_csv", &nodes_csv,
                  "write per-transition node scores here ('-' for stdout)");
  flags.AddString("json", &json_out,
                  "write the full report as JSON here ('-' for stdout)");
  flags.AddString("dot_dir", &dot_dir,
                  "write one highlighted Graphviz file per flagged transition");
  flags.AddBool("classify", &options.classify_cases,
                "label reported edges with the paper's Case 1/2/3 taxonomy");
  if (const std::optional<int> exit = ParseToolFlags(&flags, argc, argv)) {
    return *exit;
  }
  if (input.empty() == events.empty()) {
    std::cerr << "exactly one of --input or --events is required\n"
              << flags.Usage();
    return 2;
  }
  // "auto" upgrades warm-started runs to IC(0): the factorization is
  // amortized across snapshots by the cache, so its higher build cost pays
  // for itself; cold runs keep the cheap Jacobi default.
  options.cad.approx.cg.preconditioner = preconditioner.value_or(
      options.warm_start ? CgPreconditioner::kIncompleteCholesky
                         : CgPreconditioner::kJacobi);
  // Turn observability on before loading so the input stage is covered too.
  const Status started = observability.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 2;
  }

  size_t events_rejected = 0;
  Result<TemporalGraphSequence> sequence = [&]() -> Result<TemporalGraphSequence> {
    if (!input.empty()) return ReadTemporalEdgeListFile(input);
    if (window <= 0.0) {
      return Status::InvalidArgument("--events requires a positive --window");
    }
    // Auto-detected id mode: integer endpoints behave exactly as before;
    // string endpoints are interned and the vocabulary is attached to the
    // sequence so reports render the original names (DESIGN.md §8).
    NodeVocabulary vocabulary;
    Result<std::vector<TimestampedEvent>> stream =
        ReadEventStreamFile(events, policy, &events_rejected, &vocabulary);
    if (!stream.ok()) return stream.status();
    Result<TemporalGraphSequence> aggregated =
        AggregateEventStream(*stream, window);
    if (aggregated.ok() && !vocabulary.empty()) {
      // Every interned name belongs to an aggregated event, so the
      // discovered node set is exactly the vocabulary.
      CAD_RETURN_NOT_OK(aggregated->SetVocabulary(std::move(vocabulary)));
    }
    return aggregated;
  }();
  if (!sequence.ok()) {
    std::cerr << "failed to load input: " << sequence.status().ToString()
              << "\n";
    return 1;
  }
  std::cerr << "read " << sequence->num_snapshots() << " snapshots over "
            << sequence->num_nodes() << " nodes (avg "
            << sequence->AverageEdgesPerSnapshot() << " edges)\n";
  if (events_rejected > 0) {
    std::cerr << "skipped " << events_rejected << " malformed event records\n";
  }

  if (profile) {
    PrintTemporalProfile(ProfileSequence(*sequence), &std::cerr);
  }

  std::vector<std::string> node_names;
  if (!names_file.empty()) {
    std::ifstream names_in(names_file);
    if (!names_in.is_open()) {
      std::cerr << "cannot open --names file " << names_file << "\n";
      return 1;
    }
    std::string line;
    while (std::getline(names_in, line)) node_names.push_back(line);
    if (node_names.size() != sequence->num_nodes()) {
      std::cerr << "--names has " << node_names.size() << " entries, graph has "
                << sequence->num_nodes() << " nodes\n";
      return 1;
    }
  }
  // Named inputs carry their own labels; an explicit --names still wins.
  if (node_names.empty() && sequence->vocabulary() != nullptr) {
    node_names = sequence->vocabulary()->names();
  }

  // Heartbeats start here, after loading: one record per pipeline stage.
  Result<obs::StatsReporter*> stats = observability.OpenStats();
  if (!stats.ok()) {
    std::cerr << stats.status().ToString() << "\n";
    return 1;
  }
  options.stats = *stats;

  Result<PipelineResult> result = RunAnomalyPipeline(*sequence, options);
  if (!result.ok()) {
    std::cerr << "pipeline failed: " << result.status().ToString() << "\n";
    return 1;
  }

  // Summary to stderr so stdout stays clean for piped CSV.
  if (IsCommuteBasedMethod(options.method)) {
    size_t flagged = 0;
    for (const AnomalyReport& report : result->reports) {
      if (!report.nodes.empty()) ++flagged;
    }
    std::cerr << options.method << ": delta=" << result->delta << ", "
              << flagged << " of " << result->reports.size()
              << " transitions flagged, " << result->edges.size()
              << " anomalous edges\n";
  } else {
    std::cerr << options.method << ": node scores computed for "
              << result->node_scores.size() << " transitions\n";
  }

  // The reports, then the observability exports; the first failure ends
  // the run.
  const Status written = [&]() -> Status {
    if (!edges_csv.empty()) {
      CAD_RETURN_NOT_OK(WriteToTarget(edges_csv, [&](std::ostream* out) {
        return WriteEdgeReportCsv(*result, out);
      }));
    }
    if (!nodes_csv.empty()) {
      CAD_RETURN_NOT_OK(WriteToTarget(nodes_csv, [&](std::ostream* out) {
        return WriteNodeScoresCsv(*result, out);
      }));
    }
    if (!json_out.empty()) {
      CAD_RETURN_NOT_OK(WriteToTarget(json_out, [&](std::ostream* out) {
        return WritePipelineResultJson(*result, out);
      }));
    }
    return observability.WriteExports(result->metrics);
  }();
  if (!written.ok()) {
    std::cerr << written.ToString() << "\n";
    return 1;
  }
  if (!dot_dir.empty()) {
    for (const AnomalyReport& report : result->reports) {
      if (report.nodes.empty()) continue;
      DotOptions dot;
      dot.node_names = node_names;
      dot.highlighted_nodes = report.nodes;
      for (const ScoredEdge& edge : report.edges) {
        dot.highlighted_edges.push_back(edge.pair);
      }
      const std::string path = dot_dir + "/transition_" +
                               std::to_string(report.transition) + ".dot";
      const Status status = WriteDotFile(
          sequence->Snapshot(report.transition + 1), dot, path);
      if (!status.ok()) {
        std::cerr << status.ToString() << "\n";
        return 1;
      }
    }
    std::cerr << "dot files written to " << dot_dir << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
