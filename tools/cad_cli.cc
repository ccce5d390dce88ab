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
#include <memory>

#include "app/pipeline.h"
#include "common/flags.h"
#include "common/parallel.h"
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
  std::string input;
  std::string events;
  double window = 0.0;
  std::string error_policy = "strict";
  std::string names_file;
  bool profile = false;
  std::string method = "CAD";
  std::string engine = "auto";
  std::string edges_csv;
  std::string nodes_csv;
  std::string json_out;
  std::string dot_dir;
  std::string metrics_csv;
  std::string trace_json;
  std::string stats_json;
  int64_t stats_every = 0;
  double l = 5.0;
  int64_t k = 50;
  int64_t seed = 1;
  auto threads = static_cast<int64_t>(HardwareThreads());
  bool classify = true;
  bool warm_start = false;
  double refactor_threshold = 0.1;
  std::string preconditioner = "auto";
  flags.AddString("input", &input,
                  "temporal edge list file (this or --events is required)");
  flags.AddString("events", &events,
                  "timestamped event file '<u> <v> <t> [w]'; aggregated "
                  "into windows of --window; endpoints may be string names "
                  "(auto-detected)");
  flags.AddDouble("window", &window,
                  "window length for --events aggregation");
  flags.AddString("error_policy", &error_policy,
                  "malformed --events records: strict (fail fast) or skip "
                  "(drop and count)");
  flags.AddString("names", &names_file,
                  "optional node-name file (one name per line) used in "
                  "Graphviz output");
  flags.AddBool("profile", &profile,
                "print per-snapshot / per-transition dataset statistics");
  flags.AddString("method", &method, "CAD, ADJ, COM, SUM, ACT, CLC, or AFM");
  flags.AddString("engine", &engine,
                  "commute engine: auto, exact, or approx (CAD family)");
  flags.AddDouble("l", &l, "target anomalous nodes per transition");
  flags.AddInt64("k", &k, "embedding dimension for the approximate engine");
  flags.AddInt64("seed", &seed, "seed for the approximate engine");
  flags.AddInt64("threads", &threads,
                 "worker threads for each snapshot's Laplacian solves and "
                 "each transition's scoring lookups; outputs do not depend "
                 "on it (default: the CPUs this process may run on)");
  flags.AddBool("warm_start", &warm_start,
                "seed each snapshot's Laplacian solves with the previous "
                "snapshot's commute embedding (approximate engine)");
  flags.AddDouble("refactor_threshold", &refactor_threshold,
                  "relative Laplacian-diagonal drift above which a cached "
                  "IC(0) factor is rebuilt under --warm_start");
  flags.AddString("preconditioner", &preconditioner,
                  "CG preconditioner: auto, none, jacobi, or ic0 (auto = "
                  "ic0 under --warm_start, else jacobi)");
  flags.AddString("edges_csv", &edges_csv,
                  "write the anomalous-edge report here ('-' for stdout)");
  flags.AddString("nodes_csv", &nodes_csv,
                  "write per-transition node scores here ('-' for stdout)");
  flags.AddString("json", &json_out,
                  "write the full report as JSON here ('-' for stdout)");
  flags.AddString("dot_dir", &dot_dir,
                  "write one highlighted Graphviz file per flagged transition");
  flags.AddBool("classify", &classify,
                "label reported edges with the paper's Case 1/2/3 taxonomy");
  flags.AddString("metrics_csv", &metrics_csv,
                  "record runtime metrics and write them as CSV here "
                  "('-' for stdout)");
  flags.AddString("trace_json", &trace_json,
                  "record trace spans and write Chrome trace JSON here "
                  "(open in chrome://tracing; '-' for stdout)");
  flags.AddString("stats_json", &stats_json,
                  "write heartbeat JSON lines here ('-' for stdout); "
                  "requires --stats_every");
  flags.AddInt64("stats_every", &stats_every,
                 "emit one heartbeat record per N completed pipeline stages "
                 "(0 disables; enables metrics recording)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) return 0;
  if (input.empty() == events.empty()) {
    std::cerr << "exactly one of --input or --events is required\n"
              << flags.Usage();
    return 2;
  }

  if (threads < 1) {
    std::cerr << "--threads must be >= 1\n";
    return 2;
  }
  if (stats_every < 0) {
    std::cerr << "--stats_every must be >= 0\n";
    return 2;
  }
  if ((stats_every > 0) != !stats_json.empty()) {
    std::cerr << "--stats_every and --stats_json must be used together\n";
    return 2;
  }

  // Turn observability on before loading so the input stage is covered too.
  if (!metrics_csv.empty() || stats_every > 0) {
    obs::ResetMetrics();
    obs::SetMetricsEnabled(true);
  }
  if (!trace_json.empty()) {
    obs::ResetTracing();
    obs::SetTracingEnabled(true);
  }

  EventErrorPolicy policy = EventErrorPolicy::kStrict;
  if (error_policy == "skip") {
    policy = EventErrorPolicy::kSkip;
  } else if (error_policy != "strict") {
    std::cerr << "unknown --error_policy '" << error_policy << "'\n";
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
    EventAggregationOptions aggregation;
    aggregation.window_length = window;
    Result<TemporalGraphSequence> aggregated =
        AggregateEventStream(*stream, aggregation);
    if (aggregated.ok() && !vocabulary.empty()) {
      // The vocabulary can run ahead of the max referenced id (names from
      // events outside the aggregation range); the extra nodes are isolated.
      CAD_RETURN_NOT_OK(aggregated->GrowTo(vocabulary.size()));
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

  PipelineOptions options;
  options.method = method;
  options.nodes_per_transition = l;
  options.classify_cases = classify;
  options.cad.approx.embedding_dim = static_cast<size_t>(k);
  options.cad.approx.seed = static_cast<uint64_t>(seed);
  options.cad.analysis_threads = static_cast<size_t>(threads);
  options.cad.approx.cg.num_threads = static_cast<size_t>(threads);
  options.warm_start = warm_start;
  options.refactor_threshold = refactor_threshold;
  // "auto" upgrades warm-started runs to IC(0): the factorization is
  // amortized across snapshots by the cache, so its higher build cost pays
  // for itself; cold runs keep the cheap Jacobi default.
  if (preconditioner == "auto") {
    options.cad.approx.cg.preconditioner =
        warm_start ? CgPreconditioner::kIncompleteCholesky
                   : CgPreconditioner::kJacobi;
  } else if (preconditioner == "none") {
    options.cad.approx.cg.preconditioner = CgPreconditioner::kNone;
  } else if (preconditioner == "jacobi") {
    options.cad.approx.cg.preconditioner = CgPreconditioner::kJacobi;
  } else if (preconditioner == "ic0") {
    options.cad.approx.cg.preconditioner =
        CgPreconditioner::kIncompleteCholesky;
  } else {
    std::cerr << "unknown --preconditioner '" << preconditioner << "'\n";
    return 2;
  }
  if (engine == "exact") {
    options.cad.engine = CommuteEngine::kExact;
  } else if (engine == "approx") {
    options.cad.engine = CommuteEngine::kApprox;
  } else if (engine != "auto") {
    std::cerr << "unknown --engine '" << engine << "'\n";
    return 2;
  }

  // Heartbeat sink + reporter must outlive the pipeline run.
  std::ofstream stats_file;
  std::unique_ptr<obs::StatsReporter> stats;
  if (stats_every > 0) {
    std::ostream* stats_out = &std::cout;
    if (stats_json != "-") {
      stats_file.open(stats_json);
      if (!stats_file.is_open()) {
        std::cerr << "cannot open --stats_json file " << stats_json << "\n";
        return 1;
      }
      stats_out = &stats_file;
    }
    stats = std::make_unique<obs::StatsReporter>(
        stats_out, static_cast<uint64_t>(stats_every));
    options.stats = stats.get();
  }

  Result<PipelineResult> result = RunAnomalyPipeline(*sequence, options);
  if (!result.ok()) {
    std::cerr << "pipeline failed: " << result.status().ToString() << "\n";
    return 1;
  }

  // Summary to stderr so stdout stays clean for piped CSV.
  if (IsCommuteBasedMethod(method)) {
    size_t flagged = 0;
    for (const AnomalyReport& report : result->reports) {
      if (!report.nodes.empty()) ++flagged;
    }
    std::cerr << method << ": delta=" << result->delta << ", " << flagged
              << " of " << result->reports.size()
              << " transitions flagged, " << result->edges.size()
              << " anomalous edges\n";
  } else {
    std::cerr << method << ": node scores computed for "
              << result->node_scores.size() << " transitions\n";
  }

  const auto write_csv = [&](const std::string& target,
                             auto writer) -> Status {
    if (target == "-") return writer(&std::cout);
    std::ofstream file(target);
    if (!file.is_open()) {
      return Status::IoError("cannot open " + target);
    }
    return writer(&file);
  };

  if (!edges_csv.empty()) {
    const Status status = write_csv(edges_csv, [&](std::ostream* out) {
      return WriteEdgeReportCsv(*result, out);
    });
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  }
  if (!nodes_csv.empty()) {
    const Status status = write_csv(nodes_csv, [&](std::ostream* out) {
      return WriteNodeScoresCsv(*result, out);
    });
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  }
  if (!json_out.empty()) {
    const Status status = write_csv(json_out, [&](std::ostream* out) {
      return WritePipelineResultJson(*result, out);
    });
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  }
  if (!metrics_csv.empty()) {
    const Status status = write_csv(metrics_csv, [&](std::ostream* out) {
      return obs::WriteMetricsCsv(result->metrics, out);
    });
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  }
  if (!trace_json.empty()) {
    const Status status = write_csv(trace_json, [&](std::ostream* out) {
      return obs::WriteChromeTraceJson(out);
    });
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
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
