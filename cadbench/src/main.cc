// cadbench — the repository benchmark driver (see ../README.md).
//
// Runs one workload for about --seconds seconds, checks that the programs'
// outputs are correct, and prints one JSON line as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Inputs are generated from --seed; every file the run writes lives in
// --work_dir. Normally started by run.py, which builds this program first.

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "report.h"
#include "workloads.h"

namespace cadbench {
namespace {

int Run(int argc, char** argv) {
  cad::FlagParser flags;
  Context context;
  int64_t seed = 1;
  int64_t trace = 0;
  std::string work_dir;
  flags.AddString("workload", &context.workload,
                  "batch_rmat, stream_churn or server_fleet");
  flags.AddInt64("seed", &seed, "input seed");
  flags.AddDouble("seconds", &context.seconds, "length of the measurement");
  flags.AddInt64("trace", &trace,
                 "0: end-to-end metrics; 1: per-layer metrics (traced run)");
  flags.AddString("work_dir", &work_dir,
                  "directory for generated inputs and outputs");
  flags.AddString("bin_dir", &context.bin_dir,
                  "directory holding the built cad_stream and cad_server");
  const cad::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) return 0;
  if (work_dir.empty() || context.bin_dir.empty() || seed < 0 ||
      context.seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::cerr << "--work_dir, --bin_dir, --seed >= 0, --seconds > 0 and "
                 "--trace 0|1 are required\n"
              << flags.Usage();
    return 2;
  }
  context.seed = static_cast<uint64_t>(seed);
  context.trace = trace == 1;
  context.bin_dir = std::filesystem::absolute(context.bin_dir).string();

  std::error_code error;
  std::filesystem::create_directories(work_dir, error);
  if (error || ::chdir(work_dir.c_str()) != 0) {
    std::cerr << "cannot use --work_dir " << work_dir << "\n";
    return 1;
  }

  Outcome outcome;
  cad::Status ran = cad::Status::OK();
  if (context.workload == "batch_rmat") {
    ran = RunBatchRmat(context, &outcome);
  } else if (context.workload == "stream_churn") {
    ran = RunStreamChurn(context, &outcome);
  } else if (context.workload == "server_fleet") {
    ran = RunServerFleet(context, &outcome);
  } else {
    std::cerr << "unknown --workload '" << context.workload << "'\n";
    return 2;
  }
  if (!ran.ok()) {
    std::cerr << "cadbench: " << context.workload
              << " could not run: " << ran.ToString() << "\n";
    return 1;
  }
  outcome.Print(&std::cout);
  return 0;
}

}  // namespace
}  // namespace cadbench

int main(int argc, char** argv) { return cadbench::Run(argc, argv); }
