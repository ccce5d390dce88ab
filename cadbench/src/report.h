#ifndef CADBENCH_REPORT_H_
#define CADBENCH_REPORT_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace cadbench {

/// What every workload receives from the command line.
struct Context {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the built cad_stream and cad_server.
  std::string bin_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief The result of one run: the operations attempted and failed, the
/// correctness verdict, and the metrics, printed as one JSON line.
class Outcome {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// Counts `count` failed operations and marks the run incorrect.
  void Fail(const std::string& why, uint64_t count = 1);

  /// Fail(why) unless `ok`.
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }

  void Attempt(uint64_t count = 1) { attempted_ += count; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  void Print(std::ostream* out) const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Diagnostics go to stderr, prefixed so they stand out in a driver log.
void Log(const std::string& message);

/// Deterministic work counters of one run (PCG iterations, events fed, ...).
using Counters = std::map<std::string, uint64_t>;

/// \brief Compares `counters` with those an earlier run of the same `key`
/// (workload, seed, size) left in the working directory, then records them.
/// Returns false, naming the first difference in `*difference`, when an
/// earlier run counted differently.
bool CountersMatchEarlierRuns(const std::string& key, const Counters& counters,
                              std::string* difference);

[[nodiscard]] cad::Result<std::string> ReadFile(const std::string& path);
[[nodiscard]] cad::Status WriteFile(const std::string& path,
                                    const std::string& contents);
uint64_t FileSize(const std::string& path);
/// Removes `path` and everything below it; missing paths are fine.
void RemoveTree(const std::string& path);

/// Shortest text that reads back as exactly `value`.
std::string ExactDouble(double value);

}  // namespace cadbench

#endif  // CADBENCH_REPORT_H_
