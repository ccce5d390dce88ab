#ifndef CADBENCH_WORKLOADS_H_
#define CADBENCH_WORKLOADS_H_

#include "common/status.h"
#include "report.h"

namespace cadbench {

/// Each workload sets up its inputs, measures for context.seconds, checks
/// the outputs, and fills `outcome`. A non-OK status means the benchmark
/// itself could not run (no result is printed); failed operations and
/// failed checks are recorded in `outcome` instead.

/// In-process RunAnomalyPipeline passes over an R-MAT sequence.
[[nodiscard]] cad::Status RunBatchRmat(const Context& context,
                                       Outcome* outcome);

/// cad_stream replaying a generated event file with --incremental.
[[nodiscard]] cad::Status RunStreamChurn(const Context& context,
                                         Outcome* outcome);

/// An open-loop generator driving a cad_server fleet over its socket.
[[nodiscard]] cad::Status RunServerFleet(const Context& context,
                                         Outcome* outcome);

}  // namespace cadbench

#endif  // CADBENCH_WORKLOADS_H_
