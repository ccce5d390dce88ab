#ifndef CAD_TESTS_STREAM_SESSION_PATHS_H_
#define CAD_TESTS_STREAM_SESSION_PATHS_H_

// cad_stream's ingestion path, in process: event text through
// RunStreamPipeline (the reader thread, the hand-off and the observe loop
// cad_stream runs) into a StreamSession. The tests that check the server's
// tenants against it (test_stream_session.cc, test_server_fleet.cc) run the
// same events through Tenant wire events; test_stream_pipeline.cc checks it
// against a serial loop.

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

#include "app/stream_pipeline.h"
#include "app/stream_session.h"
#include "common/result.h"

namespace cad::testing_paths {

struct ReaderPathResult {
  /// The first error (parse, windowing, Observe or Finish), else OK.
  Status status;
  /// How the run ended (kFailed when status is not OK).
  StreamPipelineResult::End end = StreamPipelineResult::End::kEndOfStream;
  /// The error as cad_stream prints it, and its input line.
  std::string message;
  size_t line = 0;
  /// Report CSV: the header on a fresh run, then one line per row.
  std::string csv;
  /// The monitor checkpoint after the last window (empty on failure).
  std::string checkpoint;
  /// Event counts as of the last observed window (cad_stream's `processed`
  /// line).
  StreamEventCounts counts;
  uint64_t fed = 0;
  /// Parse rejections plus the session's range and other rejections.
  uint64_t rejected = 0;
  size_t num_nodes = 0;
  size_t windows = 0;
};

/// Runs `text` through cad_stream's path. `resume_checkpoint` (monitor
/// checkpoint bytes) resumes the session first; empty starts fresh.
/// `max_snapshots` stops as cad_stream's flag does. `prepare` (optional)
/// sees the session before the first event, e.g. to attach a stats
/// reporter; `on_window` (optional) runs after each window's rows are kept.
inline ReaderPathResult RunReaderPath(
    StreamSessionOptions options, const std::string& text,
    const std::string& resume_checkpoint, size_t max_snapshots = 0,
    const std::function<void(StreamSession*)>& prepare = nullptr,
    const std::function<void()>& on_window = nullptr) {
  ReaderPathResult result;
  Result<StreamSession> created = StreamSession::Create(std::move(options));
  if (!created.ok()) {
    result.status = created.status();
    result.end = StreamPipelineResult::End::kFailed;
    return result;
  }
  StreamSession& session = *created;
  if (!resume_checkpoint.empty()) {
    std::istringstream in(resume_checkpoint);
    result.status = session.Resume(&in);
    if (!result.status.ok()) {
      result.end = StreamPipelineResult::End::kFailed;
      return result;
    }
  } else {
    result.csv = kReportCsvHeader;
  }
  if (prepare) prepare(&session);
  std::istringstream events(text);
  StreamPipelineHooks hooks;
  hooks.max_snapshots = max_snapshots;
  hooks.on_window = [&](const StreamSession::Window& window) {
    for (const std::string& row : window.report_rows) {
      result.csv += row + "\n";
    }
    if (on_window) on_window();
    return Status::OK();
  };
  const StreamPipelineResult run = RunStreamPipeline(&session, &events, hooks);
  result.end = run.end;
  result.status = run.status;
  result.message = run.message;
  result.line = run.line;
  result.counts = session.observer()->counts();
  result.fed = result.counts.fed;
  result.rejected = result.counts.rejected_parse +
                    result.counts.rejected_range +
                    result.counts.rejected_other;
  result.num_nodes = session.num_nodes();
  result.windows = session.observer()->monitor().num_snapshots();
  if (result.status.ok()) {
    std::ostringstream checkpoint;
    result.status = session.observer()->SaveCheckpoint(&checkpoint);
    result.checkpoint = checkpoint.str();
  }
  return result;
}

}  // namespace cad::testing_paths

#endif  // CAD_TESTS_STREAM_SESSION_PATHS_H_
