#ifndef CAD_TESTS_STREAM_SESSION_PATHS_H_
#define CAD_TESTS_STREAM_SESSION_PATHS_H_

// cad_stream's ingestion path, in process: event text through an
// EventStreamReader into a StreamSession, every pending window observed,
// then Finish and the final window. The tests that check the server's
// tenants against it (test_stream_session.cc, test_server_fleet.cc) run the
// same events through Tenant wire events.

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "app/stream_session.h"
#include "common/result.h"
#include "io/event_stream.h"

namespace cad::testing_paths {

struct ReaderPathResult {
  /// The first error (parse, windowing, Observe or Finish), else OK.
  Status status;
  /// Report CSV: the header on a fresh run, then one line per row.
  std::string csv;
  /// The monitor checkpoint after the last window (empty on failure).
  std::string checkpoint;
  uint64_t fed = 0;
  /// Parse rejections plus the session's range and other rejections.
  uint64_t rejected = 0;
  size_t num_nodes = 0;
  size_t windows = 0;
};

/// Runs `text` through cad_stream's path. `resume_checkpoint` (monitor
/// checkpoint bytes) resumes the session first; empty starts fresh.
inline ReaderPathResult RunReaderPath(StreamSessionOptions options,
                                      const std::string& text,
                                      const std::string& resume_checkpoint) {
  ReaderPathResult result;
  const EventErrorPolicy policy = options.error_policy;
  Result<StreamSession> created = StreamSession::Create(std::move(options));
  if (!created.ok()) {
    result.status = created.status();
    return result;
  }
  StreamSession& session = *created;
  if (!resume_checkpoint.empty()) {
    std::istringstream in(resume_checkpoint);
    result.status = session.Resume(&in);
    if (!result.status.ok()) return result;
  } else {
    result.csv = kReportCsvHeader;
  }
  std::istringstream events(text);
  EventStreamReader reader(&events, policy, session.vocabulary());
  const auto observe_pending = [&]() -> Status {
    while (session.pending_windows() > 0) {
      Result<StreamSession::Window> window = session.ObserveNext();
      if (!window.ok()) return window.status();
      for (const std::string& row : window->report_rows) {
        result.csv += row + "\n";
      }
    }
    return Status::OK();
  };
  const auto run = [&]() -> Status {
    while (true) {
      std::optional<TimestampedEvent> event;
      CAD_ASSIGN_OR_RETURN(event, reader.Next());
      if (!event.has_value()) break;
      CAD_RETURN_NOT_OK(session.Offer(*event).status());
      CAD_RETURN_NOT_OK(observe_pending());
    }
    CAD_RETURN_NOT_OK(session.Finish());
    return observe_pending();
  };
  result.status = run();
  const StreamEventCounts& counts = session.counts();
  result.fed = counts.fed;
  result.rejected = reader.events_rejected_parse() + counts.rejected_range +
                    counts.rejected_other;
  result.num_nodes = session.num_nodes();
  result.windows = session.monitor().num_snapshots();
  if (result.status.ok()) {
    std::ostringstream checkpoint;
    result.status = session.SaveCheckpoint(&checkpoint);
    result.checkpoint = checkpoint.str();
  }
  return result;
}

}  // namespace cad::testing_paths

#endif  // CAD_TESTS_STREAM_SESSION_PATHS_H_
