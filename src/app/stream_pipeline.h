#ifndef CAD_APP_STREAM_PIPELINE_H_
#define CAD_APP_STREAM_PIPELINE_H_

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

#include "app/stream_session.h"
#include "common/result.h"

namespace cad {

/// What the observe thread does besides observing.
struct StreamPipelineHooks {
  /// Stop once the monitor has observed this many windows (0 = no limit).
  /// The open window is not closed, as a kill would leave it.
  size_t max_snapshots = 0;
  /// Polled before each window and while waiting for one; true stops the
  /// run at that window boundary. Empty never stops.
  std::function<bool()> stop_requested;
  /// Takes each observed window's report rows and checkpoint cadence, on
  /// the observe thread, in window order. An error ends the run.
  std::function<Status(const StreamSession::Window&)> on_window;
};

/// How a RunStreamPipeline call ended.
struct StreamPipelineResult {
  enum class End {
    /// Every event read and every window, the final one too, observed.
    kEndOfStream,
    /// max_snapshots windows observed.
    kLimit,
    /// stop_requested fired.
    kStopped,
    /// status holds the first error in stream order.
    kFailed,
  };
  End end = End::kEndOfStream;
  Status status;
  /// kFailed: the error as cad_stream prints it, located where it has an
  /// input line ("event at line 7: ...").
  std::string message;
  /// kFailed: the input line the error is tied to (the bad record, or the
  /// event that closed the window whose observation failed), 0 for none.
  size_t line = 0;
};

/// \brief cad_stream's loop: reads event text from `events` into the
/// session and observes every window, with intake and observation
/// overlapped. A reader thread parses each line (EventStreamReader under the
/// session's error policy, interning into the intake vocabulary), offers it
/// to the intake half and turns each closed window into its Snapshot; the
/// calling thread observes the windows in order and runs the hooks. The two
/// meet only at a hand-off of at most two closed windows, each carrying the
/// tally of what intake saw up to the event that closed it, so outputs,
/// counts, metrics and errors are those of the serial loop: read-ahead never
/// shows. Intake errors travel through the hand-off in order, after every
/// window closed before them. Call after Resume, if any; when this returns,
/// the reader thread has ended and session->observer()->counts() are the
/// counts as of the last observed window.
///
/// Timers (outside the determinism contract): `stream.intake_wait` is the
/// observe thread waiting for a window, `stream.handoff_wait` the reader
/// blocked on a full hand-off; together they say whether a run was
/// intake-bound or observe-bound.
StreamPipelineResult RunStreamPipeline(StreamSession* session,
                                       std::istream* events,
                                       const StreamPipelineHooks& hooks);

}  // namespace cad

#endif  // CAD_APP_STREAM_PIPELINE_H_
