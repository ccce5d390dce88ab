#include "app/stream_pipeline.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "io/event_stream.h"
#include "obs/obs.h"

namespace cad {
namespace {

/// Closed windows the reader may have ready ahead of the monitor.
constexpr size_t kHandoffDepth = 2;
/// How often a waiting observe thread polls stop_requested: a signal
/// handler cannot wake a condition variable.
constexpr std::chrono::milliseconds kStopPoll(20);

/// One hand-off from the reader thread to the observe thread.
struct Handoff {
  enum class Kind { kWindow, kEnd, kFailed };
  Kind kind = Kind::kWindow;
  /// kWindow: the closed window. kEnd: the final window, if one was closed.
  std::optional<ClosedWindow> window;
  /// kEnd: what intake saw after the last window it handed over.
  IntakeTally rest;
  /// kWindow: the line of the event that closed the window. kFailed: the
  /// line of the error.
  size_t line = 0;
  /// kFailed: the error and its located message.
  Status status;
  std::string message;
};

/// The bounded FIFO between the two threads.
class HandoffQueue {
 public:
  /// Blocks while the queue is full. False once Close was called.
  bool Push(Handoff item) {
    const uint64_t start_ns = Timer::NowNanos();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock, [this] {
        return closed_.load(std::memory_order_relaxed) ||
               items_.size() < kHandoffDepth;
      });
      if (closed_.load(std::memory_order_relaxed)) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    CAD_METRIC_TIME_HIST_NS("stream.handoff_wait",
                            Timer::NowNanos() - start_ns);
    return true;
  }

  /// The oldest item; nullopt once `stop_requested` fires while waiting.
  std::optional<Handoff> Pop(const std::function<bool()>& stop_requested) {
    const uint64_t start_ns = Timer::NowNanos();
    std::optional<Handoff> item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (items_.empty()) {
        if (stop_requested && stop_requested()) return std::nullopt;
        not_empty_.wait_for(lock, kStopPoll);
      }
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    CAD_METRIC_TIME_HIST_NS("stream.intake_wait",
                            Timer::NowNanos() - start_ns);
    return item;
  }

  /// The observe thread is done: every Push, waiting or later, fails.
  void Close() {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      closed_.store(true, std::memory_order_relaxed);
    }
    not_full_.notify_all();
  }

  /// Cheap per-event check for the reader.
  bool closed() const { return closed_.load(std::memory_order_relaxed); }

 private:
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Handoff> items_;
  std::atomic<bool> closed_{false};
};

Handoff Failure(const Status& status, std::string message, size_t line) {
  Handoff item;
  item.kind = Handoff::Kind::kFailed;
  item.status = status;
  item.message = std::move(message);
  item.line = line;
  return item;
}

/// The reader thread: parse, offer, and hand over each closed window with
/// its tally, until the end of the stream, an intake error, or Close.
void ReadIntake(EventStreamReader* reader, StreamIntake* intake,
                HandoffQueue* queue) {
  uint64_t parse_rejections = 0;
  // Parse rejections since the last hand-off travel with the next one.
  const auto count_parse_rejections = [&] {
    intake->AddParseRejections(reader->events_rejected_parse() -
                               parse_rejections);
    parse_rejections = reader->events_rejected_parse();
  };
  while (!queue->closed()) {
    Result<std::optional<TimestampedEvent>> next = reader->Next();
    const size_t line = reader->line_number();
    if (!next.ok()) {
      queue->Push(Failure(next.status(), next.status().ToString(), line));
      return;
    }
    if (!next->has_value()) break;
    const Result<bool> fed = intake->Offer(**next);
    if (!fed.ok()) {
      queue->Push(Failure(fed.status(),
                          "event at line " + std::to_string(line) + ": " +
                              fed.status().ToString(),
                          line));
      return;
    }
    if (intake->closed_windows() == 0) continue;
    count_parse_rejections();
    while (intake->closed_windows() > 0) {
      Handoff item;
      item.window = intake->TakeClosedWindow();
      item.line = line;
      if (!queue->Push(std::move(item))) return;
    }
  }
  if (queue->closed()) return;
  const Status ended = intake->Finish();
  if (!ended.ok()) {
    const size_t line = reader->line_number();
    queue->Push(Failure(ended,
                        ended.ToString() + " (events file line " +
                            std::to_string(line) + ")",
                        line));
    return;
  }
  count_parse_rejections();
  Handoff end;
  end.kind = Handoff::Kind::kEnd;
  if (intake->closed_windows() > 0) end.window = intake->TakeClosedWindow();
  end.rest = intake->TakeTally();
  queue->Push(std::move(end));
}

/// The reader thread's owner. Closing the hand-off before the join releases
/// a reader blocked on it, on every path out of RunStreamPipeline.
class ReaderThread {
 public:
  ReaderThread(EventStreamReader* reader, StreamIntake* intake,
               HandoffQueue* queue)
      : queue_(queue), thread_(ReadIntake, reader, intake, queue) {}
  ~ReaderThread() {
    queue_->Close();
    thread_.join();
  }
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;

 private:
  HandoffQueue* queue_;
  std::thread thread_;
};

/// The observe thread: every hand-off in order, until the end of the
/// stream, an error, the window limit or a stop request.
StreamPipelineResult ObserveWindows(StreamObserver* observer,
                                    HandoffQueue* queue,
                                    const StreamPipelineHooks& hooks) {
  using End = StreamPipelineResult::End;
  const auto ended = [](End end) {
    StreamPipelineResult result;
    result.end = end;
    return result;
  };
  const auto failed = [](const Status& status, std::string message,
                         size_t line) {
    StreamPipelineResult result;
    result.end = End::kFailed;
    result.status = status;
    result.message = std::move(message);
    result.line = line;
    return result;
  };
  const auto set_queue_depth = [](const IntakeTally& tally) {
    if (tally.queue_depth.has_value()) {
      // Windows the event closed before any was observed: the backlog an
      // out-of-order burst creates. A function of the event data alone, so
      // it is a plain gauge.
      CAD_METRIC_SET("stream.queue_depth", *tally.queue_depth);
    }
  };
  // Observes one window and hands it to on_window; the error, if any.
  const auto observe = [&](ClosedWindow window) -> Status {
    set_queue_depth(window.tally);
    Result<StreamSession::Window> observed =
        observer->Observe(std::move(window));
    if (!observed.ok()) return observed.status();
    return hooks.on_window ? hooks.on_window(*observed) : Status::OK();
  };
  while (true) {
    if (hooks.stop_requested && hooks.stop_requested()) {
      return ended(End::kStopped);
    }
    std::optional<Handoff> item = queue->Pop(hooks.stop_requested);
    if (!item.has_value()) return ended(End::kStopped);
    switch (item->kind) {
      case Handoff::Kind::kFailed:
        return failed(item->status, std::move(item->message), item->line);
      case Handoff::Kind::kEnd: {
        // The final window is not tied to an input line, and neither the
        // limit nor a stop request can come between it and the end.
        if (item->window.has_value()) {
          const Status status = observe(std::move(*item->window));
          if (!status.ok()) return failed(status, status.ToString(), 0);
        }
        set_queue_depth(item->rest);
        observer->Absorb(std::move(item->rest));
        return ended(End::kEndOfStream);
      }
      case Handoff::Kind::kWindow: {
        const Status status = observe(std::move(*item->window));
        if (!status.ok()) return failed(status, status.ToString(), item->line);
        if (hooks.max_snapshots > 0 &&
            observer->monitor().num_snapshots() >= hooks.max_snapshots) {
          return ended(End::kLimit);
        }
        break;
      }
    }
  }
}

}  // namespace

StreamPipelineResult RunStreamPipeline(StreamSession* session,
                                       std::istream* events,
                                       const StreamPipelineHooks& hooks) {
  StreamIntake* intake = session->intake();
  EventStreamReader reader(events, session->options().error_policy,
                           intake->vocabulary());
  HandoffQueue queue;
  const ReaderThread reader_thread(&reader, intake, &queue);
  return ObserveWindows(session->observer(), &queue, hooks);
}

}  // namespace cad
