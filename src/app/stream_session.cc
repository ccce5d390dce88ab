#include "app/stream_session.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/threshold.h"
#include "obs/obs.h"

namespace cad {

StreamEventCounts& StreamEventCounts::operator+=(
    const StreamEventCounts& other) {
  fed += other.fed;
  skipped_resume += other.skipped_resume;
  before_start += other.before_start;
  rejected_parse += other.rejected_parse;
  rejected_range += other.rejected_range;
  rejected_other += other.rejected_other;
  return *this;
}

StreamEventCounts StreamEventCounts::Since(
    const StreamEventCounts& earlier) const {
  StreamEventCounts delta;
  delta.fed = fed - earlier.fed;
  delta.skipped_resume = skipped_resume - earlier.skipped_resume;
  delta.before_start = before_start - earlier.before_start;
  delta.rejected_parse = rejected_parse - earlier.rejected_parse;
  delta.rejected_range = rejected_range - earlier.rejected_range;
  delta.rejected_other = rejected_other - earlier.rejected_other;
  return delta;
}

// --- Intake ------------------------------------------------------------------

StreamIntake::StreamIntake(const StreamSessionOptions& options)
    : window_length_(options.window_length),
      start_time_(options.start_time),
      fixed_num_nodes_(options.num_nodes),
      error_policy_(options.error_policy) {}

Status StreamIntake::OpenWindows(size_t num_nodes) {
  EventWindowOptions window;
  window.window_length = window_length_;
  window.start_time = start_time_;
  window.grow_nodes = fixed_num_nodes_ == 0;
  window.num_nodes = window.grow_nodes ? num_nodes : fixed_num_nodes_;
  window.first_window = first_window_;
  Result<EventWindowAggregator> aggregator =
      EventWindowAggregator::Create(window);
  if (!aggregator.ok()) return aggregator.status();
  aggregator_.emplace(std::move(*aggregator));
  return Status::OK();
}

Status StreamIntake::Reject(const Status& error) {
  if (error_policy_ == EventErrorPolicy::kStrict) return error;
  // Endpoints past a fixed node set are data loss of a different kind than
  // malformed events; count them apart so a too-small node set is
  // diagnosable (grow mode never rejects them).
  if (error.code() == StatusCode::kOutOfRange) {
    ++counts_.rejected_range;
  } else {
    ++counts_.rejected_other;
  }
  return Status::OK();
}

Result<bool> StreamIntake::Offer(const TimestampedEvent& event) {
  CAD_DCHECK(closed_windows() == 0);
  Result<size_t> window = aggregator_->WindowIndex(event.timestamp);
  if (!window.ok()) {
    // Timestamps before start_time are dropped, matching the batch
    // aggregator; anything else (absurdly far out) follows the policy.
    if (event.timestamp < start_time_) {
      ++counts_.before_start;
      return false;
    }
    CAD_RETURN_NOT_OK(Reject(window.status()));
    return false;
  }
  if (!max_window_seen_.has_value() || *window > *max_window_seen_) {
    max_window_seen_ = *window;
  }
  if (*window < first_window_) {
    ++counts_.skipped_resume;  // consumed by the run that checkpointed
    return false;
  }
  closed_.clear();
  next_closed_ = 0;
  const Status added = aggregator_->Add(event, *window, &closed_);
  if (!added.ok()) {
    CAD_RETURN_NOT_OK(Reject(added));
    return false;
  }
  ++counts_.fed;
  // The backlog this event left: windows it closed and nobody took yet.
  queue_depth_ = closed_windows();
  return true;
}

IntakeTally StreamIntake::TakeTally() {
  IntakeTally tally;
  const std::vector<std::string>& names = vocab_.names();
  tally.new_names.assign(names.begin() + static_cast<std::ptrdiff_t>(
                                             handed_names_),
                         names.end());
  handed_names_ = names.size();
  tally.counts = counts_.Since(handed_counts_);
  handed_counts_ = counts_;
  tally.queue_depth = std::exchange(queue_depth_, std::nullopt);
  return tally;
}

ClosedWindow StreamIntake::TakeClosedWindow() {
  CAD_CHECK(closed_windows() > 0);
  ClosedWindow window{Snapshot(closed_[next_closed_]), TakeTally()};
  closed_[next_closed_++] = WeightedGraph();
  return window;
}

Status StreamIntake::Finish() {
  CAD_DCHECK(closed_windows() == 0);
  // Silently accepting a checkpoint past the stream's end would re-feed the
  // trailing windows into monitor state that already contains them,
  // double-counting them in the calibration history.
  if (resumed_) {
    const size_t stream_windows =
        max_window_seen_.has_value() ? *max_window_seen_ + 1 : 0;
    if (first_window_ > stream_windows) {
      return Status::IoError(
          "resume checkpoint is ahead of the event stream: it resumes at "
          "window " +
          std::to_string(first_window_) + " but the stream ends at " +
          (max_window_seen_.has_value()
               ? "window " + std::to_string(*max_window_seen_)
               : "no window at all") +
          "; wrong event stream, or mismatched window length/start time");
    }
  }
  if (!resumed_ || counts_.fed > 0) {
    closed_.clear();
    next_closed_ = 0;
    closed_.push_back(aggregator_->Flush());
  }
  return Status::OK();
}

// --- Observe -----------------------------------------------------------------

StreamObserver::StreamObserver(const StreamSessionOptions& options)
    : monitor_(options.monitor), checkpoint_every_(options.checkpoint_every) {}

void StreamObserver::Absorb(IntakeTally tally) {
  for (std::string& name : tally.new_names) {
    const size_t expected = vocab_.size();
    const Result<NodeId> id = vocab_.Intern(name);
    CAD_CHECK(id.ok() && *id == expected) << "vocabulary hand-off out of step";
  }
  const StreamEventCounts& counts = tally.counts;
  counts_ += counts;
  // Recorded per window rather than per event, so a reader running ahead of
  // the monitor never shows in metrics or heartbeats early.
  const uint64_t rejected =
      counts.rejected_parse + counts.rejected_range + counts.rejected_other;
  if (counts.rejected_parse > 0) {
    CAD_METRIC_ADD("io.events_rejected_parse", counts.rejected_parse);
  }
  if (counts.rejected_range > 0) {
    CAD_METRIC_ADD("io.events_rejected_range", counts.rejected_range);
  }
  if (rejected > 0) CAD_METRIC_ADD("io.events_rejected", rejected);
}

Result<StreamObserver::Window> StreamObserver::Observe(ClosedWindow closed) {
  Absorb(std::move(closed.tally));
  Result<std::optional<AnomalyReport>> report =
      monitor_.Observe(closed.snapshot);
  if (!report.ok()) return report.status();
  Window window;
  if (report->has_value()) {
    const NodeVocabulary* vocabulary = vocab_.empty() ? nullptr : &vocab_;
    window.report_rows.reserve((*report)->edges.size());
    const std::string transition = std::to_string((*report)->transition);
    for (const ScoredEdge& edge : (*report)->edges) {
      window.report_rows.push_back(
          transition + "," + NodeLabel(vocabulary, edge.pair.u) + "," +
          NodeLabel(vocabulary, edge.pair.v) + "," +
          FormatDouble(edge.score, 9) + "," +
          FormatDouble(edge.weight_delta, 9) + "," +
          FormatDouble(edge.commute_delta, 9));
    }
  }
  window.checkpoint_due = checkpoint_every_ > 0 &&
                          monitor_.num_snapshots() % checkpoint_every_ == 0;
  return window;
}

Status StreamObserver::SaveCheckpoint(std::ostream* out) const {
  return monitor_.SaveCheckpoint(out, vocab_.empty() ? nullptr : &vocab_);
}

// --- Session -----------------------------------------------------------------

StreamSession::StreamSession(StreamSessionOptions options)
    : options_(std::move(options)), intake_(options_), observer_(options_) {}

Result<StreamSession> StreamSession::Create(StreamSessionOptions options) {
  CAD_RETURN_NOT_OK(
      ValidateNodesPerTransition(options.monitor.nodes_per_transition));
  StreamSession session(std::move(options));
  CAD_RETURN_NOT_OK(session.intake_.OpenWindows(0));
  return session;
}

Status StreamSession::Resume(std::istream* in) {
  CAD_CHECK(!intake_.max_window_seen_.has_value())
      << "Resume after the first event";
  OnlineCadMonitor& monitor = observer_.monitor_;
  std::optional<NodeVocabulary> vocabulary;
  CAD_RETURN_NOT_OK(monitor.LoadCheckpoint(in, &vocabulary));
  // Replaying the stream prefix re-interns every name to the same id; an
  // integer-keyed stream has no vocabulary and nothing changes.
  if (vocabulary.has_value()) {
    intake_.vocab_ = *vocabulary;
    observer_.vocab_ = std::move(*vocabulary);
  }
  intake_.handed_names_ = intake_.vocab_.size();
  intake_.resumed_ = true;
  intake_.first_window_ = monitor.num_snapshots();
  // Events from windows the checkpoint holds are skipped, so they can no
  // longer grow the node set: a resumed grow-mode stream starts at the
  // checkpoint's high-water mark and keeps growing from there.
  return intake_.OpenWindows(
      std::max(intake_.vocab_.size(), monitor.num_nodes()));
}

size_t StreamSession::num_nodes() const {
  return std::max(intake_.num_nodes(), observer_.monitor().num_nodes());
}

}  // namespace cad
