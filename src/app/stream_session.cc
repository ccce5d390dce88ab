#include "app/stream_session.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/threshold.h"
#include "obs/obs.h"

namespace cad {

StreamSession::StreamSession(StreamSessionOptions options)
    : options_(std::move(options)), monitor_(options_.monitor) {}

Result<StreamSession> StreamSession::Create(StreamSessionOptions options) {
  CAD_RETURN_NOT_OK(
      ValidateNodesPerTransition(options.monitor.nodes_per_transition));
  StreamSession session(std::move(options));
  CAD_RETURN_NOT_OK(session.OpenWindows());
  return session;
}

Status StreamSession::OpenWindows() {
  EventWindowOptions window;
  window.window_length = options_.window_length;
  window.start_time = options_.start_time;
  window.grow_nodes = options_.num_nodes == 0;
  // Events from windows the checkpoint holds are skipped, so they can no
  // longer grow the node set: a resumed grow-mode stream starts at the
  // checkpoint's high-water mark and keeps growing from there.
  window.num_nodes = window.grow_nodes
                         ? std::max(vocab_.size(), monitor_.num_nodes())
                         : options_.num_nodes;
  window.first_window = first_window_;
  Result<EventWindowAggregator> aggregator =
      EventWindowAggregator::Create(window);
  if (!aggregator.ok()) return aggregator.status();
  aggregator_.emplace(std::move(*aggregator));
  return Status::OK();
}

Status StreamSession::Resume(std::istream* in) {
  CAD_CHECK(!max_window_seen_.has_value()) << "Resume after the first event";
  CAD_RETURN_NOT_OK(monitor_.LoadCheckpoint(in));
  // Replaying the stream prefix re-interns every name to the same id; an
  // integer-keyed stream has no vocabulary and nothing changes.
  if (monitor_.vocabulary() != nullptr) vocab_ = *monitor_.vocabulary();
  resumed_ = true;
  first_window_ = monitor_.num_snapshots();
  return OpenWindows();
}

Status StreamSession::Reject(const Status& error) {
  if (options_.error_policy == EventErrorPolicy::kStrict) return error;
  // Endpoints past a fixed node set are data loss of a different kind than
  // malformed events; count them apart so a too-small node set is
  // diagnosable (grow mode never rejects them).
  if (error.code() == StatusCode::kOutOfRange) {
    ++counts_.rejected_range;
    CAD_METRIC_INC("io.events_rejected_range");
  } else {
    ++counts_.rejected_other;
  }
  CAD_METRIC_INC("io.events_rejected");
  return Status::OK();
}

Result<bool> StreamSession::Offer(const TimestampedEvent& event) {
  CAD_DCHECK(pending_windows() == 0);
  Result<size_t> window = aggregator_->WindowIndex(event.timestamp);
  if (!window.ok()) {
    // Timestamps before start_time are dropped, matching the batch
    // aggregator; anything else (absurdly far out) follows the policy.
    if (event.timestamp < options_.start_time) {
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
  pending_.clear();
  next_pending_ = 0;
  const Status added = aggregator_->Add(event, *window, &pending_);
  if (!added.ok()) {
    CAD_RETURN_NOT_OK(Reject(added));
    return false;
  }
  ++counts_.fed;
  return true;
}

Result<StreamSession::Window> StreamSession::ObserveNext() {
  CAD_CHECK(pending_windows() > 0);
  // The window's hash map is released once its snapshot is built, so it is
  // not held through the solve.
  const Snapshot snapshot(pending_[next_pending_]);
  pending_[next_pending_++] = WeightedGraph();
  Result<std::optional<AnomalyReport>> report = monitor_.Observe(snapshot);
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
  window.checkpoint_due =
      options_.checkpoint_every > 0 &&
      monitor_.num_snapshots() % options_.checkpoint_every == 0;
  return window;
}

Status StreamSession::Finish() {
  CAD_DCHECK(pending_windows() == 0);
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
    pending_.clear();
    next_pending_ = 0;
    pending_.push_back(aggregator_->Flush());
  }
  return Status::OK();
}

Status StreamSession::SaveCheckpoint(std::ostream* out) {
  if (!vocab_.empty()) monitor_.SetVocabulary(vocab_);
  return monitor_.SaveCheckpoint(out);
}

size_t StreamSession::num_nodes() const {
  return std::max(aggregator_->num_nodes(), monitor_.num_nodes());
}

}  // namespace cad
