// Parity of the two StreamSession front ends (src/app/stream_session.h):
// the same events through cad_stream's path (text lines, EventStreamReader,
// StreamSession) and through a server Tenant (wire events) must give
// byte-identical report rows and equal monitor checkpoints — for integer
// and named streams, strict and skip policies, fresh runs and runs resumed
// from a mid-stream checkpoint — and a checkpoint ahead of the stream must
// be an IoError on both.
//
// StreamPipelineTest checks cad_stream's overlapped loop
// (RunStreamPipeline: a reader thread ahead of the observe thread) against
// the serial loop it replaced: the same rows, checkpoints, counts, errors,
// non-timer metrics and heartbeats, however far the reader runs ahead.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/stream_pipeline.h"
#include "app/stream_session.h"
#include "common/strings.h"
#include "core/checkpoint.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"
#include "server/tenant.h"
#include "stream_session_paths.h"

namespace cad {
namespace {

using server::Tenant;
using server::TenantOptions;
using server::WireEvent;
using testing_paths::ReaderPathResult;
using testing_paths::RunReaderPath;

constexpr size_t kWindows = 10;
constexpr size_t kPerWindow = 16;
constexpr size_t kNodes = 10;

/// mkdtemp-backed scratch directory; removes its contents on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string pattern = ::testing::TempDir() + "/cad_session_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    CAD_CHECK(::mkdtemp(buffer.data()) != nullptr);
    path_ = buffer.data();
  }
  ~ScopedTempDir() {
    const std::string cleanup = "rm -rf '" + path_ + "'";
    (void)::system(cleanup.c_str());  // best-effort scratch cleanup
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One stream as event-file lines. Timestamps are multiples of 1/64, so
/// their text reads back as exactly the wire double. `dirty` adds what
/// kSkip must drop: a garbage first record, a negative weight, a NaN
/// timestamp, a bad endpoint, a self-loop, an event older than the open
/// window, and one before start_time.
std::vector<std::string> MakeLines(bool named, bool dirty, uint64_t seed) {
  const auto node = [named](size_t i) {
    return named ? "user" + std::to_string(i) : std::to_string(i);
  };
  uint64_t state = 0x9e3779b97f4a7c15ull * (seed + 1);
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::string> lines;
  if (dirty) lines.push_back("1 2 nan");
  for (size_t w = 0; w < kWindows; ++w) {
    for (size_t i = 0; i < kPerWindow; ++i) {
      const size_t u = next() % kNodes;
      size_t v = next() % kNodes;
      if (v == u) v = (v + 1) % kNodes;
      const double t = static_cast<double>(w) +
                       static_cast<double>(2 * i + 1) / 64.0;
      const std::string time = FormatDouble(t, 17);
      lines.push_back(node(u) + " " + node(v) + " " + time + " " +
                      std::to_string(1 + next() % 3));
      if (!dirty || i != 5) continue;
      switch (w % 4) {
        case 0:
          lines.push_back(node(u) + " " + node(v) + " " + time + " -1");
          lines.push_back(node(v) + " " + node(u) + " nan");
          break;
        case 1:
          lines.push_back(node(u) + " " + (named ? "#bad" : "x") + " " +
                          time);
          break;
        case 2:
          lines.push_back(node(u) + " " + node(u) + " " + time);
          break;
        default:
          lines.push_back(node(u) + " " + node(v) + " " +
                          FormatDouble(t - 1.0, 17));
          lines.push_back(node(u) + " " + node(v) + " -0.5");
          break;
      }
    }
  }
  return lines;
}

std::string AsText(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// The same records as wire events (fields as the client would send them).
std::vector<WireEvent> AsWire(const std::vector<std::string>& lines) {
  std::vector<WireEvent> events;
  for (const std::string& line : lines) {
    const std::vector<std::string> fields = SplitTokens(line);
    CAD_CHECK(fields.size() == 3 || fields.size() == 4);
    WireEvent event;
    event.u = fields[0];
    event.v = fields[1];
    event.timestamp = ParseDouble(fields[2]).ValueOrDie();
    if (fields.size() == 4) event.weight = ParseDouble(fields[3]).ValueOrDie();
    events.push_back(std::move(event));
  }
  return events;
}

OnlineMonitorOptions Monitor() {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  options.nodes_per_transition = 2.0;
  options.warmup_transitions = 2;
  return options;
}

StreamSessionOptions ReaderOptions(EventErrorPolicy policy) {
  StreamSessionOptions options;
  options.monitor = Monitor();
  options.error_policy = policy;
  return options;
}

TenantOptions TenantOptionsIn(const std::string& dir,
                              EventErrorPolicy policy) {
  TenantOptions options;
  options.session = ReaderOptions(policy);
  options.session.checkpoint_every = 3;
  options.checkpoint_path = dir + "/parity.ckpt";
  options.output_path = dir + "/parity.csv";
  return options;
}

/// The monitor checkpoint inside a tenant's CADSRV envelope.
std::string EmbeddedCheckpoint(const std::string& envelope_path) {
  std::ifstream in(envelope_path, std::ios::binary);
  char magic[server::kTenantCheckpointMagicSize];
  in.read(magic, sizeof(magic));
  CheckpointReader reader(&in);
  CAD_CHECK(reader.ReadU8().ok());      // envelope version
  CAD_CHECK(reader.ReadString().ok());  // tenant name
  CAD_CHECK(reader.ReadU64().ok());     // CSV offset
  CAD_CHECK(reader.ReadU8().ok());      // id mode
  std::ostringstream rest;
  rest << in.rdbuf();
  return rest.str();
}

int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  CAD_CHECK(pos != std::string::npos);
  return std::atoll(json.c_str() + pos + needle.size());
}

/// Feeds `events` to a tenant in small batches. With `finish` the stream
/// ends normally; without it the tenant is dropped the way a kill -9 leaves
/// it, with only its interval checkpoints on disk.
Status RunTenant(const TenantOptions& options,
                 const std::vector<WireEvent>& events, bool finish,
                 std::string* stats) {
  Result<std::unique_ptr<Tenant>> tenant = Tenant::Create("parity", options);
  if (!tenant.ok()) return tenant.status();
  for (size_t i = 0; i < events.size(); i += 7) {
    const std::vector<WireEvent> batch(
        events.begin() + i, events.begin() + std::min(events.size(), i + 7));
    CAD_RETURN_NOT_OK((*tenant)->ApplyBatch(batch));
  }
  const Status finished = finish ? (*tenant)->Finish() : Status::OK();
  if (stats != nullptr) *stats = (*tenant)->StatsJson();
  return finished;
}

struct Case {
  bool named;
  EventErrorPolicy policy;
  std::string Name() const {
    return std::string(named ? "named" : "integer") +
           (policy == EventErrorPolicy::kSkip ? "/skip" : "/strict");
  }
};

const Case kCases[] = {{false, EventErrorPolicy::kStrict},
                       {false, EventErrorPolicy::kSkip},
                       {true, EventErrorPolicy::kStrict},
                       {true, EventErrorPolicy::kSkip}};

TEST(StreamSessionParityTest, FreshRunsMatch) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.Name());
    const std::vector<std::string> lines =
        MakeLines(c.named, c.policy == EventErrorPolicy::kSkip, 1);
    const ReaderPathResult reader =
        RunReaderPath(ReaderOptions(c.policy), AsText(lines), "");
    ASSERT_TRUE(reader.status.ok()) << reader.status.ToString();
    // Non-vacuous: rows were reported and, under skip, records dropped.
    EXPECT_GT(reader.csv.size(), sizeof(kReportCsvHeader));
    EXPECT_EQ(reader.rejected > 0, c.policy == EventErrorPolicy::kSkip);

    ScopedTempDir dir;
    const TenantOptions options = TenantOptionsIn(dir.path(), c.policy);
    std::string stats;
    const Status tenant =
        RunTenant(options, AsWire(lines), /*finish=*/true, &stats);
    ASSERT_TRUE(tenant.ok()) << tenant.ToString();
    EXPECT_EQ(ReadFile(options.output_path), reader.csv);
    EXPECT_EQ(EmbeddedCheckpoint(options.checkpoint_path), reader.checkpoint);
    EXPECT_EQ(JsonInt(stats, "fed"), static_cast<int64_t>(reader.fed));
    EXPECT_EQ(JsonInt(stats, "rejected_parse"),
              static_cast<int64_t>(reader.rejected));
    EXPECT_EQ(JsonInt(stats, "num_nodes"),
              static_cast<int64_t>(reader.num_nodes));
    EXPECT_EQ(JsonInt(stats, "windows"), static_cast<int64_t>(reader.windows));
  }
}

TEST(StreamSessionParityTest, RunsResumedMidStreamMatch) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.Name());
    const std::vector<std::string> lines =
        MakeLines(c.named, c.policy == EventErrorPolicy::kSkip, 2);
    const std::vector<WireEvent> events = AsWire(lines);
    const ReaderPathResult uninterrupted =
        RunReaderPath(ReaderOptions(c.policy), AsText(lines), "");
    ASSERT_TRUE(uninterrupted.status.ok());

    // A tenant killed halfway leaves its last interval checkpoint; both
    // paths resume from the monitor checkpoint inside it and replay the
    // whole stream.
    ScopedTempDir dir;
    const TenantOptions options = TenantOptionsIn(dir.path(), c.policy);
    const std::vector<WireEvent> half(events.begin(),
                                      events.begin() + events.size() / 2);
    ASSERT_TRUE(RunTenant(options, half, /*finish=*/false, nullptr).ok());
    const std::string checkpoint = EmbeddedCheckpoint(options.checkpoint_path);
    ASSERT_FALSE(checkpoint.empty());

    const ReaderPathResult reader =
        RunReaderPath(ReaderOptions(c.policy), AsText(lines), checkpoint);
    ASSERT_TRUE(reader.status.ok()) << reader.status.ToString();
    std::string stats;
    const Status tenant = RunTenant(options, events, /*finish=*/true, &stats);
    ASSERT_TRUE(tenant.ok()) << tenant.ToString();
    EXPECT_GE(JsonInt(stats, "skipped_resume"), 1);

    // The resumed reader run emits exactly the rows after the checkpoint;
    // the tenant's CSV, truncated to its checkpoint and regrown, is the
    // uninterrupted run's.
    const std::string tenant_csv = ReadFile(options.output_path);
    EXPECT_EQ(tenant_csv, uninterrupted.csv);
    ASSERT_FALSE(reader.csv.empty());
    ASSERT_GE(tenant_csv.size(), reader.csv.size());
    EXPECT_EQ(tenant_csv.substr(tenant_csv.size() - reader.csv.size()),
              reader.csv);
    EXPECT_EQ(EmbeddedCheckpoint(options.checkpoint_path), reader.checkpoint);
    EXPECT_EQ(reader.checkpoint, uninterrupted.checkpoint);
    EXPECT_EQ(JsonInt(stats, "fed"), static_cast<int64_t>(reader.fed));
    EXPECT_EQ(JsonInt(stats, "rejected_parse"),
              static_cast<int64_t>(reader.rejected));
  }
}

TEST(StreamSessionParityTest, CheckpointAheadOfStreamIsIoErrorOnBothPaths) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.Name());
    const std::vector<std::string> lines =
        MakeLines(c.named, c.policy == EventErrorPolicy::kSkip, 3);
    ScopedTempDir dir;
    const TenantOptions options = TenantOptionsIn(dir.path(), c.policy);
    ASSERT_TRUE(
        RunTenant(options, AsWire(lines), /*finish=*/true, nullptr).ok());
    const std::string checkpoint = EmbeddedCheckpoint(options.checkpoint_path);

    // Replaying only the first two windows: the checkpoint holds windows
    // this stream never reaches.
    const std::vector<std::string> shorter(lines.begin(),
                                           lines.begin() + 2 * kPerWindow);
    const ReaderPathResult reader =
        RunReaderPath(ReaderOptions(c.policy), AsText(shorter), checkpoint);
    EXPECT_EQ(reader.status.code(), StatusCode::kIoError)
        << reader.status.ToString();
    const Status tenant =
        RunTenant(options, AsWire(shorter), /*finish=*/true, nullptr);
    EXPECT_EQ(tenant.code(), StatusCode::kIoError) << tenant.ToString();
    EXPECT_NE(tenant.message().find(reader.status.message()),
              std::string::npos)
        << tenant.ToString();
  }
}

TEST(TenantStatsTest, EventCountsAreLiveMidWindow) {
  // A tenant's kStats counts follow every event, even inside a window that
  // is still open; only the io.events_rejected* metrics wait for the window
  // to close, as they do in cad_stream.
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter* rejected_metric =
      obs::GlobalMetrics().GetCounter("io.events_rejected");
  const uint64_t rejected_before = rejected_metric->Value();
  ScopedTempDir dir;
  Result<std::unique_ptr<Tenant>> tenant = Tenant::Create(
      "live", TenantOptionsIn(dir.path(), EventErrorPolicy::kSkip));
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();

  // Window 0: three fed events, a self-loop the windowing rejects and a
  // name the decoder rejects.
  ASSERT_TRUE((*tenant)
                  ->ApplyBatch(AsWire({"a b 0.25", "b c 0.5 2", "c c 0.5",
                                       "a #bad 0.5", "a d 0.75"}))
                  .ok());
  std::string stats = (*tenant)->StatsJson();
  EXPECT_EQ(JsonInt(stats, "windows"), 0) << stats;
  EXPECT_EQ(JsonInt(stats, "fed"), 3) << stats;
  EXPECT_EQ(JsonInt(stats, "rejected_parse"), 2) << stats;
  EXPECT_EQ(rejected_metric->Value(), rejected_before);

  // The next window's first event closes window 0.
  ASSERT_TRUE((*tenant)->ApplyBatch(AsWire({"a b 1.25"})).ok());
  stats = (*tenant)->StatsJson();
  EXPECT_EQ(JsonInt(stats, "windows"), 1) << stats;
  EXPECT_EQ(JsonInt(stats, "fed"), 4) << stats;
  EXPECT_EQ(JsonInt(stats, "rejected_parse"), 2) << stats;
  // The self-loop; decoder rejections stay tenant-local.
  EXPECT_EQ(rejected_metric->Value(), rejected_before + 1);
  obs::SetMetricsEnabled(metrics_were_enabled);
}

// --- RunStreamPipeline against the serial loop ------------------------------

using PipelineEnd = StreamPipelineResult::End;

/// The loop RunStreamPipeline replaced, on one thread: read a line, offer
/// it, observe every window it closed, stop at a window boundary once
/// `max_snapshots` windows are observed. The queue-depth gauge is set per
/// fed event and the counts are the session's live ones, as cad_stream did
/// before intake moved to its own thread.
ReaderPathResult RunSerialReference(
    StreamSessionOptions options, const std::string& text,
    const std::string& resume_checkpoint, size_t max_snapshots = 0,
    const std::function<void(StreamSession*)>& prepare = nullptr) {
  ReaderPathResult result;
  const EventErrorPolicy policy = options.error_policy;
  Result<StreamSession> created = StreamSession::Create(std::move(options));
  CAD_CHECK(created.ok());
  StreamSession& session = *created;
  if (!resume_checkpoint.empty()) {
    std::istringstream in(resume_checkpoint);
    CAD_CHECK(session.Resume(&in).ok());
  } else {
    result.csv = kReportCsvHeader;
  }
  if (prepare) prepare(&session);
  StreamIntake& intake = *session.intake();
  std::istringstream events(text);
  EventStreamReader reader(&events, policy, intake.vocabulary());
  uint64_t parse_counted = 0;
  // Observes the closed windows; true once the window limit is reached.
  const auto observe_closed = [&]() -> Result<bool> {
    intake.AddParseRejections(reader.events_rejected_parse() - parse_counted);
    parse_counted = reader.events_rejected_parse();
    while (intake.closed_windows() > 0) {
      Result<StreamSession::Window> window = session.ObserveNext();
      if (!window.ok()) return window.status();
      for (const std::string& row : window->report_rows) {
        result.csv += row + "\n";
      }
      if (max_snapshots > 0 &&
          session.observer()->monitor().num_snapshots() >= max_snapshots) {
        return true;
      }
    }
    return false;
  };
  const auto fail = [&](const Status& status, std::string message,
                        size_t line) {
    result.end = PipelineEnd::kFailed;
    result.message = std::move(message);
    result.line = line;
    return status;
  };
  const auto run = [&]() -> Status {
    while (true) {
      Result<std::optional<TimestampedEvent>> next = reader.Next();
      const size_t line = reader.line_number();
      if (!next.ok()) {
        return fail(next.status(), next.status().ToString(), line);
      }
      if (!next->has_value()) break;
      const Result<bool> fed = intake.Offer(**next);
      if (!fed.ok()) {
        return fail(fed.status(),
                    "event at line " + std::to_string(line) + ": " +
                        fed.status().ToString(),
                    line);
      }
      if (*fed) CAD_METRIC_SET("stream.queue_depth", intake.closed_windows());
      const Result<bool> stop = observe_closed();
      if (!stop.ok()) return fail(stop.status(), stop.status().ToString(), line);
      if (*stop) {
        result.end = PipelineEnd::kLimit;
        return Status::OK();
      }
    }
    const Status ended = intake.Finish();
    if (!ended.ok()) {
      return fail(ended,
                  ended.ToString() + " (events file line " +
                      std::to_string(reader.line_number()) + ")",
                  reader.line_number());
    }
    const Status flushed = observe_closed().status();
    if (!flushed.ok()) return fail(flushed, flushed.ToString(), 0);
    session.observer()->Absorb(intake.TakeTally());
    return Status::OK();
  };
  result.status = run();
  result.counts = intake.counts();
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

void ExpectSameRun(const ReaderPathResult& serial,
                   const ReaderPathResult& pipeline) {
  EXPECT_EQ(pipeline.end, serial.end);
  EXPECT_EQ(pipeline.status.ToString(), serial.status.ToString());
  EXPECT_EQ(pipeline.message, serial.message);
  EXPECT_EQ(pipeline.line, serial.line);
  EXPECT_EQ(pipeline.csv, serial.csv);
  EXPECT_EQ(pipeline.checkpoint, serial.checkpoint);
  // A failed cad_stream run prints no `processed` line and exports no
  // metrics, so its counts are not output; the serial loop's would include
  // the events it read after the last window.
  if (serial.end == PipelineEnd::kFailed) return;
  EXPECT_TRUE(pipeline.counts == serial.counts)
      << "fed " << pipeline.counts.fed << " vs " << serial.counts.fed
      << ", parse " << pipeline.counts.rejected_parse << " vs "
      << serial.counts.rejected_parse;
  EXPECT_EQ(pipeline.windows, serial.windows);
}

/// A run's deterministic observability: the non-timer metric rows and the
/// heartbeats (one per window) with their volatile timer object cut off.
struct Observed {
  ReaderPathResult run;
  std::string metrics;
  std::string heartbeats;
};

using PathRunner = std::function<ReaderPathResult(
    const std::function<void(StreamSession*)>& prepare)>;

Observed RunObserved(const PathRunner& runner) {
  obs::ResetMetrics();
  std::ostringstream heartbeat_out;
  obs::StatsReporter reporter(&heartbeat_out, 1);
  Observed observed;
  observed.run = runner([&](StreamSession* session) {
    session->observer()->mutable_monitor()->SetStatsReporter(&reporter);
  });
  std::ostringstream csv;
  CAD_CHECK(obs::WriteMetricsCsv(obs::SnapshotMetrics(), &csv).ok());
  std::istringstream rows(csv.str());
  for (std::string row; std::getline(rows, row);) {
    if (row.rfind("timer,", 0) != 0) observed.metrics += row + "\n";
  }
  std::istringstream beats(heartbeat_out.str());
  for (std::string beat; std::getline(beats, beat);) {
    observed.heartbeats += beat.substr(0, beat.find(",\"timer\":")) + "\n";
  }
  return observed;
}

/// Runs the serial loop, the pipeline, and the serial loop again, and
/// compares the pipeline with the second serial run: by then every metric
/// either path records is registered in both.
void ExpectPipelineMatchesSerial(const PathRunner& serial,
                                 const PathRunner& pipeline) {
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  RunObserved(serial);
  const Observed piped = RunObserved(pipeline);
  const Observed reference = RunObserved(serial);
  obs::SetMetricsEnabled(metrics_were_enabled);
  ExpectSameRun(reference.run, piped.run);
  EXPECT_EQ(piped.heartbeats, reference.heartbeats);
  EXPECT_FALSE(piped.heartbeats.empty());
  if (reference.run.end != PipelineEnd::kFailed) {
    EXPECT_EQ(piped.metrics, reference.metrics);
  }
}

TEST(StreamPipelineTest, MatchesSerialLoop) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.Name());
    const std::string text =
        AsText(MakeLines(c.named, c.policy == EventErrorPolicy::kSkip, 5));
    ExpectPipelineMatchesSerial(
        [&](const auto& prepare) {
          return RunSerialReference(ReaderOptions(c.policy), text, "", 0,
                                    prepare);
        },
        [&](const auto& prepare) {
          return RunReaderPath(ReaderOptions(c.policy), text, "", 0, prepare);
        });
  }
}

TEST(StreamPipelineTest, WindowLimitAndResumeMatchSerialLoop) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.Name());
    const std::string text =
        AsText(MakeLines(c.named, c.policy == EventErrorPolicy::kSkip, 6));
    const ReaderPathResult full =
        RunReaderPath(ReaderOptions(c.policy), text, "");
    ASSERT_TRUE(full.status.ok()) << full.status.ToString();
    // Stop after four windows (the reader is by then ahead), then resume
    // from that state.
    ReaderPathResult first;
    ExpectPipelineMatchesSerial(
        [&](const auto& prepare) {
          return RunSerialReference(ReaderOptions(c.policy), text, "", 4,
                                    prepare);
        },
        [&](const auto& prepare) {
          first = RunReaderPath(ReaderOptions(c.policy), text, "", 4, prepare);
          return first;
        });
    EXPECT_EQ(first.end, PipelineEnd::kLimit);
    EXPECT_EQ(first.windows, 4u);
    ASSERT_FALSE(first.checkpoint.empty());
    ReaderPathResult rest;
    ExpectPipelineMatchesSerial(
        [&](const auto& prepare) {
          return RunSerialReference(ReaderOptions(c.policy), text,
                                    first.checkpoint, 0, prepare);
        },
        [&](const auto& prepare) {
          rest = RunReaderPath(ReaderOptions(c.policy), text, first.checkpoint,
                               0, prepare);
          return rest;
        });
    EXPECT_GT(rest.counts.skipped_resume, 0u);
    EXPECT_EQ(first.csv + rest.csv, full.csv);
    EXPECT_EQ(rest.checkpoint, full.checkpoint);
  }
}

TEST(StreamPipelineTest, StrictErrorsArriveAfterEveryEarlierWindow) {
  // A malformed line (a parse error) and a self-loop (a windowing error),
  // each on line 84 in window 5: windows 0-4 are observed first, and the
  // error carries its line.
  for (const std::string& bad : {std::string("3 x 5.5"),
                                 std::string("3 3 5.5")}) {
    SCOPED_TRACE(bad);
    std::vector<std::string> lines = MakeLines(false, false, 7);
    lines.insert(lines.begin() + 5 * kPerWindow + 3, bad);
    const std::string text = AsText(lines);
    ReaderPathResult piped;
    ExpectPipelineMatchesSerial(
        [&](const auto& prepare) {
          return RunSerialReference(ReaderOptions(EventErrorPolicy::kStrict),
                                    text, "", 0, prepare);
        },
        [&](const auto& prepare) {
          piped = RunReaderPath(ReaderOptions(EventErrorPolicy::kStrict), text,
                                "", 0, prepare);
          return piped;
        });
    EXPECT_EQ(piped.end, PipelineEnd::kFailed);
    EXPECT_EQ(piped.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(piped.line, 5 * kPerWindow + 4);
    EXPECT_NE(piped.message.find("line 84"), std::string::npos)
        << piped.message;
    EXPECT_EQ(piped.windows, 5u);
  }
}

TEST(StreamPipelineTest, SlowObserverMatchesSerialLoop) {
  // Each window takes the observe thread 20 ms, so the reader fills the
  // hand-off and waits on it; nothing it read ahead may show.
  const std::string text = AsText(MakeLines(true, true, 8));
  std::string timer_rows;
  ExpectPipelineMatchesSerial(
      [&](const auto& prepare) {
        return RunSerialReference(ReaderOptions(EventErrorPolicy::kSkip), text,
                                  "", 0, prepare);
      },
      [&](const auto& prepare) {
        ReaderPathResult run =
            RunReaderPath(ReaderOptions(EventErrorPolicy::kSkip), text, "", 0,
                          prepare, [] {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(20));
                          });
        std::ostringstream csv;
        CAD_CHECK(obs::WriteMetricsCsv(obs::SnapshotMetrics(), &csv).ok());
        timer_rows = csv.str();
        return run;
      });
  // The reader was blocked on a full hand-off for most of a window.
  const std::string key = "timer,stream.handoff_wait,max_ms,";
  const size_t at = timer_rows.find(key);
  ASSERT_NE(at, std::string::npos) << timer_rows;
  EXPECT_GT(std::atof(timer_rows.c_str() + at + key.size()), 1.0);
}

}  // namespace
}  // namespace cad
