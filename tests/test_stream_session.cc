// Parity of the two StreamSession front ends (src/app/stream_session.h):
// the same events through cad_stream's path (text lines, EventStreamReader,
// StreamSession) and through a server Tenant (wire events) must give
// byte-identical report rows and equal monitor checkpoints — for integer
// and named streams, strict and skip policies, fresh runs and runs resumed
// from a mid-stream checkpoint — and a checkpoint ahead of the stream must
// be an IoError on both.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/stream_session.h"
#include "common/strings.h"
#include "core/checkpoint.h"
#include "gtest/gtest.h"
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

}  // namespace
}  // namespace cad
