#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "commute/approx_commute.h"
#include "commute/solver_cache.h"
#include "core/cad_detector.h"
#include "core/online_monitor.h"

namespace cad {
namespace {

// ---------------------------------------------------------------------------
// Primitive encoding

TEST(CheckpointPrimitiveTest, ScalarsRoundTrip) {
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  writer.WriteU8(200);
  writer.WriteU32(0x12345678u);
  writer.WriteU64(0xDEADBEEFCAFEF00DULL);
  writer.WriteDouble(-0.1);
  ASSERT_TRUE(writer.Finish().ok());

  CheckpointReader reader(&buffer);
  auto u8 = reader.ReadU8();
  ASSERT_TRUE(u8.ok());
  EXPECT_EQ(*u8, 200);
  auto u32 = reader.ReadU32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0x12345678u);
  auto u64 = reader.ReadU64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0xDEADBEEFCAFEF00DULL);
  auto dbl = reader.ReadDouble();
  ASSERT_TRUE(dbl.ok());
  EXPECT_EQ(*dbl, -0.1);  // bit-exact, not approximate
}

TEST(CheckpointPrimitiveTest, EncodingIsLittleEndian) {
  // The format promises byte-identical output across hosts; pin the layout.
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  writer.WriteU32(0x12345678u);
  ASSERT_TRUE(writer.Finish().ok());
  const std::string bytes = buffer.str();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0x78);
  EXPECT_EQ(static_cast<uint8_t>(bytes[1]), 0x56);
  EXPECT_EQ(static_cast<uint8_t>(bytes[2]), 0x34);
  EXPECT_EQ(static_cast<uint8_t>(bytes[3]), 0x12);
}

TEST(CheckpointPrimitiveTest, VectorsRoundTrip) {
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  const std::vector<uint32_t> u32s = {3, 1, 4, 1, 5};
  const std::vector<size_t> sizes = {0, 9, 1ull << 40};
  const std::vector<double> doubles = {1.5, -2.25, 0.0};
  writer.WriteU32Vec(u32s);
  writer.WriteSizeVec(sizes);
  writer.WriteDoubleVec(doubles);
  ASSERT_TRUE(writer.Finish().ok());

  CheckpointReader reader(&buffer);
  auto read_u32s = reader.ReadU32Vec();
  ASSERT_TRUE(read_u32s.ok());
  EXPECT_EQ(*read_u32s, u32s);
  auto read_sizes = reader.ReadSizeVec();
  ASSERT_TRUE(read_sizes.ok());
  EXPECT_EQ(*read_sizes, sizes);
  auto read_doubles = reader.ReadDoubleVec();
  ASSERT_TRUE(read_doubles.ok());
  EXPECT_EQ(*read_doubles, doubles);
}

TEST(CheckpointPrimitiveTest, TruncationIsIoError) {
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  writer.WriteU32(7);  // 4 bytes: not enough for a u64
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto u64 = reader.ReadU64();
  ASSERT_FALSE(u64.ok());
  EXPECT_EQ(u64.status().code(), StatusCode::kIoError);
}

TEST(CheckpointPrimitiveTest, CorruptVectorLengthIsIoErrorNotBadAlloc) {
  // A huge claimed element count must surface as truncation, not as an
  // upfront allocation of the claimed size.
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  writer.WriteU64(1ull << 60);  // claimed count, no elements follow
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto values = reader.ReadDoubleVec();
  ASSERT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Composite serializers

TEST(CheckpointCompositeTest, WeightedGraphRoundTrips) {
  WeightedGraph graph(6);
  ASSERT_TRUE(graph.SetEdge(0, 1, 2.5).ok());
  ASSERT_TRUE(graph.SetEdge(2, 5, 0.125).ok());
  ASSERT_TRUE(graph.SetEdge(3, 4, 7.0).ok());
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  WriteWeightedGraph(&writer, graph);
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto restored = ReadWeightedGraph(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(*restored == graph);
}

TEST(CheckpointCompositeTest, DenseMatrixRoundTrips) {
  DenseMatrix matrix(2, 3);
  matrix(0, 0) = 1.0;
  matrix(0, 2) = -4.5;
  matrix(1, 1) = 1e-17;
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  WriteDenseMatrix(&writer, matrix);
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto restored = ReadDenseMatrix(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->rows(), 2u);
  EXPECT_EQ(restored->cols(), 3u);
  EXPECT_EQ(restored->data(), matrix.data());
}

TEST(CheckpointCompositeTest, CsrMatrixRoundTrips) {
  CooMatrix coo(3, 3);
  coo.AddSymmetric(0, 1, 2.0);
  coo.Add(2, 2, -1.5);
  const CsrMatrix matrix = coo.ToCsr();
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  WriteCsrMatrix(&writer, matrix);
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto restored = ReadCsrMatrix(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->row_offsets(), matrix.row_offsets());
  EXPECT_EQ(restored->col_indices(), matrix.col_indices());
  EXPECT_EQ(restored->values(), matrix.values());
}

TEST(CheckpointCompositeTest, CorruptCsrStructureRejected) {
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  writer.WriteU64(2);                     // rows
  writer.WriteU64(2);                     // cols
  writer.WriteSizeVec({0, 2, 1});         // offsets not sorted
  writer.WriteU32Vec({0, 1});             // col indices
  writer.WriteDoubleVec({1.0, 2.0});      // values
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto restored = ReadCsrMatrix(&reader);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointCompositeTest, TransitionScoresRoundTripRebuildsIndex) {
  TransitionScores scores;
  scores.edges = {
      ScoredEdge{NodePair{0, 1}, 5.0, 1.0, 5.0},
      ScoredEdge{NodePair{1, 2}, 3.0, -3.0, 1.0},
      ScoredEdge{NodePair{2, 3}, 0.0, 0.0, 7.0},
  };
  scores.total_score = 8.0;
  scores.node_scores = {5.0, 8.0, 3.0, 0.0};
  scores.BuildSelectionIndex();

  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  WriteTransitionScores(&writer, scores);
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto restored = ReadTransitionScores(&reader);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->edges.size(), scores.edges.size());
  for (size_t i = 0; i < scores.edges.size(); ++i) {
    EXPECT_EQ(restored->edges[i].pair, scores.edges[i].pair);
    EXPECT_EQ(restored->edges[i].score, scores.edges[i].score);
    EXPECT_EQ(restored->edges[i].weight_delta, scores.edges[i].weight_delta);
    EXPECT_EQ(restored->edges[i].commute_delta, scores.edges[i].commute_delta);
  }
  EXPECT_EQ(restored->total_score, scores.total_score);
  EXPECT_EQ(restored->node_scores, scores.node_scores);
  // The selection index is rebuilt on read, not stored.
  EXPECT_TRUE(restored->has_selection_index());
  EXPECT_EQ(restored->num_positive, scores.num_positive);
  EXPECT_EQ(restored->remaining_mass, scores.remaining_mass);
  EXPECT_EQ(restored->prefix_nodes, scores.prefix_nodes);
}

// ---------------------------------------------------------------------------
// Header validation

TEST(CheckpointHeaderTest, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOTACKPT and then some trailing garbage";
  CheckpointReader reader(&buffer);
  const Status status = reader.ExpectHeader();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointHeaderTest, UnsupportedVersionRejected) {
  std::stringstream buffer;
  buffer.write(kCheckpointMagic, kCheckpointMagicSize);
  const char version = 99;
  buffer.write(&version, 1);
  CheckpointReader reader(&buffer);
  const Status status = reader.ExpectHeader();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointHeaderTest, TruncatedHeaderIsIoError) {
  std::stringstream buffer;
  buffer << "CAD";  // shorter than the magic
  CheckpointReader reader(&buffer);
  const Status status = reader.ExpectHeader();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Monitor save/load

WeightedGraph TwoTeams(double bridge_weight) {
  WeightedGraph g(8);
  for (NodeId base : {NodeId{0}, NodeId{4}}) {
    for (NodeId a = 0; a < 4; ++a) {
      for (NodeId b = a + 1; b < 4; ++b) {
        CAD_CHECK_OK(g.SetEdge(base + a, base + b, 3.0));
      }
    }
  }
  CAD_CHECK_OK(g.SetEdge(3, 4, 0.3));
  if (bridge_weight > 0.0) CAD_CHECK_OK(g.SetEdge(0, 7, bridge_weight));
  return g;
}

std::vector<WeightedGraph> DriftingStream() {
  std::vector<WeightedGraph> stream;
  for (double w : {0.0, 0.0, 0.5, 0.0, 2.0, 0.0, 1.0, 0.0, 3.0, 0.5}) {
    stream.push_back(TwoTeams(w));
  }
  return stream;
}

void ExpectIdenticalReports(const Result<std::optional<AnomalyReport>>& lhs,
                            const Result<std::optional<AnomalyReport>>& rhs) {
  ASSERT_TRUE(lhs.ok());
  ASSERT_TRUE(rhs.ok());
  ASSERT_EQ(lhs->has_value(), rhs->has_value());
  if (!lhs->has_value()) return;
  const AnomalyReport& a = **lhs;
  const AnomalyReport& b = **rhs;
  EXPECT_EQ(a.transition, b.transition);
  EXPECT_EQ(a.nodes, b.nodes);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].pair, b.edges[i].pair);
    // Bitwise equality: the checkpoint stores IEEE-754 bit patterns and the
    // restored monitor must retrace the continued monitor exactly.
    EXPECT_EQ(a.edges[i].score, b.edges[i].score);
    EXPECT_EQ(a.edges[i].weight_delta, b.edges[i].weight_delta);
    EXPECT_EQ(a.edges[i].commute_delta, b.edges[i].commute_delta);
  }
}

// Feeds `stream` to a monitor, checkpointing after `split` snapshots;
// restores a second monitor from the checkpoint and verifies the remaining
// reports are identical to the uninterrupted run's.
void RunKillAndRestore(const OnlineMonitorOptions& options, size_t split) {
  const std::vector<WeightedGraph> stream = DriftingStream();
  ASSERT_LT(split, stream.size());

  OnlineCadMonitor continued(options);
  for (size_t t = 0; t < split; ++t) {
    ASSERT_TRUE(continued.Observe(stream[t]).ok());
  }
  std::stringstream checkpoint;
  ASSERT_TRUE(continued.SaveCheckpoint(&checkpoint).ok());

  OnlineCadMonitor restored(options);
  ASSERT_TRUE(restored.LoadCheckpoint(&checkpoint).ok());
  EXPECT_EQ(restored.num_snapshots(), continued.num_snapshots());
  EXPECT_EQ(restored.num_transitions(), continued.num_transitions());
  EXPECT_EQ(restored.current_delta(), continued.current_delta());
  EXPECT_EQ(restored.history().size(), continued.history().size());

  for (size_t t = split; t < stream.size(); ++t) {
    auto from_continued = continued.Observe(stream[t]);
    auto from_restored = restored.Observe(stream[t]);
    ExpectIdenticalReports(from_continued, from_restored);
    EXPECT_EQ(restored.current_delta(), continued.current_delta());
  }
}

TEST(MonitorCheckpointTest, KillAndRestoreExactEngine) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  options.nodes_per_transition = 2.0;
  options.warmup_transitions = 2;
  RunKillAndRestore(options, 5);
}

TEST(MonitorCheckpointTest, KillAndRestoreApproxWarmStart) {
  // Warm start is the hard case: the checkpoint must carry the solver
  // cache's embedding and IC(0) factor, or the resumed CG iterates (and so
  // the scores) diverge from the uninterrupted run.
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kApprox;
  options.detector.approx.embedding_dim = 8;
  options.detector.approx.seed = 3;
  options.detector.approx.warm_start = true;
  options.nodes_per_transition = 2.0;
  options.warmup_transitions = 2;
  RunKillAndRestore(options, 4);
}

TEST(MonitorCheckpointTest, KillAndRestoreUnderSlidingWindow) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  options.nodes_per_transition = 2.0;
  options.warmup_transitions = 2;
  options.max_history = 3;
  RunKillAndRestore(options, 6);
}

TEST(MonitorCheckpointTest, SaveBeforeAnySnapshotRestores) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor fresh(options);
  std::stringstream checkpoint;
  ASSERT_TRUE(fresh.SaveCheckpoint(&checkpoint).ok());
  OnlineCadMonitor restored(options);
  ASSERT_TRUE(restored.LoadCheckpoint(&checkpoint).ok());
  EXPECT_EQ(restored.num_snapshots(), 0u);
  EXPECT_EQ(restored.num_transitions(), 0u);
  EXPECT_EQ(restored.current_delta(), 0.0);
}

TEST(MonitorCheckpointTest, EngineMismatchRejected) {
  OnlineMonitorOptions exact_options;
  exact_options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor saver(exact_options);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(1.0)).ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(saver.SaveCheckpoint(&checkpoint).ok());

  OnlineMonitorOptions approx_options;
  approx_options.detector.engine = CommuteEngine::kApprox;
  OnlineCadMonitor loader(approx_options);
  const Status status = loader.LoadCheckpoint(&checkpoint);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // A failed load leaves the monitor untouched.
  EXPECT_EQ(loader.num_snapshots(), 0u);
}

TEST(MonitorCheckpointTest, FailedLoadLeavesMonitorUsable) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor monitor(options);
  ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());

  std::stringstream garbage;
  garbage << "definitely not a checkpoint";
  ASSERT_FALSE(monitor.LoadCheckpoint(&garbage).ok());
  EXPECT_EQ(monitor.num_snapshots(), 1u);
  ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  EXPECT_EQ(monitor.num_snapshots(), 2u);
}

TEST(MonitorCheckpointTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/monitor_ckpt_test.bin";
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor saver(options);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(2.0)).ok());
  ASSERT_TRUE(saver.SaveCheckpointFile(path).ok());

  OnlineCadMonitor restored(options);
  ASSERT_TRUE(restored.LoadCheckpointFile(path).ok());
  EXPECT_EQ(restored.num_snapshots(), 2u);
  EXPECT_EQ(restored.num_transitions(), 1u);
  EXPECT_EQ(restored.current_delta(), saver.current_delta());
  std::remove(path.c_str());
}

TEST(MonitorCheckpointTest, MissingFileIsIoError) {
  OnlineCadMonitor monitor;
  const Status status =
      monitor.LoadCheckpointFile("/nonexistent/checkpoint.bin");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Vocabulary / format versioning (DESIGN.md §8)

TEST(CheckpointPrimitiveTest, StringsRoundTrip) {
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  writer.WriteString("");
  writer.WriteString("alice");
  writer.WriteString(std::string(10000, 'x'));
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto empty = reader.ReadString();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "");
  auto alice = reader.ReadString();
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(*alice, "alice");
  auto big = reader.ReadString();
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->size(), 10000u);
}

TEST(CheckpointPrimitiveTest, CorruptStringLengthIsIoErrorNotBadAlloc) {
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  writer.WriteU64(1ull << 60);  // claimed length, no bytes follow
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto value = reader.ReadString();
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kIoError);
}

TEST(CheckpointCompositeTest, NodeVocabularyRoundTrips) {
  Result<NodeVocabulary> vocab =
      NodeVocabulary::FromNames({"alice", "bob", "carol_7"});
  ASSERT_TRUE(vocab.ok());
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  WriteNodeVocabulary(&writer, *vocab);
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  auto restored = ReadNodeVocabulary(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(*restored == *vocab);
}

TEST(CheckpointCompositeTest, CorruptVocabularyWithDuplicatesRejected) {
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  writer.WriteU64(2);
  writer.WriteString("same");
  writer.WriteString("same");
  ASSERT_TRUE(writer.Finish().ok());
  CheckpointReader reader(&buffer);
  EXPECT_FALSE(ReadNodeVocabulary(&reader).ok());
}

TEST(MonitorCheckpointTest, IntegerStreamsStillWriteVersion1) {
  // Byte-level compatibility: without a vocabulary the checkpoint must be
  // exactly the v1 format, so existing integer kill/resume byte-diffs hold.
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor monitor(options);
  ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(monitor.SaveCheckpoint(&checkpoint).ok());
  const std::string bytes = checkpoint.str();
  ASSERT_GT(bytes.size(), kCheckpointMagicSize);
  EXPECT_EQ(static_cast<uint8_t>(bytes[kCheckpointMagicSize]),
            kCheckpointVersionIntegerIds);
}

TEST(MonitorCheckpointTest, VocabularyRoundTripsThroughVersion2) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor saver(options);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(1.0)).ok());
  Result<NodeVocabulary> vocab = NodeVocabulary::FromNames(
      {"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"});
  ASSERT_TRUE(vocab.ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(saver.SaveCheckpoint(&checkpoint, &*vocab).ok());
  const std::string bytes = checkpoint.str();
  EXPECT_EQ(static_cast<uint8_t>(bytes[kCheckpointMagicSize]),
            kCheckpointVersionNamedNodes);

  OnlineCadMonitor restored(options);
  std::optional<NodeVocabulary> restored_vocab;
  ASSERT_TRUE(restored.LoadCheckpoint(&checkpoint, &restored_vocab).ok());
  ASSERT_TRUE(restored_vocab.has_value());
  EXPECT_TRUE(*restored_vocab == *vocab);
  EXPECT_EQ(restored.num_snapshots(), 2u);
}

TEST(MonitorCheckpointTest, VocabularyMayRunAheadOfSnapshot) {
  // The stream driver's vocabulary can already hold names interned from
  // open-window events past the checkpointed snapshot; that is legal. It
  // must never run behind.
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor saver(options);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  Result<NodeVocabulary> ahead = NodeVocabulary::FromNames(
      {"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "late_joiner"});
  ASSERT_TRUE(ahead.ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(saver.SaveCheckpoint(&checkpoint, &*ahead).ok());
  OnlineCadMonitor restored(options);
  std::optional<NodeVocabulary> restored_vocab;
  ASSERT_TRUE(restored.LoadCheckpoint(&checkpoint, &restored_vocab).ok());
  ASSERT_TRUE(restored_vocab.has_value());
  EXPECT_EQ(restored_vocab->size(), 9u);

  OnlineCadMonitor behind_saver(options);
  ASSERT_TRUE(behind_saver.Observe(TwoTeams(0.0)).ok());
  Result<NodeVocabulary> behind = NodeVocabulary::FromNames({"only_one"});
  ASSERT_TRUE(behind.ok());
  std::stringstream bad_checkpoint;
  ASSERT_TRUE(behind_saver.SaveCheckpoint(&bad_checkpoint, &*behind).ok());
  OnlineCadMonitor rejecting(options);
  EXPECT_FALSE(rejecting.LoadCheckpoint(&bad_checkpoint).ok());
}

// ---------------------------------------------------------------------------
// Incremental maintenance / format version 3 (DESIGN.md §12)

OnlineMonitorOptions IncrementalApproxOptions() {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kApprox;
  options.detector.approx.embedding_dim = 8;
  options.detector.approx.seed = 3;
  options.incremental = true;
  options.nodes_per_transition = 2.0;
  options.warmup_transitions = 2;
  return options;
}

TEST(MonitorCheckpointTest, KillAndRestoreIncrementalMonitor) {
  // The incremental path's cross-window state (JL right-hand-side block,
  // reuse counters, previous embedding) rides in the v3 section; a restored
  // monitor must retrace the uninterrupted run's reports byte-for-byte,
  // including which columns the residual gate reuses.
  RunKillAndRestore(IncrementalApproxOptions(), 4);
}

TEST(MonitorCheckpointTest, KillAndRestoreIncrementalAtEveryEarlySplit) {
  // Split points straddle the state's lifecycle: before any snapshot,
  // after the seeding full build, and after incremental windows.
  for (size_t split : {size_t{1}, size_t{2}, size_t{6}}) {
    RunKillAndRestore(IncrementalApproxOptions(), split);
  }
}

TEST(MonitorCheckpointTest, IncrementalMonitorWritesVersion3) {
  OnlineCadMonitor monitor(IncrementalApproxOptions());
  ASSERT_TRUE(monitor.Observe(TwoTeams(0.0)).ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(monitor.SaveCheckpoint(&checkpoint).ok());
  const std::string bytes = checkpoint.str();
  ASSERT_GT(bytes.size(), kCheckpointMagicSize);
  EXPECT_EQ(static_cast<uint8_t>(bytes[kCheckpointMagicSize]),
            kCheckpointVersionIncremental);

  // The same stream through a non-incremental monitor stays v1 — the new
  // format never leaks into existing byte-compatibility contracts.
  OnlineMonitorOptions plain = IncrementalApproxOptions();
  plain.incremental = false;
  plain.detector.approx.warm_start = true;
  OnlineCadMonitor old_style(plain);
  ASSERT_TRUE(old_style.Observe(TwoTeams(0.0)).ok());
  std::stringstream old_checkpoint;
  ASSERT_TRUE(old_style.SaveCheckpoint(&old_checkpoint).ok());
  EXPECT_EQ(static_cast<uint8_t>(old_checkpoint.str()[kCheckpointMagicSize]),
            kCheckpointVersionIntegerIds);
}

// ---------------------------------------------------------------------------
// On-disk embedding layout: the approximate engine keeps Z node-major
// (n x k), and every checkpoint version stores its embedding sections k x n.

struct EmbeddingSections {
  DenseMatrix oracle;
  DenseMatrix cache;
};

/// Decodes the previous oracle's and the solver cache's embedding sections
/// from a vocabulary-free approximate-engine checkpoint, skipping the rest.
Result<EmbeddingSections> DecodeEmbeddingSections(const std::string& bytes) {
  std::istringstream in(bytes);
  CheckpointReader reader(&in);
  CAD_RETURN_NOT_OK(reader.ExpectHeader());
  if (reader.version() >= kCheckpointVersionIncremental) {
    CAD_RETURN_NOT_OK(reader.ReadU8().status());  // vocabulary flag
  }
  CAD_RETURN_NOT_OK(reader.ReadU64().status());     // snapshots
  CAD_RETURN_NOT_OK(reader.ReadU64().status());     // transitions
  CAD_RETURN_NOT_OK(reader.ReadDouble().status());  // delta
  CAD_RETURN_NOT_OK(reader.ReadU8().status());      // has previous
  CAD_RETURN_NOT_OK(ReadWeightedGraph(&reader).status());
  CAD_RETURN_NOT_OK(reader.ReadU8().status());  // oracle tag
  EmbeddingSections sections;
  CAD_ASSIGN_OR_RETURN(sections.oracle, ReadDenseMatrix(&reader));
  // Components, volume, sentinel, use-sentinel byte, then the CG stats.
  CAD_RETURN_NOT_OK(reader.ReadU32Vec().status());
  CAD_RETURN_NOT_OK(reader.ReadU64().status());
  CAD_RETURN_NOT_OK(reader.ReadSizeVec().status());
  CAD_RETURN_NOT_OK(reader.ReadDouble().status());
  CAD_RETURN_NOT_OK(reader.ReadDouble().status());
  CAD_RETURN_NOT_OK(reader.ReadU8().status());
  for (int i = 0; i < 5; ++i) CAD_RETURN_NOT_OK(reader.ReadU64().status());
  CAD_RETURN_NOT_OK(reader.ReadDouble().status());
  uint64_t history = 0;
  CAD_ASSIGN_OR_RETURN(history, reader.ReadU64());
  for (uint64_t i = 0; i < history; ++i) {
    CAD_RETURN_NOT_OK(ReadTransitionScores(&reader).status());
  }
  uint8_t has_embedding = 0;
  CAD_ASSIGN_OR_RETURN(has_embedding, reader.ReadU8());
  if (has_embedding == 0) {
    return Status::InvalidArgument("checkpoint has no cache embedding");
  }
  CAD_ASSIGN_OR_RETURN(sections.cache, ReadDenseMatrix(&reader));
  return sections;
}

/// The oracle a monitor with `options` holds after `stream`, rebuilt
/// through the same detector calls Observe makes.
DenseMatrix ReplayOracleEmbedding(const OnlineMonitorOptions& options,
                                  const std::vector<WeightedGraph>& stream) {
  CadDetector detector(options.detector);
  CommuteSolverCache cache(options.detector.approx.refactor_threshold);
  std::optional<Snapshot> previous;
  std::unique_ptr<CommuteTimeOracle> oracle;
  for (const WeightedGraph& graph : stream) {
    const Snapshot snapshot(graph);
    Result<std::unique_ptr<CommuteTimeOracle>> built =
        options.incremental && previous.has_value()
            ? detector.BuildOracleIncremental(snapshot, *previous,
                                              oracle.get(), &cache)
            : detector.BuildOracle(snapshot, &cache);
    CAD_CHECK_OK(built.status());
    oracle = std::move(built).ValueOrDie();
    previous = snapshot;
  }
  return dynamic_cast<const ApproxCommuteEmbedding&>(*oracle).embedding();
}

TEST(CheckpointEmbeddingLayoutTest, SectionsAreTheTransposedEmbedding) {
  // k != n, so a section written without its transpose has the wrong shape.
  OnlineMonitorOptions incremental = IncrementalApproxOptions();
  incremental.detector.approx.embedding_dim = 5;
  OnlineMonitorOptions warm_start = incremental;
  warm_start.incremental = false;
  warm_start.detector.approx.warm_start = true;
  std::vector<WeightedGraph> stream = DriftingStream();
  stream.resize(4);  // no node growth
  for (const OnlineMonitorOptions& options : {warm_start, incremental}) {
    OnlineCadMonitor monitor(options);
    for (const WeightedGraph& graph : stream) {
      ASSERT_TRUE(monitor.Observe(graph).ok());
    }
    std::stringstream checkpoint;
    ASSERT_TRUE(monitor.SaveCheckpoint(&checkpoint).ok());
    const Result<EmbeddingSections> sections =
        DecodeEmbeddingSections(checkpoint.str());
    ASSERT_TRUE(sections.ok()) << sections.status();

    const DenseMatrix expected =
        ReplayOracleEmbedding(monitor.options(), stream);
    const size_t n = 8;
    const size_t k = 5;
    ASSERT_EQ(expected.rows(), n);
    ASSERT_EQ(expected.cols(), k);
    // After a window without node growth the cache holds the oracle's own
    // embedding, so both sections match it bit for bit.
    for (const DenseMatrix* section : {&sections->oracle, &sections->cache}) {
      ASSERT_EQ(section->rows(), k);
      ASSERT_EQ(section->cols(), n);
      for (size_t r = 0; r < k; ++r) {
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>((*section)(r, i)),
                    std::bit_cast<uint64_t>(expected(i, r)))
              << "r=" << r << " i=" << i;
        }
      }
    }
  }
}

TEST(MonitorCheckpointTest, PreIncrementalCheckpointLoadsIntoIncrementalMonitor) {
  // v1/v2 files predate the incremental section; loading one into an
  // incremental monitor must succeed with empty incremental state (the
  // first resumed window full-rebuilds to re-seed it).
  OnlineMonitorOptions plain = IncrementalApproxOptions();
  plain.incremental = false;
  plain.detector.approx.warm_start = true;
  OnlineCadMonitor saver(plain);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(1.0)).ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(saver.SaveCheckpoint(&checkpoint).ok());

  OnlineCadMonitor restored(IncrementalApproxOptions());
  ASSERT_TRUE(restored.LoadCheckpoint(&checkpoint).ok());
  EXPECT_EQ(restored.num_snapshots(), 2u);
  ASSERT_TRUE(restored.Observe(TwoTeams(0.5)).ok());
  ASSERT_TRUE(restored.Observe(TwoTeams(2.0)).ok());
}

TEST(MonitorCheckpointTest, TruncatedIncrementalCheckpointRejectedCleanly) {
  // Cutting the v3 stream anywhere — including inside the incremental
  // section — must be reported as IoError with the monitor left untouched
  // and usable, never partially restored.
  OnlineCadMonitor saver(IncrementalApproxOptions());
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(1.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(0.5)).ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(saver.SaveCheckpoint(&checkpoint).ok());
  const std::string bytes = checkpoint.str();

  for (size_t keep : {bytes.size() - 1, bytes.size() - 9,
                      bytes.size() * 3 / 4, bytes.size() / 2}) {
    std::stringstream truncated(bytes.substr(0, keep));
    OnlineCadMonitor loader(IncrementalApproxOptions());
    ASSERT_TRUE(loader.Observe(TwoTeams(0.0)).ok());
    const Status status = loader.LoadCheckpoint(&truncated);
    ASSERT_FALSE(status.ok()) << "keep=" << keep;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << "keep=" << keep;
    EXPECT_EQ(loader.num_snapshots(), 1u);
    ASSERT_TRUE(loader.Observe(TwoTeams(1.0)).ok());
  }
}

TEST(MonitorCheckpointTest, Version1CheckpointStillLoads) {
  // Forward compatibility with pre-vocabulary checkpoints: a v1 byte stream
  // (which is exactly what a vocabulary-less monitor writes) must load into
  // the current code with no vocabulary attached.
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor saver(options);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(2.0)).ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(saver.SaveCheckpoint(&checkpoint).ok());

  OnlineCadMonitor restored(options);
  std::optional<NodeVocabulary> restored_vocab;
  ASSERT_TRUE(restored.LoadCheckpoint(&checkpoint, &restored_vocab).ok());
  EXPECT_FALSE(restored_vocab.has_value());
  EXPECT_EQ(restored.num_snapshots(), 2u);
  EXPECT_EQ(restored.current_delta(), saver.current_delta());
}

// ---------------------------------------------------------------------------
// Atomic file replacement (WriteFileAtomic / SaveCheckpointFile)

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool PathExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.is_open();
}

TEST(AtomicSaveTest, WriterFailureLeavesTargetUntouchedAndNoTempBehind) {
  const std::string path = ::testing::TempDir() + "/atomic_fail.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(WriteFileAtomic(path, [](std::ostream* out) {
                *out << "good bytes";
                return Status::OK();
              }).ok());
  EXPECT_EQ(SlurpFile(path), "good bytes");

  const Status failed = WriteFileAtomic(path, [](std::ostream* out) {
    *out << "half-writ";
    return Status::IoError("simulated mid-write failure");
  });
  ASSERT_FALSE(failed.ok());
  // The previous contents survive and the temp file is cleaned up.
  EXPECT_EQ(SlurpFile(path), "good bytes");
  EXPECT_FALSE(PathExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicSaveTest, KillMidWriteLeavesOldCheckpointLoadable) {
  // A crash between opening <path>.tmp and the rename leaves a stray or
  // truncated temp file next to an intact checkpoint. Loading must see only
  // the intact file, and the next save must replace the stray temp.
  const std::string path = ::testing::TempDir() + "/atomic_kill.bin";
  std::remove(path.c_str());
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor saver(options);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(2.0)).ok());
  ASSERT_TRUE(saver.SaveCheckpointFile(path).ok());

  {  // Plant the debris a kill -9 mid-write would leave.
    std::ofstream stray(path + ".tmp", std::ios::binary | std::ios::trunc);
    stray << "CADCKPT";  // valid magic, then nothing: a truncated write
  }
  OnlineCadMonitor restored(options);
  ASSERT_TRUE(restored.LoadCheckpointFile(path).ok());
  EXPECT_EQ(restored.num_snapshots(), 2u);
  EXPECT_EQ(restored.current_delta(), saver.current_delta());

  // The next interval checkpoint replaces both the target and the debris.
  ASSERT_TRUE(saver.Observe(TwoTeams(1.0)).ok());
  ASSERT_TRUE(saver.SaveCheckpointFile(path).ok());
  EXPECT_FALSE(PathExists(path + ".tmp"));
  OnlineCadMonitor latest(options);
  ASSERT_TRUE(latest.LoadCheckpointFile(path).ok());
  EXPECT_EQ(latest.num_snapshots(), 3u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Cross-field consistency (corrupt or hand-edited checkpoints)

TEST(MonitorCheckpointTest, InconsistentTransitionCountRejected) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor saver(options);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(2.0)).ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(saver.SaveCheckpoint(&checkpoint).ok());
  std::string bytes = checkpoint.str();
  ASSERT_EQ(static_cast<uint8_t>(bytes[7]), kCheckpointVersionIntegerIds);

  // v1 layout: magic(7) version(1) snapshots(u64 at 8) transitions(u64 at
  // 16). Bump the transition count so it no longer equals snapshots - 1.
  bytes[16] = static_cast<char>(static_cast<uint8_t>(bytes[16]) + 1);
  std::stringstream corrupted(bytes);
  OnlineCadMonitor loader(options);
  const Status status = loader.LoadCheckpoint(&corrupted);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loader.num_snapshots(), 0u);
}

TEST(MonitorCheckpointTest, InconsistentPresenceByteRejected) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor saver(options);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(2.0)).ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(saver.SaveCheckpoint(&checkpoint).ok());
  std::string bytes = checkpoint.str();
  ASSERT_EQ(static_cast<uint8_t>(bytes[7]), kCheckpointVersionIntegerIds);

  // v1 layout: the previous-snapshot presence byte sits at offset 32 (after
  // snapshots, transitions, and the delta double). Claiming "no previous
  // snapshot" with 2 observed snapshots is self-contradictory.
  ASSERT_EQ(static_cast<uint8_t>(bytes[32]), 1u);
  bytes[32] = 0;
  std::stringstream corrupted(bytes);
  OnlineCadMonitor loader(options);
  const Status status = loader.LoadCheckpoint(&corrupted);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loader.num_snapshots(), 0u);
}

// ---------------------------------------------------------------------------
// Graph section validation: a section WriteWeightedGraph cannot have written
// loads as a Status, never as a silently different graph or a crash.

struct RawEdge {
  uint32_t u;
  uint32_t v;
  double weight;
};

Result<Snapshot> ReadCraftedSection(uint64_t num_nodes, uint64_t num_edges,
                                    const std::vector<RawEdge>& edges) {
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  writer.WriteU64(num_nodes);
  writer.WriteU64(num_edges);
  for (const RawEdge& edge : edges) {
    writer.WriteU32(edge.u);
    writer.WriteU32(edge.v);
    writer.WriteDouble(edge.weight);
  }
  CAD_CHECK_OK(writer.Finish());
  CheckpointReader reader(&buffer);
  return ReadWeightedGraph(&reader);
}

void ExpectInvalidSection(uint64_t num_nodes,
                          const std::vector<RawEdge>& edges) {
  const Result<Snapshot> read =
      ReadCraftedSection(num_nodes, edges.size(), edges);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument)
      << read.status().ToString();
}

TEST(CheckpointGraphSectionTest, ValidSectionLoadsWithSortedOrderSums) {
  const Result<Snapshot> read =
      ReadCraftedSection(5, 3, {{0, 3, 0.1}, {1, 3, 0.2}, {3, 4, 0.3}});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->num_nodes(), 5u);
  ASSERT_EQ(read->num_edges(), 3u);
  EXPECT_EQ(read->weighted_degrees()[3], (0.1 + 0.2) + 0.3);
  EXPECT_EQ(read->volume(), 2.0 * ((0.1 + 0.2) + 0.3));
}

TEST(CheckpointGraphSectionTest, DuplicatedPairRejected) {
  ExpectInvalidSection(4, {{0, 1, 1.0}, {0, 1, 2.0}});
}

TEST(CheckpointGraphSectionTest, DescendingPairsRejected) {
  ExpectInvalidSection(4, {{1, 2, 1.0}, {0, 3, 1.0}});
  ExpectInvalidSection(4, {{0, 3, 1.0}, {0, 2, 1.0}});
}

TEST(CheckpointGraphSectionTest, NonCanonicalPairsRejected) {
  ExpectInvalidSection(4, {{2, 1, 1.0}});
  ExpectInvalidSection(4, {{2, 2, 1.0}});
}

TEST(CheckpointGraphSectionTest, EndpointBeyondNodeCountRejected) {
  ExpectInvalidSection(4, {{0, 4, 1.0}});
  ExpectInvalidSection(0, {{0, 1, 1.0}});
}

TEST(CheckpointGraphSectionTest, NonPositiveOrNonFiniteWeightRejected) {
  for (const double weight :
       {0.0, -0.0, -1.5, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    ExpectInvalidSection(4, {{0, 1, 1.0}, {1, 2, weight}});
  }
}

TEST(CheckpointGraphSectionTest, FewerEdgesThanDeclaredIsTruncation) {
  const Result<Snapshot> read = ReadCraftedSection(4, 3, {{0, 1, 1.0}});
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

// A monitor checkpoint whose graph section has been edited is rejected and
// leaves the loading monitor untouched. v1 layout: the section starts at
// offset 33 with num_nodes (u64), then num_edges (u64), then 16-byte edges
// (u32 u, u32 v, f64 weight) from offset 49.
void ExpectCorruptedSectionRejected(
    const std::function<void(std::string*)>& corrupt) {
  OnlineMonitorOptions options;
  options.detector.engine = CommuteEngine::kExact;
  OnlineCadMonitor saver(options);
  ASSERT_TRUE(saver.Observe(TwoTeams(0.0)).ok());
  ASSERT_TRUE(saver.Observe(TwoTeams(2.0)).ok());
  std::stringstream checkpoint;
  ASSERT_TRUE(saver.SaveCheckpoint(&checkpoint).ok());
  std::string bytes = checkpoint.str();
  ASSERT_EQ(static_cast<uint8_t>(bytes[7]), kCheckpointVersionIntegerIds);
  corrupt(&bytes);
  std::stringstream corrupted(bytes);
  OnlineCadMonitor loader(options);
  const Status status = loader.LoadCheckpoint(&corrupted);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(loader.num_snapshots(), 0u);
}

TEST(CheckpointGraphSectionTest, MonitorRejectsZeroedWeight) {
  ExpectCorruptedSectionRejected([](std::string* bytes) {
    for (size_t i = 49 + 8; i < 49 + 16; ++i) (*bytes)[i] = 0;
  });
}

TEST(CheckpointGraphSectionTest, MonitorRejectsDuplicatedPair) {
  ExpectCorruptedSectionRejected([](std::string* bytes) {
    for (size_t i = 0; i < 8; ++i) (*bytes)[49 + 16 + i] = (*bytes)[49 + i];
  });
}

TEST(CheckpointGraphSectionTest, MonitorRejectsHugeNodeCountBeforeSizing) {
  ExpectCorruptedSectionRejected([](std::string* bytes) {
    (*bytes)[33 + 5] = 1;  // num_nodes += 2^40
  });
}

// ---------------------------------------------------------------------------
// Buffered writer

// The format's byte composition written out directly, one field at a time:
// what CheckpointWriter must emit however it batches its stream writes.
class PerFieldEncoding {
 public:
  void U8(uint8_t value) { bytes_.push_back(static_cast<char>(value)); }
  void U32(uint32_t value) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(value >> (8 * i)));
  }
  void U64(uint64_t value) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(value >> (8 * i)));
  }
  void Bytes(const std::string& value) { bytes_ += value; }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

// Writes exactly `size` payload bytes as a deterministic mix of field
// widths (so field boundaries land at every offset around the buffer edge)
// to both the writer and the per-field encoding.
void WriteMixedPayload(size_t size, CheckpointWriter* writer,
                       PerFieldEncoding* expected) {
  size_t written = 0;
  for (uint64_t i = 0; written < size; ++i) {
    const size_t left = size - written;
    const uint64_t value = i * 0x9E3779B97F4A7C15ULL;
    if (i % 7 == 6 && left >= 1000) {
      const std::string blob(300 + i % 700, static_cast<char>('a' + i % 26));
      writer->WriteBytes(blob.data(), blob.size());
      expected->Bytes(blob);
      written += blob.size();
    } else if (i % 3 == 0 && left >= 8) {
      writer->WriteDouble(std::bit_cast<double>(value));
      expected->U64(value);
      written += 8;
    } else if (i % 3 == 1 && left >= 4) {
      writer->WriteU32(static_cast<uint32_t>(value));
      expected->U32(static_cast<uint32_t>(value));
      written += 4;
    } else {
      writer->WriteU8(static_cast<uint8_t>(value));
      expected->U8(static_cast<uint8_t>(value));
      written += 1;
    }
  }
}

constexpr size_t kBuffer = CheckpointWriter::kBufferBytes;
const size_t kPayloadSizes[] = {0,           1,           kBuffer - 1,
                                kBuffer,     kBuffer + 1, 3 * kBuffer + 5,
                                (size_t{5} << 20) + 3};

TEST(CheckpointWriterTest, BufferedBytesEqualPerFieldEncoding) {
  for (size_t size : kPayloadSizes) {
    SCOPED_TRACE("payload of " + std::to_string(size) + " bytes");
    std::ostringstream out;
    CheckpointWriter writer(&out);
    PerFieldEncoding expected;
    WriteMixedPayload(size, &writer, &expected);
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_EQ(out.str().size(), size);
    EXPECT_TRUE(out.str() == expected.bytes());
  }
}

TEST(CheckpointWriterTest, SingleBlobsAroundTheBufferSize) {
  // One WriteString per payload, behind a partly filled buffer: blobs that
  // overflow it bypass it, and the bytes stay in order.
  for (size_t size : kPayloadSizes) {
    SCOPED_TRACE("blob of " + std::to_string(size) + " bytes");
    const std::string blob(size, 'z');
    std::ostringstream out;
    CheckpointWriter writer(&out);
    writer.WriteU8(7);
    writer.WriteString(blob);
    writer.WriteU32(0xA1B2C3D4u);
    ASSERT_TRUE(writer.Finish().ok());
    PerFieldEncoding expected;
    expected.U8(7);
    expected.U64(size);
    expected.Bytes(blob);
    expected.U32(0xA1B2C3D4u);
    EXPECT_TRUE(out.str() == expected.bytes());
  }
}

// Counts the stream writes the writer issues.
class CountingBuffer : public std::stringbuf {
 public:
  size_t writes() const { return writes_; }

 protected:
  std::streamsize xsputn(const char* data, std::streamsize size) override {
    ++writes_;
    return std::stringbuf::xsputn(data, size);
  }

 private:
  size_t writes_ = 0;
};

TEST(CheckpointWriterTest, StreamWritesAreBufferSized) {
  CountingBuffer buffer;
  std::ostream out(&buffer);
  CheckpointWriter writer(&out);
  PerFieldEncoding expected;
  const size_t size = size_t{2} << 20;
  WriteMixedPayload(size, &writer, &expected);
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_TRUE(buffer.str() == expected.bytes());
  // Every flush but the last hands over more than kBuffer - 1000 bytes
  // (the largest field is a sub-1000-byte blob).
  EXPECT_LE(buffer.writes(), size / (kBuffer - 1000) + 1);
}

// A stream device that accepts nothing.
class RejectingBuffer : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

TEST(CheckpointWriterTest, FinishReportsRejectedWrites) {
  for (size_t size : {size_t{1}, kBuffer + 1, size_t{1} << 20}) {
    SCOPED_TRACE("payload of " + std::to_string(size) + " bytes");
    RejectingBuffer device;
    std::ostream out(&device);
    CheckpointWriter writer(&out);
    PerFieldEncoding unused;
    WriteMixedPayload(size, &writer, &unused);
    const Status finished = writer.Finish();
    ASSERT_FALSE(finished.ok());
    EXPECT_EQ(finished.code(), StatusCode::kIoError);
  }
}

TEST(CheckpointWriterTest, MonitorCheckpointIntoRejectingStreamIsIoError) {
  OnlineCadMonitor monitor;
  RejectingBuffer device;
  std::ostream out(&device);
  const Status saved = monitor.SaveCheckpoint(&out);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kIoError);
}

TEST(CheckpointWriterTest, VectorsEqualPerFieldEncoding) {
  // Vectors may be written as one block where the host's memory already is
  // their encoding; the bytes must be the per-element ones either way, for
  // vectors below and above the buffer size.
  for (size_t count : {size_t{0}, size_t{3}, kBuffer / 8 + 5, kBuffer + 1}) {
    SCOPED_TRACE(std::to_string(count) + " elements");
    std::vector<uint32_t> u32s(count);
    std::vector<uint64_t> u64s(count);
    std::vector<size_t> sizes(count);
    std::vector<double> doubles(count);
    PerFieldEncoding expected;
    const auto counted = [&](size_t n) { expected.U64(n); };
    for (size_t i = 0; i < count; ++i) {
      const uint64_t value = (i + 1) * 0x9E3779B97F4A7C15ULL;
      u32s[i] = static_cast<uint32_t>(value >> 7);
      u64s[i] = value;
      sizes[i] = static_cast<size_t>(value >> 3);
      doubles[i] = std::bit_cast<double>(value ^ 0x5555);
    }
    std::ostringstream out;
    CheckpointWriter writer(&out);
    writer.WriteU8(9);  // misaligns the vectors within the buffer
    expected.U8(9);
    writer.WriteU32Vec(u32s);
    counted(count);
    for (uint32_t value : u32s) expected.U32(value);
    writer.WriteU64Vec(u64s);
    counted(count);
    for (uint64_t value : u64s) expected.U64(value);
    writer.WriteSizeVec(sizes);
    counted(count);
    for (size_t value : sizes) expected.U64(value);
    writer.WriteDoubleVec(doubles);
    counted(count);
    for (double value : doubles) expected.U64(std::bit_cast<uint64_t>(value));
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_TRUE(out.str() == expected.bytes());
  }
}

// ---------------------------------------------------------------------------
// Crafted section headers: shapes that do not match their data, element
// counts that wrap in 64 bits, and labels out of range must load as a
// Status through LoadCheckpoint, never as a matrix without data or a crash.

constexpr uint64_t k2To32 = uint64_t{1} << 32;
// The format's oracle tags.
constexpr uint8_t kExactTag = 1;
constexpr uint8_t kApproxTag = 2;

/// A v3 checkpoint prefix up to the previous-snapshot presence byte.
void WriteCraftedPrefix(CheckpointWriter* writer, bool has_previous) {
  writer->WriteBytes(kCheckpointMagic, kCheckpointMagicSize);
  writer->WriteU8(kCheckpointVersionIncremental);
  writer->WriteU8(0);  // no vocabulary
  writer->WriteU64(has_previous ? 1 : 0);  // snapshots
  writer->WriteU64(0);                     // transitions
  writer->WriteDouble(0.0);                // delta
  writer->WriteU8(has_previous ? 1 : 0);
}

/// A two-node, one-edge previous snapshot followed by an oracle tag.
void WriteCraftedPrevious(CheckpointWriter* writer, uint8_t oracle_tag) {
  writer->WriteU64(2);
  writer->WriteU64(1);
  writer->WriteU32(0);
  writer->WriteU32(1);
  writer->WriteDouble(1.0);
  writer->WriteU8(oracle_tag);
}

void WriteDenseHeader(CheckpointWriter* writer, uint64_t rows, uint64_t cols,
                      const std::vector<double>& data) {
  writer->WriteU64(rows);
  writer->WriteU64(cols);
  writer->WriteDoubleVec(data);
}

/// The rest of a v3 checkpoint with no previous snapshot: an empty history
/// and the solver-cache sections, each crafted by its hook (or absent).
void WriteCraftedCache(
    CheckpointWriter* writer,
    const std::function<void(CheckpointWriter*)>& embedding,
    const std::function<void(CheckpointWriter*)>& factor,
    const std::function<void(CheckpointWriter*)>& rhs) {
  writer->WriteU64(0);  // history
  writer->WriteU8(embedding ? 1 : 0);
  if (embedding) embedding(writer);
  writer->WriteU8(factor ? 1 : 0);
  if (factor) {
    factor(writer);
    writer->WriteDouble(0.0);  // shift
  }
  writer->WriteDoubleVec({});  // factor diagonal
  writer->WriteU64(0);
  writer->WriteU64(0);
  writer->WriteDouble(0.0);
  writer->WriteU8(rhs ? 1 : 0);
  if (rhs) rhs(writer);
  for (int i = 0; i < 3; ++i) writer->WriteU64(0);
  writer->WriteDouble(0.0);
  writer->WriteDouble(0.0);
  writer->WriteU64(0);
  writer->WriteU64(0);
}

Status LoadCrafted(CommuteEngine engine,
                   const std::function<void(CheckpointWriter*)>& write) {
  std::stringstream buffer;
  CheckpointWriter writer(&buffer);
  write(&writer);
  CAD_CHECK_OK(writer.Finish());
  OnlineMonitorOptions options;
  options.detector.engine = engine;
  OnlineCadMonitor monitor(options);
  return monitor.LoadCheckpoint(&buffer);
}

void ExpectRejected(const Status& loaded) {
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument) << loaded.ToString();
}

TEST(CheckpointCraftedHeaderTest, WrappingExactOracleShapeRejected) {
  ExpectRejected(LoadCrafted(CommuteEngine::kExact, [](CheckpointWriter* w) {
    WriteCraftedPrefix(w, true);
    WriteCraftedPrevious(w, kExactTag);
    WriteDenseHeader(w, k2To32, k2To32, {});
  }));
}

TEST(CheckpointCraftedHeaderTest, NonSquareExactOracleRejected) {
  ExpectRejected(LoadCrafted(CommuteEngine::kExact, [](CheckpointWriter* w) {
    WriteCraftedPrefix(w, true);
    WriteCraftedPrevious(w, kExactTag);
    WriteDenseHeader(w, 2, 1, {0.5, -0.5});
  }));
}

TEST(CheckpointCraftedHeaderTest, WrappingApproxOracleShapeRejected) {
  ExpectRejected(LoadCrafted(CommuteEngine::kApprox, [](CheckpointWriter* w) {
    WriteCraftedPrefix(w, true);
    WriteCraftedPrevious(w, kApproxTag);
    WriteDenseHeader(w, k2To32, k2To32, {});
  }));
}

TEST(CheckpointCraftedHeaderTest, ComponentLabelOutOfRangeRejected) {
  for (const std::vector<size_t>& sizes :
       {std::vector<size_t>{2}, std::vector<size_t>{1, 2}}) {
    ExpectRejected(LoadCrafted(CommuteEngine::kApprox, [&](CheckpointWriter* w) {
      WriteCraftedPrefix(w, true);
      WriteCraftedPrevious(w, kApproxTag);
      WriteDenseHeader(w, 1, 2, {0.5, -0.5});
      w->WriteU32Vec({0, 7});  // labels: 7 has no size entry
      w->WriteU64(sizes.size());
      w->WriteSizeVec(sizes);
    }));
  }
}

TEST(CheckpointCraftedHeaderTest, WrappingCacheEmbeddingShapeRejected) {
  ExpectRejected(LoadCrafted(CommuteEngine::kApprox, [](CheckpointWriter* w) {
    WriteCraftedPrefix(w, false);
    WriteCraftedCache(
        w, [](CheckpointWriter* c) { WriteDenseHeader(c, k2To32, k2To32, {}); },
        nullptr, nullptr);
  }));
}

TEST(CheckpointCraftedHeaderTest, WrappingIcFactorShapeRejected) {
  // rows + 1 wraps to 0 for rows = 2^64 - 1, matching an empty offsets
  // vector; a factor whose offsets do not start at 0 is rejected too.
  for (const std::vector<size_t>& offsets :
       {std::vector<size_t>{}, std::vector<size_t>{1, 1}}) {
    const uint64_t rows = offsets.empty()
                              ? std::numeric_limits<uint64_t>::max()
                              : offsets.size() - 1;
    ExpectRejected(LoadCrafted(CommuteEngine::kApprox, [&](CheckpointWriter* w) {
      WriteCraftedPrefix(w, false);
      WriteCraftedCache(
          w, nullptr,
          [&](CheckpointWriter* c) {
            c->WriteU64(rows);
            c->WriteU64(rows);
            c->WriteSizeVec(offsets);
            c->WriteU32Vec({});
            c->WriteDoubleVec({});
          },
          nullptr);
    }));
  }
}

TEST(CheckpointCraftedHeaderTest, NonSquareIcFactorRejectedBeforeTranspose) {
  // The loader rebuilds the factor's transpose, whose offsets are sized by
  // the column count, so a huge declared width must be rejected first.
  ExpectRejected(LoadCrafted(CommuteEngine::kApprox, [](CheckpointWriter* w) {
    WriteCraftedPrefix(w, false);
    WriteCraftedCache(
        w, nullptr,
        [](CheckpointWriter* c) {
          c->WriteU64(1);
          c->WriteU64(std::numeric_limits<uint64_t>::max() / 2);
          c->WriteSizeVec({0, 0});
          c->WriteU32Vec({});
          c->WriteDoubleVec({});
        },
        nullptr);
  }));
}

TEST(CheckpointCraftedHeaderTest, WrappingIncrementalRhsShapeRejected) {
  ExpectRejected(LoadCrafted(CommuteEngine::kApprox, [](CheckpointWriter* w) {
    WriteCraftedPrefix(w, false);
    WriteCraftedCache(w, nullptr, nullptr, [](CheckpointWriter* c) {
      WriteDenseHeader(c, k2To32, k2To32, {});
    });
  }));
}

TEST(CheckpointCraftedHeaderTest, WellFormedCraftedCheckpointLoads) {
  // The crafted layout itself is sound: with consistent shapes it loads.
  const Status loaded =
      LoadCrafted(CommuteEngine::kApprox, [](CheckpointWriter* w) {
        WriteCraftedPrefix(w, false);
        WriteCraftedCache(
            w, [](CheckpointWriter* c) { WriteDenseHeader(c, 1, 2, {1, 2}); },
            nullptr,
            [](CheckpointWriter* c) { WriteDenseHeader(c, 2, 1, {3, 4}); });
      });
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
}

}  // namespace
}  // namespace cad
