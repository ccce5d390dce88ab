#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <utility>

#include "commute/approx_commute.h"
#include "commute/exact_commute.h"
#include "commute/solver_cache.h"
#include "core/online_monitor.h"
#include "graph/components.h"
#include "linalg/incomplete_cholesky.h"

namespace cad {

namespace {

// Oracle discriminator in the previous-oracle section.
constexpr uint8_t kOracleExact = 1;
constexpr uint8_t kOracleApprox = 2;

// Upper bound on speculative vector reserves while reading: a corrupt
// length fails on its first missing element instead of allocating first.
constexpr uint64_t kReserveCap = uint64_t{1} << 20;

Status Truncated() { return Status::IoError("checkpoint truncated"); }

// The tail both oracle sections share: the component labeling, the volume,
// the sentinel and the use-sentinel byte. `Oracle` is ExactCommuteTime or
// ApproxCommuteEmbedding.
template <typename Oracle>
void WriteOracleTail(CheckpointWriter* writer, const Oracle& oracle) {
  const ComponentLabeling& components = oracle.components();
  writer->WriteU32Vec(components.component);
  writer->WriteU64(components.num_components);
  writer->WriteSizeVec(components.sizes);
  writer->WriteDouble(oracle.volume());
  writer->WriteDouble(oracle.sentinel());
  writer->WriteU8(oracle.use_sentinel() ? 1 : 0);
}

struct OracleTail {
  ComponentLabeling components;
  double volume = 0.0;
  double sentinel = 0.0;
  bool use_sentinel = false;
};

Result<OracleTail> ReadOracleTail(CheckpointReader* reader) {
  OracleTail tail;
  ComponentLabeling& components = tail.components;
  CAD_ASSIGN_OR_RETURN(components.component, reader->ReadU32Vec());
  uint64_t num_components = 0;
  CAD_ASSIGN_OR_RETURN(num_components, reader->ReadU64());
  components.num_components = static_cast<size_t>(num_components);
  CAD_ASSIGN_OR_RETURN(components.sizes, reader->ReadSizeVec());
  if (components.sizes.size() != num_components) {
    return Status::InvalidArgument(
        "checkpoint: component labeling sizes mismatch");
  }
  // Labels index the size table; each size must count its labels.
  std::vector<size_t> counted(components.sizes.size(), 0);
  for (uint32_t label : components.component) {
    if (label >= counted.size()) {
      return Status::InvalidArgument(
          "checkpoint: component label out of range");
    }
    ++counted[label];
  }
  if (counted != components.sizes) {
    return Status::InvalidArgument(
        "checkpoint: component sizes do not match the labels");
  }
  CAD_ASSIGN_OR_RETURN(tail.volume, reader->ReadDouble());
  CAD_ASSIGN_OR_RETURN(tail.sentinel, reader->ReadDouble());
  uint8_t use_sentinel = 0;
  CAD_ASSIGN_OR_RETURN(use_sentinel, reader->ReadU8());
  tail.use_sentinel = use_sentinel != 0;
  return tail;
}

void WriteCgStats(CheckpointWriter* writer, const CgBatchStats& stats) {
  writer->WriteU64(stats.num_systems);
  writer->WriteU64(stats.num_converged);
  writer->WriteU64(stats.min_iterations);
  writer->WriteU64(stats.max_iterations);
  writer->WriteU64(stats.total_iterations);
  writer->WriteDouble(stats.max_relative_residual);
}

Result<CgBatchStats> ReadCgStats(CheckpointReader* reader) {
  CgBatchStats stats;
  uint64_t value = 0;
  CAD_ASSIGN_OR_RETURN(value, reader->ReadU64());
  stats.num_systems = static_cast<size_t>(value);
  CAD_ASSIGN_OR_RETURN(value, reader->ReadU64());
  stats.num_converged = static_cast<size_t>(value);
  CAD_ASSIGN_OR_RETURN(value, reader->ReadU64());
  stats.min_iterations = static_cast<size_t>(value);
  CAD_ASSIGN_OR_RETURN(value, reader->ReadU64());
  stats.max_iterations = static_cast<size_t>(value);
  CAD_ASSIGN_OR_RETURN(value, reader->ReadU64());
  stats.total_iterations = static_cast<size_t>(value);
  CAD_ASSIGN_OR_RETURN(stats.max_relative_residual, reader->ReadDouble());
  return stats;
}

}  // namespace

CheckpointWriter::CheckpointWriter(std::ostream* out) : out_(out) {
  CAD_CHECK(out != nullptr);
}

void CheckpointWriter::Flush() {
  if (buffer_.empty()) return;
  out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void CheckpointWriter::WriteBytes(const char* data, size_t size) {
  if (buffer_.size() + size > kBufferBytes) {
    Flush();
    if (size >= kBufferBytes) {
      // Larger than the buffer: copying it through would gain nothing.
      out_->write(data, static_cast<std::streamsize>(size));
      return;
    }
  }
  buffer_.append(data, size);
}

template <typename Wire, typename T>
bool CheckpointWriter::WriteAsBlock(const std::vector<T>& values) {
  // Each element is encoded little-endian at the width of `Wire`; on a
  // little-endian host whose element has that width, that is the vector's
  // memory as it stands.
  constexpr bool kMemoryIsEncoding =
      std::endian::native == std::endian::little &&
      sizeof(T) == sizeof(Wire);
  if constexpr (!kMemoryIsEncoding) {
    return false;
  } else {
    WriteBytes(reinterpret_cast<const char*>(values.data()),
               values.size() * sizeof(T));
    return true;
  }
}

void CheckpointWriter::WriteU8(uint8_t value) {
  const char byte = static_cast<char>(value);
  WriteBytes(&byte, 1);
}

void CheckpointWriter::WriteU32(uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  WriteBytes(bytes, sizeof(bytes));
}

void CheckpointWriter::WriteU64(uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  WriteBytes(bytes, sizeof(bytes));
}

void CheckpointWriter::WriteDouble(double value) {
  WriteU64(std::bit_cast<uint64_t>(value));
}

void CheckpointWriter::WriteU32Vec(const std::vector<uint32_t>& values) {
  WriteU64(values.size());
  if (!WriteAsBlock<uint32_t>(values)) {
    for (uint32_t value : values) WriteU32(value);
  }
}

void CheckpointWriter::WriteU64Vec(const std::vector<uint64_t>& values) {
  WriteU64(values.size());
  if (!WriteAsBlock<uint64_t>(values)) {
    for (uint64_t value : values) WriteU64(value);
  }
}

void CheckpointWriter::WriteSizeVec(const std::vector<size_t>& values) {
  WriteU64(values.size());
  if (!WriteAsBlock<uint64_t>(values)) {
    for (size_t value : values) WriteU64(value);
  }
}

void CheckpointWriter::WriteString(std::string_view value) {
  WriteU64(value.size());
  WriteBytes(value.data(), value.size());
}

void CheckpointWriter::WriteDoubleVec(const std::vector<double>& values) {
  WriteU64(values.size());
  if (!WriteAsBlock<uint64_t>(values)) {
    for (double value : values) WriteDouble(value);
  }
}

Status CheckpointWriter::Finish() {
  Flush();
  if (!out_->good()) {
    return Status::IoError("checkpoint write failed");
  }
  return Status::OK();
}

CheckpointReader::CheckpointReader(std::istream* in) : in_(in) {
  CAD_CHECK(in != nullptr);
}

Result<uint8_t> CheckpointReader::ReadU8() {
  char byte = 0;
  if (!in_->read(&byte, 1)) return Truncated();
  return static_cast<uint8_t>(byte);
}

Result<uint32_t> CheckpointReader::ReadU32() {
  char bytes[4];
  if (!in_->read(bytes, sizeof(bytes))) return Truncated();
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

Result<uint64_t> CheckpointReader::ReadU64() {
  char bytes[8];
  if (!in_->read(bytes, sizeof(bytes))) return Truncated();
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

Result<double> CheckpointReader::ReadDouble() {
  uint64_t bits = 0;
  CAD_ASSIGN_OR_RETURN(bits, ReadU64());
  return std::bit_cast<double>(bits);
}

Result<std::vector<uint32_t>> CheckpointReader::ReadU32Vec() {
  uint64_t count = 0;
  CAD_ASSIGN_OR_RETURN(count, ReadU64());
  std::vector<uint32_t> values;
  values.reserve(static_cast<size_t>(std::min(count, kReserveCap)));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t value = 0;
    CAD_ASSIGN_OR_RETURN(value, ReadU32());
    values.push_back(value);
  }
  return values;
}

Result<std::vector<size_t>> CheckpointReader::ReadSizeVec() {
  uint64_t count = 0;
  CAD_ASSIGN_OR_RETURN(count, ReadU64());
  std::vector<size_t> values;
  values.reserve(static_cast<size_t>(std::min(count, kReserveCap)));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t value = 0;
    CAD_ASSIGN_OR_RETURN(value, ReadU64());
    values.push_back(static_cast<size_t>(value));
  }
  return values;
}

Result<std::vector<double>> CheckpointReader::ReadDoubleVec() {
  uint64_t count = 0;
  CAD_ASSIGN_OR_RETURN(count, ReadU64());
  std::vector<double> values;
  values.reserve(static_cast<size_t>(std::min(count, kReserveCap)));
  for (uint64_t i = 0; i < count; ++i) {
    double value = 0.0;
    CAD_ASSIGN_OR_RETURN(value, ReadDouble());
    values.push_back(value);
  }
  return values;
}

Result<std::string> CheckpointReader::ReadString() {
  uint64_t size = 0;
  CAD_ASSIGN_OR_RETURN(size, ReadU64());
  std::string value;
  value.reserve(static_cast<size_t>(std::min(size, kReserveCap)));
  // Incremental chunked read: a corrupt length fails at the first missing
  // byte instead of allocating `size` upfront.
  char chunk[4096];
  uint64_t remaining = size;
  while (remaining > 0) {
    const auto take =
        static_cast<std::streamsize>(std::min<uint64_t>(remaining, sizeof(chunk)));
    if (!in_->read(chunk, take)) return Truncated();
    value.append(chunk, static_cast<size_t>(take));
    remaining -= static_cast<uint64_t>(take);
  }
  return value;
}

Status CheckpointReader::ExpectHeader() {
  char magic[kCheckpointMagicSize];
  if (!in_->read(magic, sizeof(magic))) return Truncated();
  if (std::memcmp(magic, kCheckpointMagic, kCheckpointMagicSize) != 0) {
    return Status::InvalidArgument("not a CAD checkpoint (bad magic)");
  }
  uint8_t version = 0;
  CAD_ASSIGN_OR_RETURN(version, ReadU8());
  if (version < kCheckpointVersionIntegerIds || version > kCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  version_ = version;
  return Status::OK();
}

void WriteWeightedGraph(CheckpointWriter* writer, const Snapshot& snapshot) {
  writer->WriteU64(snapshot.num_nodes());
  writer->WriteU64(snapshot.num_edges());
  for (const Edge& edge : snapshot.edges()) {
    writer->WriteU32(edge.u);
    writer->WriteU32(edge.v);
    writer->WriteDouble(edge.weight);
  }
}

namespace {

/// A graph section as stored: its declared node count and its edges.
struct GraphSection {
  uint64_t num_nodes = 0;
  std::vector<Edge> edges;
};

Result<GraphSection> ReadGraphSection(CheckpointReader* reader) {
  GraphSection section;
  CAD_ASSIGN_OR_RETURN(section.num_nodes, reader->ReadU64());
  uint64_t num_edges = 0;
  CAD_ASSIGN_OR_RETURN(num_edges, reader->ReadU64());
  section.edges.reserve(static_cast<size_t>(std::min(num_edges, kReserveCap)));
  for (uint64_t i = 0; i < num_edges; ++i) {
    Edge edge{};
    CAD_ASSIGN_OR_RETURN(edge.u, reader->ReadU32());
    CAD_ASSIGN_OR_RETURN(edge.v, reader->ReadU32());
    CAD_ASSIGN_OR_RETURN(edge.weight, reader->ReadDouble());
    section.edges.push_back(edge);
  }
  return section;
}

}  // namespace

Result<Snapshot> ReadWeightedGraph(CheckpointReader* reader) {
  GraphSection section;
  CAD_ASSIGN_OR_RETURN(section, ReadGraphSection(reader));
  return Snapshot::FromSortedEdges(static_cast<size_t>(section.num_nodes),
                                   std::move(section.edges));
}

void WriteDenseMatrix(CheckpointWriter* writer, const DenseMatrix& matrix) {
  writer->WriteU64(matrix.rows());
  writer->WriteU64(matrix.cols());
  writer->WriteDoubleVec(matrix.data());
}

Result<DenseMatrix> ReadDenseMatrix(CheckpointReader* reader) {
  uint64_t rows = 0;
  uint64_t cols = 0;
  CAD_ASSIGN_OR_RETURN(rows, reader->ReadU64());
  CAD_ASSIGN_OR_RETURN(cols, reader->ReadU64());
  std::vector<double> data;
  CAD_ASSIGN_OR_RETURN(data, reader->ReadDoubleVec());
  // The element count is compared in full: a wrapping rows * cols would let
  // a 2^32 x 2^32 header pass with no data at all.
  const bool product_overflows =
      cols != 0 && rows > std::numeric_limits<uint64_t>::max() / cols;
  if (product_overflows || data.size() != rows * cols) {
    return Status::InvalidArgument("checkpoint: dense matrix shape mismatch");
  }
  return DenseMatrix(static_cast<size_t>(rows), static_cast<size_t>(cols),
                     std::move(data));
}

void WriteCsrMatrix(CheckpointWriter* writer, const CsrMatrix& matrix) {
  writer->WriteU64(matrix.rows());
  writer->WriteU64(matrix.cols());
  writer->WriteSizeVec(matrix.row_offsets());
  writer->WriteU32Vec(matrix.col_indices());
  writer->WriteDoubleVec(matrix.values());
}

Result<CsrMatrix> ReadCsrMatrix(CheckpointReader* reader) {
  uint64_t rows = 0;
  uint64_t cols = 0;
  CAD_ASSIGN_OR_RETURN(rows, reader->ReadU64());
  CAD_ASSIGN_OR_RETURN(cols, reader->ReadU64());
  std::vector<size_t> row_offsets;
  std::vector<uint32_t> col_indices;
  std::vector<double> values;
  CAD_ASSIGN_OR_RETURN(row_offsets, reader->ReadSizeVec());
  CAD_ASSIGN_OR_RETURN(col_indices, reader->ReadU32Vec());
  CAD_ASSIGN_OR_RETURN(values, reader->ReadDoubleVec());
  // Validate here so corrupt input surfaces as a Status instead of tripping
  // the CsrMatrix constructor's invariant checks.
  // rows + 1 would wrap for rows = 2^64 - 1, so compare against size - 1.
  if (row_offsets.empty() || row_offsets.size() - 1 != rows ||
      row_offsets.front() != 0 || row_offsets.back() != col_indices.size() ||
      col_indices.size() != values.size()) {
    return Status::InvalidArgument("checkpoint: CSR structure mismatch");
  }
  for (size_t i = 0; i + 1 < row_offsets.size(); ++i) {
    if (row_offsets[i] > row_offsets[i + 1]) {
      return Status::InvalidArgument("checkpoint: CSR offsets not sorted");
    }
  }
  for (uint32_t col : col_indices) {
    if (col >= cols) {
      return Status::InvalidArgument("checkpoint: CSR column out of range");
    }
  }
  return CsrMatrix(static_cast<size_t>(rows), static_cast<size_t>(cols),
                   std::move(row_offsets), std::move(col_indices),
                   std::move(values));
}

void WriteTransitionScores(CheckpointWriter* writer,
                           const TransitionScores& scores) {
  writer->WriteU64(scores.edges.size());
  for (const ScoredEdge& edge : scores.edges) {
    writer->WriteU32(edge.pair.u);
    writer->WriteU32(edge.pair.v);
    writer->WriteDouble(edge.score);
    writer->WriteDouble(edge.weight_delta);
    writer->WriteDouble(edge.commute_delta);
  }
  writer->WriteDoubleVec(scores.node_scores);
  writer->WriteDouble(scores.total_score);
}

Result<TransitionScores> ReadTransitionScores(CheckpointReader* reader) {
  TransitionScores scores;
  uint64_t num_edges = 0;
  CAD_ASSIGN_OR_RETURN(num_edges, reader->ReadU64());
  scores.edges.reserve(static_cast<size_t>(std::min(num_edges, kReserveCap)));
  for (uint64_t i = 0; i < num_edges; ++i) {
    ScoredEdge edge;
    CAD_ASSIGN_OR_RETURN(edge.pair.u, reader->ReadU32());
    CAD_ASSIGN_OR_RETURN(edge.pair.v, reader->ReadU32());
    CAD_ASSIGN_OR_RETURN(edge.score, reader->ReadDouble());
    CAD_ASSIGN_OR_RETURN(edge.weight_delta, reader->ReadDouble());
    CAD_ASSIGN_OR_RETURN(edge.commute_delta, reader->ReadDouble());
    scores.edges.push_back(edge);
  }
  CAD_ASSIGN_OR_RETURN(scores.node_scores, reader->ReadDoubleVec());
  CAD_ASSIGN_OR_RETURN(scores.total_score, reader->ReadDouble());
  scores.BuildSelectionIndex();
  return scores;
}

void WriteNodeVocabulary(CheckpointWriter* writer,
                         const NodeVocabulary& vocabulary) {
  writer->WriteU64(vocabulary.size());
  for (const std::string& name : vocabulary.names()) {
    writer->WriteString(name);
  }
}

Result<NodeVocabulary> ReadNodeVocabulary(CheckpointReader* reader) {
  uint64_t count = 0;
  CAD_ASSIGN_OR_RETURN(count, reader->ReadU64());
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(std::min(count, kReserveCap)));
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    CAD_ASSIGN_OR_RETURN(name, reader->ReadString());
    names.push_back(std::move(name));
  }
  // FromNames re-validates and rejects duplicates, so a corrupt section
  // cannot yield an inconsistent name <-> id mapping.
  return NodeVocabulary::FromNames(names);
}

// --- Atomic file replacement ------------------------------------------------

Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot reopen " + path + " for fsync");
  const int synced = ::fsync(fd);
  ::close(fd);
  if (synced != 0) return Status::IoError("fsync failed: " + path);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(std::ostream*)>& writer) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    if (!file.is_open()) {
      return Status::IoError("cannot open for writing: " + tmp_path);
    }
    Status written = writer(&file);
    if (written.ok()) {
      file.flush();
      if (!file.good()) {
        written = Status::IoError("write failed: " + tmp_path);
      }
    }
    if (!written.ok()) {
      file.close();
      std::remove(tmp_path.c_str());
      return written;
    }
  }
  // The ofstream is closed; push the bytes to stable storage through a plain
  // descriptor so the rename below never publishes a name whose data still
  // lives only in the page cache.
  const Status synced = FsyncPath(tmp_path);
  if (!synced.ok()) {
    std::remove(tmp_path.c_str());
    return synced;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("rename failed: " + tmp_path + " -> " + path);
  }
  // Persist the directory entry as well; without it a power cut can forget
  // the rename even though the file's data blocks are safe. Best-effort:
  // some filesystems reject fsync on directories.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

// --- OnlineCadMonitor checkpointing ----------------------------------------
// Defined here, next to the format, so the monitor core stays free of
// serialization detail; as member functions they have the access needed to
// capture state exactly.

Status OnlineCadMonitor::SaveCheckpoint(
    std::ostream* out, const NodeVocabulary* vocabulary) const {
  CAD_CHECK(out != nullptr);
  CheckpointWriter writer(out);
  writer.WriteBytes(kCheckpointMagic, kCheckpointMagicSize);
  // Integer-id monitors keep emitting version 1 so their checkpoint files
  // stay byte-identical across the vocabulary feature; only named runs pay
  // the v2 bump, and only incremental monitors (whose cache state the resume
  // must carry) pay the v3 one. In v3 the vocabulary gets a presence byte —
  // names and incremental state are independent features.
  const bool named = vocabulary != nullptr;
  const bool incremental = options_.incremental;
  const uint8_t version = incremental ? kCheckpointVersionIncremental
                          : named     ? kCheckpointVersionNamedNodes
                                      : kCheckpointVersionIntegerIds;
  writer.WriteU8(version);
  if (version >= kCheckpointVersionIncremental) {
    writer.WriteU8(named ? 1 : 0);
  }
  if (named) {
    WriteNodeVocabulary(&writer, *vocabulary);
  }

  writer.WriteU64(num_snapshots_);
  writer.WriteU64(num_transitions_total_);
  writer.WriteDouble(delta_);

  const bool has_previous =
      previous_snapshot_.has_value() && previous_oracle_ != nullptr;
  writer.WriteU8(has_previous ? 1 : 0);
  if (has_previous) {
    WriteWeightedGraph(&writer, *previous_snapshot_);
    // The oracle is serialized directly rather than rebuilt on restore:
    // under warm_start a rebuild would consume post-build solver-cache
    // state and diverge from the original CG iterates.
    if (const auto* exact =
            dynamic_cast<const ExactCommuteTime*>(previous_oracle_.get())) {
      writer.WriteU8(kOracleExact);
      WriteDenseMatrix(&writer, exact->laplacian_pseudoinverse());
      WriteOracleTail(&writer, *exact);
    } else if (const auto* approx = dynamic_cast<const ApproxCommuteEmbedding*>(
                   previous_oracle_.get())) {
      writer.WriteU8(kOracleApprox);
      // Embedding sections stay k x n on disk, as in every format version.
      WriteDenseMatrix(&writer, approx->embedding().Transpose());
      WriteOracleTail(&writer, *approx);
      WriteCgStats(&writer, approx->cg_stats());
    } else {
      return Status::NotImplemented(
          "checkpoint: unknown commute-time oracle type");
    }
  }

  writer.WriteU64(history_.size());
  for (const TransitionScores& scores : history_) {
    WriteTransitionScores(&writer, scores);
  }

  // The cache's embedding is usually the oracle's block; it is still
  // written as its own section, so a load decodes two blocks and the first
  // window after a resume shares them again.
  const CommuteSolverCache::State& cache = solver_cache_.state();
  writer.WriteU8(cache.embedding != nullptr ? 1 : 0);
  if (cache.embedding != nullptr) {
    WriteDenseMatrix(&writer, cache.embedding->Transpose());
  }
  writer.WriteU8(cache.factor.has_value() ? 1 : 0);
  if (cache.factor.has_value()) {
    WriteCsrMatrix(&writer, cache.factor->lower());
    writer.WriteDouble(cache.factor->shift_used());
  }
  writer.WriteDoubleVec(cache.factor_diagonal);
  writer.WriteU64(cache.factor_reuses);
  writer.WriteU64(cache.refactorizations);
  writer.WriteDouble(cache.last_relative_change);

  if (version >= kCheckpointVersionIncremental) {
    writer.WriteU8(cache.incremental_rhs.has_value() ? 1 : 0);
    if (cache.incremental_rhs.has_value()) {
      WriteDenseMatrix(&writer, *cache.incremental_rhs);
    }
    writer.WriteU64(cache.incremental_builds);
    writer.WriteU64(cache.rhs_resolved);
    writer.WriteU64(cache.rhs_reused);
    writer.WriteDouble(cache.last_resolved_fraction);
    writer.WriteDouble(cache.last_churn_ratio);
    writer.WriteU64(cache.dimension_invalidations);
    writer.WriteU64(cache.churn_rejections);
  }

  return writer.Finish();
}

Status OnlineCadMonitor::SaveCheckpointFile(
    const std::string& path, const NodeVocabulary* vocabulary) const {
  // Atomic replace: a crash mid-write must leave the previous good
  // checkpoint loadable, never a truncated file under the final name.
  return WriteFileAtomic(path, [this, vocabulary](std::ostream* out) {
    return SaveCheckpoint(out, vocabulary);
  });
}

Status OnlineCadMonitor::LoadCheckpoint(
    std::istream* in, std::optional<NodeVocabulary>* vocabulary_out) {
  CAD_CHECK(in != nullptr);
  CheckpointReader reader(in);
  CAD_RETURN_NOT_OK(reader.ExpectHeader());

  std::optional<NodeVocabulary> vocabulary;
  bool has_vocabulary = reader.version() == kCheckpointVersionNamedNodes;
  if (reader.version() >= kCheckpointVersionIncremental) {
    uint8_t flag = 0;
    CAD_ASSIGN_OR_RETURN(flag, reader.ReadU8());
    has_vocabulary = flag != 0;
  }
  if (has_vocabulary) {
    NodeVocabulary loaded;
    CAD_ASSIGN_OR_RETURN(loaded, ReadNodeVocabulary(&reader));
    vocabulary = std::move(loaded);
  }

  uint64_t num_snapshots = 0;
  uint64_t num_transitions_total = 0;
  double delta = 0.0;
  CAD_ASSIGN_OR_RETURN(num_snapshots, reader.ReadU64());
  CAD_ASSIGN_OR_RETURN(num_transitions_total, reader.ReadU64());
  CAD_ASSIGN_OR_RETURN(delta, reader.ReadDouble());
  // Invariant of the observe loop: every snapshot after the first closes
  // exactly one transition. A checkpoint that violates it is corrupt (or
  // hand-edited); installing it would make the resumed run's window
  // numbering silently diverge from the uninterrupted run.
  const uint64_t expected_transitions =
      num_snapshots == 0 ? 0 : num_snapshots - 1;
  if (num_transitions_total != expected_transitions) {
    return Status::InvalidArgument(
        "checkpoint: " + std::to_string(num_transitions_total) +
        " transitions inconsistent with " + std::to_string(num_snapshots) +
        " snapshots (expected " + std::to_string(expected_transitions) + ")");
  }

  uint8_t has_previous = 0;
  CAD_ASSIGN_OR_RETURN(has_previous, reader.ReadU8());
  if ((has_previous != 0) != (num_snapshots > 0)) {
    return Status::InvalidArgument(
        "checkpoint: previous-snapshot presence inconsistent with " +
        std::to_string(num_snapshots) + " snapshots");
  }
  std::optional<Snapshot> previous_snapshot;
  std::unique_ptr<CommuteTimeOracle> previous_oracle;
  if (has_previous != 0) {
    GraphSection section;
    CAD_ASSIGN_OR_RETURN(section, ReadGraphSection(&reader));
    size_t labeled_nodes = 0;
    uint8_t oracle_tag = 0;
    CAD_ASSIGN_OR_RETURN(oracle_tag, reader.ReadU8());
    if (oracle_tag == kOracleExact &&
        options_.detector.engine == CommuteEngine::kApprox) {
      return Status::InvalidArgument(
          "checkpoint holds an exact-engine oracle but the monitor is "
          "configured for the approximate engine");
    }
    if (oracle_tag == kOracleApprox &&
        options_.detector.engine == CommuteEngine::kExact) {
      return Status::InvalidArgument(
          "checkpoint holds an approximate-engine oracle but the monitor is "
          "configured for the exact engine");
    }
    if (oracle_tag == kOracleExact) {
      DenseMatrix lplus;
      CAD_ASSIGN_OR_RETURN(lplus, ReadDenseMatrix(&reader));
      if (lplus.rows() != lplus.cols()) {
        return Status::InvalidArgument(
            "checkpoint: exact oracle pseudoinverse is not square");
      }
      OracleTail tail;
      CAD_ASSIGN_OR_RETURN(tail, ReadOracleTail(&reader));
      labeled_nodes = tail.components.component.size();
      previous_oracle = std::make_unique<ExactCommuteTime>(
          ExactCommuteTime::FromParts(std::move(lplus),
                                      std::move(tail.components), tail.volume,
                                      tail.sentinel, tail.use_sentinel));
    } else if (oracle_tag == kOracleApprox) {
      DenseMatrix embedding;
      CAD_ASSIGN_OR_RETURN(embedding, ReadDenseMatrix(&reader));
      OracleTail tail;
      CAD_ASSIGN_OR_RETURN(tail, ReadOracleTail(&reader));
      labeled_nodes = tail.components.component.size();
      CgBatchStats cg_stats;
      CAD_ASSIGN_OR_RETURN(cg_stats, ReadCgStats(&reader));
      previous_oracle = std::make_unique<ApproxCommuteEmbedding>(
          ApproxCommuteEmbedding::FromParts(
              embedding.Transpose(), std::move(tail.components), tail.volume,
              tail.sentinel, tail.use_sentinel, cg_stats));
    } else {
      return Status::InvalidArgument("checkpoint: unknown oracle tag " +
                                     std::to_string(oracle_tag));
    }
    // The component labeling holds one entry per node and was read from the
    // stream, so it bounds the node count for real; the snapshot's degree
    // vector is sized only once the section's declared count matches it.
    if (previous_oracle->num_nodes() != section.num_nodes ||
        labeled_nodes != section.num_nodes) {
      return Status::InvalidArgument(
          "checkpoint: oracle/snapshot node count mismatch");
    }
    Snapshot snapshot;
    CAD_ASSIGN_OR_RETURN(snapshot,
                         Snapshot::FromSortedEdges(
                             static_cast<size_t>(section.num_nodes),
                             std::move(section.edges)));
    // The vocabulary may run ahead of the last closed window (names interned
    // from events still in the open window), but never behind it.
    if (vocabulary.has_value() && vocabulary->size() < snapshot.num_nodes()) {
      return Status::InvalidArgument(
          "checkpoint: vocabulary smaller than the previous snapshot");
    }
    previous_snapshot = std::move(snapshot);
  }

  uint64_t history_size = 0;
  CAD_ASSIGN_OR_RETURN(history_size, reader.ReadU64());
  std::vector<TransitionScores> history;
  history.reserve(static_cast<size_t>(std::min(history_size, kReserveCap)));
  for (uint64_t i = 0; i < history_size; ++i) {
    TransitionScores scores;
    CAD_ASSIGN_OR_RETURN(scores, ReadTransitionScores(&reader));
    history.push_back(std::move(scores));
  }

  CommuteSolverCache::State cache;
  uint8_t has_embedding = 0;
  CAD_ASSIGN_OR_RETURN(has_embedding, reader.ReadU8());
  if (has_embedding != 0) {
    DenseMatrix embedding;
    CAD_ASSIGN_OR_RETURN(embedding, ReadDenseMatrix(&reader));
    cache.embedding =
        std::make_shared<const DenseMatrix>(embedding.Transpose());
  }
  uint8_t has_factor = 0;
  CAD_ASSIGN_OR_RETURN(has_factor, reader.ReadU8());
  if (has_factor != 0) {
    CsrMatrix lower(0, 0);
    CAD_ASSIGN_OR_RETURN(lower, ReadCsrMatrix(&reader));
    double shift = 0.0;
    CAD_ASSIGN_OR_RETURN(shift, reader.ReadDouble());
    // FromFactor recomputes the transpose, which sizes its offsets by the
    // column count: a corrupt header must be rejected before that.
    if (lower.rows() != lower.cols()) {
      return Status::InvalidArgument(
          "checkpoint: cached IC(0) factor is not square");
    }
    cache.factor = IncompleteCholesky::FromFactor(std::move(lower), shift);
  }
  CAD_ASSIGN_OR_RETURN(cache.factor_diagonal, reader.ReadDoubleVec());
  uint64_t counter = 0;
  CAD_ASSIGN_OR_RETURN(counter, reader.ReadU64());
  cache.factor_reuses = static_cast<size_t>(counter);
  CAD_ASSIGN_OR_RETURN(counter, reader.ReadU64());
  cache.refactorizations = static_cast<size_t>(counter);
  CAD_ASSIGN_OR_RETURN(cache.last_relative_change, reader.ReadDouble());
  if (reader.version() >= kCheckpointVersionIncremental) {
    uint8_t has_rhs = 0;
    CAD_ASSIGN_OR_RETURN(has_rhs, reader.ReadU8());
    if (has_rhs != 0) {
      DenseMatrix rhs;
      CAD_ASSIGN_OR_RETURN(rhs, ReadDenseMatrix(&reader));
      cache.incremental_rhs = std::move(rhs);
    }
    CAD_ASSIGN_OR_RETURN(counter, reader.ReadU64());
    cache.incremental_builds = static_cast<size_t>(counter);
    CAD_ASSIGN_OR_RETURN(counter, reader.ReadU64());
    cache.rhs_resolved = static_cast<size_t>(counter);
    CAD_ASSIGN_OR_RETURN(counter, reader.ReadU64());
    cache.rhs_reused = static_cast<size_t>(counter);
    CAD_ASSIGN_OR_RETURN(cache.last_resolved_fraction, reader.ReadDouble());
    CAD_ASSIGN_OR_RETURN(cache.last_churn_ratio, reader.ReadDouble());
    CAD_ASSIGN_OR_RETURN(counter, reader.ReadU64());
    cache.dimension_invalidations = static_cast<size_t>(counter);
    CAD_ASSIGN_OR_RETURN(counter, reader.ReadU64());
    cache.churn_rejections = static_cast<size_t>(counter);
  }

  // All sections decoded — validate and install the solver cache first
  // (RestoreState rejects mutually inconsistent factor state, the
  // corrupted-checkpoint hazard), then replace the rest of the monitor; a
  // failed load leaves the monitor untouched.
  CAD_RETURN_NOT_OK(solver_cache_.RestoreState(std::move(cache)));
  if (vocabulary_out != nullptr) *vocabulary_out = std::move(vocabulary);
  num_snapshots_ = static_cast<size_t>(num_snapshots);
  num_transitions_total_ = static_cast<size_t>(num_transitions_total);
  delta_ = delta;
  previous_snapshot_ = std::move(previous_snapshot);
  previous_oracle_ = std::move(previous_oracle);
  history_ = std::move(history);
  return Status::OK();
}

Status OnlineCadMonitor::LoadCheckpointFile(
    const std::string& path, std::optional<NodeVocabulary>* vocabulary) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  return LoadCheckpoint(&file, vocabulary);
}

}  // namespace cad
