#ifndef CAD_CORE_CHECKPOINT_H_
#define CAD_CORE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/edge_scores.h"
#include "graph/node_vocabulary.h"
#include "graph/snapshot.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace cad {

/// \file
/// Versioned binary checkpoint format for the streaming monitor.
///
/// Layout: a 7-byte magic ("CADCKPT"), one format-version byte, then the
/// monitor payload. Every scalar is written little-endian with explicit byte
/// composition — the format is byte-identical across host endianness — and
/// doubles are written as their IEEE-754 bit pattern, so restored state is
/// bit-exact and a resumed monitor reproduces the uninterrupted run's
/// reports byte-for-byte. Readers reject unknown magic or versions and
/// report truncation as IoError rather than returning partial state.

/// First bytes of every checkpoint file, before the version byte.
inline constexpr char kCheckpointMagic[] = "CADCKPT";  // 7 significant bytes
inline constexpr size_t kCheckpointMagicSize = 7;
/// Version 1: integer-id monitor state (the original format).
inline constexpr uint8_t kCheckpointVersionIntegerIds = 1;
/// Version 2: version 1 plus a node-vocabulary section immediately after the
/// header (DESIGN.md §8). Writers emit v2 only when a vocabulary is present,
/// so integer-id checkpoints remain byte-identical to version 1 files.
inline constexpr uint8_t kCheckpointVersionNamedNodes = 2;
/// Version 3: the vocabulary section moves behind a presence byte (it is
/// independent of the new state) and an incremental-maintenance section —
/// the solver cache's JL right-hand-side block plus churn/reuse counters
/// (DESIGN.md §12) — follows the solver-cache section. Writers emit v3 only
/// for monitors running with OnlineMonitorOptions::incremental, so
/// non-incremental runs keep producing byte-identical v1/v2 files; v1/v2
/// checkpoints still load into incremental monitors (the first resumed
/// window full-rebuilds to re-seed the state).
inline constexpr uint8_t kCheckpointVersionIncremental = 3;
/// Highest checkpoint format version this build reads and writes.
inline constexpr uint8_t kCheckpointVersion = kCheckpointVersionIncremental;

/// \brief Little-endian primitive encoder over an ostream. Writes collect in
/// a bounded buffer (kBufferBytes) that is handed to the stream whenever the
/// next write would overflow it, and by Finish(): a multi-megabyte
/// checkpoint costs a few hundred stream writes instead of one per field,
/// without holding the whole file in memory. Call Finish() once at the end;
/// it flushes the buffer and collapses the write sequence into a Status.
/// Bytes written after Finish() need another Finish().
class CheckpointWriter {
 public:
  /// Largest number of bytes held before they go to the stream.
  static constexpr size_t kBufferBytes = size_t{64} * 1024;

  explicit CheckpointWriter(std::ostream* out);

  void WriteBytes(const char* data, size_t size);
  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  /// IEEE-754 bit pattern, little-endian: bit-exact roundtrip.
  void WriteDouble(double value);
  /// u64 element count, then each element.
  void WriteU32Vec(const std::vector<uint32_t>& values);
  void WriteU64Vec(const std::vector<uint64_t>& values);
  void WriteSizeVec(const std::vector<size_t>& values);
  void WriteDoubleVec(const std::vector<double>& values);
  /// u64 byte count, then the raw bytes.
  void WriteString(std::string_view value);

  /// Hands the buffered bytes to the stream. IoError if any write so far
  /// failed.
  [[nodiscard]] Status Finish();

 private:
  /// Hands the buffered bytes to the stream and empties the buffer.
  void Flush();
  /// Writes the elements of `values` in one block when the host's memory
  /// already is their little-endian `Wire`-width encoding; false (nothing
  /// written) when it is not, and the caller encodes element by element.
  template <typename Wire, typename T>
  bool WriteAsBlock(const std::vector<T>& values);

  std::ostream* out_;
  std::string buffer_;
};

/// \brief Little-endian primitive decoder matching CheckpointWriter.
/// Truncated or unreadable input reports IoError at the failing read;
/// vector reads consume elements incrementally, so a corrupt length cannot
/// trigger a huge upfront allocation.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream* in);

  [[nodiscard]] Result<uint8_t> ReadU8();
  [[nodiscard]] Result<uint32_t> ReadU32();
  [[nodiscard]] Result<uint64_t> ReadU64();
  [[nodiscard]] Result<double> ReadDouble();
  [[nodiscard]] Result<std::vector<uint32_t>> ReadU32Vec();
  [[nodiscard]] Result<std::vector<size_t>> ReadSizeVec();
  [[nodiscard]] Result<std::vector<double>> ReadDoubleVec();
  [[nodiscard]] Result<std::string> ReadString();

  /// Consumes and verifies the magic/version header. Accepts any version up
  /// to kCheckpointVersion; the decoded version is available from version().
  [[nodiscard]] Status ExpectHeader();

  /// Format version decoded by ExpectHeader (0 before a successful call).
  uint8_t version() const { return version_; }

 private:
  std::istream* in_;
  uint8_t version_ = 0;
};

// Composite serializers used by the monitor checkpoint (exposed for tests;
// each Read* is the exact inverse of its Write*).
void WriteWeightedGraph(CheckpointWriter* writer, const Snapshot& snapshot);
/// Reads the section into a Snapshot without re-sorting it. Returns
/// InvalidArgument for a section that WriteWeightedGraph cannot have
/// written: pairs out of strictly ascending order, u >= v, an endpoint
/// beyond the node count, or a weight that is not finite and positive.
/// The declared node count sizes the snapshot's degree vector, so
/// LoadCheckpoint reads the section's fields first and builds the snapshot
/// only after that count matches the oracle stored behind it.
[[nodiscard]] Result<Snapshot> ReadWeightedGraph(CheckpointReader* reader);

void WriteDenseMatrix(CheckpointWriter* writer, const DenseMatrix& matrix);
[[nodiscard]] Result<DenseMatrix> ReadDenseMatrix(CheckpointReader* reader);

void WriteCsrMatrix(CheckpointWriter* writer, const CsrMatrix& matrix);
[[nodiscard]] Result<CsrMatrix> ReadCsrMatrix(CheckpointReader* reader);

/// The selection index is not serialized; ReadTransitionScores rebuilds it,
/// which is deterministic from the edge list.
void WriteTransitionScores(CheckpointWriter* writer,
                           const TransitionScores& scores);
[[nodiscard]] Result<TransitionScores> ReadTransitionScores(
    CheckpointReader* reader);

/// fsync by path, for files written through an ofstream (which exposes no
/// descriptor); a read-only open is enough for fsync on POSIX.
[[nodiscard]] Status FsyncPath(const std::string& path);

/// \brief Writes a file atomically and durably: `writer` streams the new
/// contents into `<path>.tmp`, the bytes are flushed and fsync'd, and the
/// temp file is renamed over `path` (atomic on POSIX), so a crash at any
/// instant leaves either the complete previous file or the complete new one
/// — never a truncated mix. The containing directory is fsync'd after the
/// rename so the new name itself survives a power cut. On any failure the
/// temp file is removed and `path` is left untouched.
[[nodiscard]] Status WriteFileAtomic(
    const std::string& path, const std::function<Status(std::ostream*)>& writer);

/// Vocabulary section of version-2 checkpoints: a u64 name count followed by
/// each name (length-prefixed), in dense-id order. ReadNodeVocabulary
/// validates names and uniqueness, so a corrupt section cannot produce an
/// inconsistent mapping.
void WriteNodeVocabulary(CheckpointWriter* writer,
                         const NodeVocabulary& vocabulary);
[[nodiscard]] Result<NodeVocabulary> ReadNodeVocabulary(
    CheckpointReader* reader);

}  // namespace cad

#endif  // CAD_CORE_CHECKPOINT_H_
