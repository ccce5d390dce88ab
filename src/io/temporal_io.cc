#include "io/temporal_io.h"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/strings.h"
#include "obs/obs.h"

namespace cad {

Status WriteTemporalEdgeList(const TemporalGraphSequence& sequence,
                             std::ostream* out) {
  CAD_CHECK(out != nullptr);
  const NodeVocabulary* vocabulary = sequence.vocabulary();
  (*out) << "# CAD temporal graph sequence\n";
  if (vocabulary == nullptr) {
    (*out) << "temporal " << sequence.num_nodes() << " "
           << sequence.num_snapshots() << "\n";
  } else {
    (*out) << "temporal ? " << sequence.num_snapshots() << "\n";
    for (const std::string& name : vocabulary->names()) {
      (*out) << "node " << name << "\n";
    }
  }
  out->precision(17);
  for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
    (*out) << "snapshot " << t << "\n";
    for (const Edge& e : sequence.Snapshot(t).Edges()) {
      (*out) << "edge " << NodeLabel(vocabulary, e.u) << " "
             << NodeLabel(vocabulary, e.v) << " " << e.weight << "\n";
    }
  }
  if (!out->good()) {
    return Status::IoError("stream write failed");
  }
  return Status::OK();
}

Status WriteTemporalEdgeListFile(const TemporalGraphSequence& sequence,
                                 const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  return WriteTemporalEdgeList(sequence, &file);
}

Result<TemporalGraphSequence> ReadTemporalEdgeList(std::istream* in) {
  CAD_CHECK(in != nullptr);
  CAD_TRACE_SPAN("temporal_load");
  TemporalGraphSequence sequence;
  bool header_seen = false;
  bool named_mode = false;
  size_t declared_snapshots = 0;
  size_t num_nodes = 0;
  // Named mode discovers the node set: the open snapshot grows as names are
  // interned, AppendGrowing grows the sequence with it, and one GrowTo at
  // EOF gives every snapshot the full vocabulary (earlier snapshots hold
  // later-appearing nodes as isolated).
  WeightedGraph current(0);
  NodeVocabulary vocabulary;
  bool in_snapshot = false;
  size_t expected_snapshot = 0;
  size_t line_number = 0;
  size_t edges_read = 0;

  const auto error_at = [&line_number](const std::string& message) {
    return Status::InvalidArgument("line " + std::to_string(line_number) +
                                   ": " + message);
  };

  std::string line;
  while (std::getline(*in, line)) {
    ++line_number;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::vector<std::string> fields = SplitTokens(stripped);

    if (fields[0] == "temporal") {
      if (header_seen) return error_at("duplicate 'temporal' header");
      if (fields.size() != 3) return error_at("'temporal' needs 2 fields");
      if (fields[1] == "?") {
        named_mode = true;
      } else {
        Result<int64_t> nodes = ParseInt64(fields[1]);
        if (!nodes.ok() || *nodes < 0) return error_at("bad node count");
        num_nodes = static_cast<size_t>(*nodes);
        // num_nodes = 0 also means "infer": a declared size of zero admits
        // no edges anyway, so no previously valid file changes meaning.
        named_mode = num_nodes == 0;
      }
      Result<int64_t> snaps = ParseInt64(fields[2]);
      if (!snaps.ok() || *snaps < 0) return error_at("bad snapshot count");
      declared_snapshots = static_cast<size_t>(*snaps);
      sequence = TemporalGraphSequence(num_nodes);
      header_seen = true;
    } else if (fields[0] == "node") {
      if (!header_seen) return error_at("'node' before 'temporal'");
      if (!named_mode) {
        return error_at("'node' records require a 'temporal ?' header");
      }
      if (fields.size() != 2) return error_at("'node' needs 1 field");
      Result<NodeId> id = vocabulary.Intern(fields[1]);
      if (!id.ok()) return error_at(id.status().message());
    } else if (fields[0] == "snapshot") {
      if (!header_seen) return error_at("'snapshot' before 'temporal'");
      if (fields.size() != 2) return error_at("'snapshot' needs 1 field");
      Result<int64_t> index = ParseInt64(fields[1]);
      if (!index.ok() || *index < 0 ||
          static_cast<size_t>(*index) != expected_snapshot) {
        return error_at("snapshots must appear in order; expected " +
                        std::to_string(expected_snapshot));
      }
      if (in_snapshot) {
        CAD_RETURN_NOT_OK(sequence.AppendGrowing(std::move(current)));
      }
      current = WeightedGraph(num_nodes);
      in_snapshot = true;
      ++expected_snapshot;
    } else if (fields[0] == "edge") {
      if (!in_snapshot) return error_at("'edge' outside a snapshot");
      if (fields.size() != 4) return error_at("'edge' needs 3 fields");
      Result<double> weight = ParseDouble(fields[3]);
      if (!weight.ok()) return error_at("malformed edge");
      if (!std::isfinite(*weight)) {
        return error_at("non-finite edge weight '" + fields[3] + "'");
      }
      NodeId u = 0;
      NodeId v = 0;
      if (named_mode) {
        if (*weight < 0.0) {
          return error_at("edge weight must be finite and >= 0, got " +
                          fields[3]);
        }
        Result<NodeId> u_id = vocabulary.Intern(fields[1]);
        if (!u_id.ok()) return error_at(u_id.status().message());
        Result<NodeId> v_id = vocabulary.Intern(fields[2]);
        if (!v_id.ok()) return error_at(v_id.status().message());
        if (*u_id == *v_id) {
          return error_at("self-loops are not allowed (node '" + fields[1] +
                          "')");
        }
        u = *u_id;
        v = *v_id;
        if (vocabulary.size() > current.num_nodes()) {
          CAD_RETURN_NOT_OK(current.GrowTo(vocabulary.size()));
        }
      } else {
        Result<int64_t> u_id = ParseInt64(fields[1]);
        Result<int64_t> v_id = ParseInt64(fields[2]);
        if (!u_id.ok() || !v_id.ok()) return error_at("malformed edge");
        if (*u_id < 0 || *v_id < 0) return error_at("negative node id");
        u = static_cast<NodeId>(*u_id);
        v = static_cast<NodeId>(*v_id);
      }
      // Repeated edge records within one snapshot accumulate (see the
      // format contract in temporal_io.h).
      const Status add = current.AddEdgeWeight(u, v, *weight);
      if (!add.ok()) return error_at(add.message());
      ++edges_read;
    } else {
      return error_at("unknown record '" + fields[0] + "'");
    }
  }
  if (in->bad()) {
    return Status::IoError("edge-list read failed at line " +
                           std::to_string(line_number));
  }
  if (!header_seen) {
    return Status::InvalidArgument("missing 'temporal' header");
  }
  if (in_snapshot) {
    CAD_RETURN_NOT_OK(sequence.AppendGrowing(std::move(current)));
  }
  if (named_mode) {
    CAD_RETURN_NOT_OK(sequence.GrowTo(vocabulary.size()));
  }
  if (sequence.num_snapshots() != declared_snapshots) {
    return Status::InvalidArgument(
        "snapshot count mismatch: header declares " +
        std::to_string(declared_snapshots) + ", found " +
        std::to_string(sequence.num_snapshots()));
  }
  // An inferred file that named no nodes at all (e.g. a legacy
  // 'temporal 0 0') stays a plain integer sequence: an empty vocabulary
  // carries no information and would change the write-side roundtrip.
  if (named_mode && !vocabulary.empty()) {
    CAD_RETURN_NOT_OK(sequence.SetVocabulary(std::move(vocabulary)));
  }
  CAD_METRIC_ADD("io.snapshots_loaded", sequence.num_snapshots());
  CAD_METRIC_ADD("io.edges_loaded", edges_read);
  return sequence;
}

Result<TemporalGraphSequence> ReadTemporalEdgeListFile(
    const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  return ReadTemporalEdgeList(&file);
}

}  // namespace cad
