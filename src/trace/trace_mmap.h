// trace_mmap.h — mmap-backed reader of `.cltrace` binary traces.
//
// The counterpart of trace/trace_binary.h: maps the file read-only and
// validates the header and block directory without touching the payload.
// The payload has one decoder, TraceView::from_mapped
// (trace/trace_view.h): it wraps the mapped column blocks in typed spans
// zero-copy (decoding into owned columns only on hosts that cannot alias
// them) and validates every field column-wise. Callers that need rows
// materialize them from that view (read_trace_binary_file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/session.h"
#include "util/mmap_file.h"

namespace cl {

/// A validated, memory-mapped `.cltrace` file.
///
/// Construction validates everything structural: magic, version (the
/// current version 2, or the legacy version 1 without the metro-name
/// block), block directory (every block id of that version present
/// exactly once, element widths, counts, bounds) and the exact file
/// size. Field-level validation — bitrate range, swarm-index
/// consistency, session ordering — happens in TraceView::from_mapped,
/// the only way payload bytes become a trace.
class MappedTrace {
 public:
  /// Maps and validates `path`; throws cl::IoError when the file cannot
  /// be mapped and cl::ParseError when it is not a well-formed
  /// `.cltrace` file of a supported version.
  explicit MappedTrace(const std::string& path);

  /// Number of sessions.
  [[nodiscard]] std::size_t size() const { return sessions_; }
  /// Number of swarm-index groups.
  [[nodiscard]] std::size_t group_count() const { return groups_; }
  /// Trace span.
  [[nodiscard]] Seconds span() const { return span_; }
  /// On-disk format version (kTraceBinaryLegacyVersion..kTraceBinaryVersion).
  [[nodiscard]] std::uint32_t version() const { return version_; }
  /// Total mapped bytes.
  [[nodiscard]] std::size_t file_size() const { return file_.size(); }
  /// Metro name recorded in block 13 (empty for legacy v1 files and
  /// traces generated against an unnamed metro).
  [[nodiscard]] std::string metro_name() const;

  /// Decodes one session from the column blocks (bitrate unvalidated —
  /// use TraceView::from_mapped for checked loading).
  [[nodiscard]] SessionRecord session(std::size_t i) const;

  /// Raw payload bytes of block `id` (see trace/trace_binary.h for the
  /// block table). The pointer is valid for the lifetime of this
  /// MappedTrace; blocks are little-endian and 64-byte aligned within
  /// the file. Zero-copy consumers (trace/trace_view.h) cast these to
  /// typed column pointers; everyone else should use session() or a
  /// TraceView.
  [[nodiscard]] const unsigned char* raw_block(std::size_t id) const {
    return block(id);
  }

 private:
  [[nodiscard]] const unsigned char* block(std::size_t id) const;

  MappedFile file_;
  std::size_t sessions_ = 0;
  std::size_t groups_ = 0;
  std::size_t metro_bytes_ = 0;
  Seconds span_;
  std::uint32_t version_ = 0;
  /// Payload offset of each block, indexed by block id (block 13 stays 0
  /// for legacy v1 files).
  std::uint64_t offsets_[14] = {};
};

}  // namespace cl
