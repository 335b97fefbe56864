// trace_view.h — columnar, zero-materialization view of a trace.
//
// The simulator's hot loops (sim/swarm_sweep.h) consume *columns*, not
// rows: per-field spans of start times, durations, swarm-key parts and
// user/ISP/ExP ids. A TraceView is the abstraction that hands those
// spans out, backed by one of two storages:
//
//  * zero-copy — the spans alias the mmap'd `.cltrace` column blocks of
//    a MappedTrace directly (the blocks are little-endian and 64-byte
//    aligned exactly so this cast is legal); nothing is decoded per
//    session, nothing is materialized. This is the default for binary
//    traces on little-endian hosts.
//  * owned SoA — the spans point into TraceColumns vectors: transposed
//    once from a row-structured Trace (CSV loads, generated or filtered
//    traces), decoded from a MappedTrace on big-endian/misaligned hosts,
//    or written by a column transform of another view (the preload
//    transform, ext/preload.h; the edge cache's misses, ext/edge_cache.h).
//
// Ownership and lifetime: a TraceView *shares* its backing (the mapped
// file or the SoA buffers) via shared_ptr, so views are cheap to copy,
// safe to move, and every span a view handed out stays valid for as
// long as any copy of that view lives. The one thing a view never does
// is keep a `Trace&` alive — from_trace() copies the columns out, so
// the source Trace may be destroyed immediately afterwards.
//
// from_mapped is the one `.cltrace` payload decoder: it validates every
// field — bitrate range, swarm-index consistency, session ordering/span
// invariants — as column passes, without ever materializing a
// SessionRecord, and read_trace_binary_file builds its rows from the
// validated view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/session.h"
#include "trace/trace_mmap.h"
#include "util/units.h"

namespace cl {

/// Owned SoA storage a TraceView can adopt: one vector per session
/// column (all the same length), the swarm index (empty groups and order
/// when the trace carries none) and the trace header.
struct TraceColumns {
  std::vector<std::uint32_t> user, household, content, isp, exp;
  std::vector<std::uint8_t> bitrate;
  std::vector<double> start, duration;
  std::vector<SwarmIndexGroup> groups;
  std::vector<std::uint32_t> order;
  Seconds span;
  std::string metro_name;

  /// Sizes every session column to `n` (the index is left alone).
  void resize(std::size_t n);
};

/// Columnar view of a trace: per-field spans plus the swarm index.
class TraceView {
 public:
  /// An empty view (no sessions, no index).
  TraceView() = default;

  /// Transposes a row-structured Trace into owned SoA columns (sharded
  /// across `threads` workers; 0 = all hardware threads). The returned
  /// view is self-contained — `trace` may die right after this returns.
  /// Trusts its input: field invariants are the loader's responsibility.
  [[nodiscard]] static TraceView from_trace(const Trace& trace,
                                            unsigned threads = 1);

  /// Adopts owned columns (moved in, never copied). Trusts its input
  /// like from_trace: a producer that can break the trace invariants
  /// checks first_invalid_session() on the result.
  [[nodiscard]] static TraceView from_columns(TraceColumns columns);

  /// Wraps a mapped `.cltrace` zero-copy (taking ownership of the
  /// mapping), falling back to a one-shot decode into owned columns on
  /// hosts where the blocks cannot be aliased (big-endian, misaligned
  /// mapping). Either way validates the span, bitrates, the session
  /// invariants and the swarm index column-wise; throws cl::ParseError
  /// on corrupt payloads.
  [[nodiscard]] static TraceView from_mapped(MappedTrace mapped,
                                             unsigned threads = 1);

  /// Maps `path` and wraps it — read_trace_binary_file's zero-copy
  /// sibling. Throws cl::IoError / cl::ParseError like MappedTrace.
  [[nodiscard]] static TraceView open_binary(const std::string& path,
                                             unsigned threads = 1);

  [[nodiscard]] std::size_t size() const { return start_.size(); }
  [[nodiscard]] bool empty() const { return start_.empty(); }

  // Per-session columns, each of size() elements.
  [[nodiscard]] std::span<const std::uint32_t> user() const { return user_; }
  [[nodiscard]] std::span<const std::uint32_t> household() const {
    return household_;
  }
  [[nodiscard]] std::span<const std::uint32_t> content() const {
    return content_;
  }
  [[nodiscard]] std::span<const std::uint32_t> isp() const { return isp_; }
  [[nodiscard]] std::span<const std::uint32_t> exp() const { return exp_; }
  [[nodiscard]] std::span<const std::uint8_t> bitrate() const {
    return bitrate_;
  }
  [[nodiscard]] std::span<const double> start() const { return start_; }
  [[nodiscard]] std::span<const double> duration() const { return duration_; }

  /// Total covered duration (epoch 0 .. span), like Trace::span.
  [[nodiscard]] Seconds span() const { return span_; }
  /// Metro registry name recorded in the trace, or empty when unknown.
  [[nodiscard]] const std::string& metro_name() const { return metro_name_; }

  /// Swarm index: groups ascend by (content, isp, bitrate); order() is
  /// the grouped session-index permutation (empty when the trace carries
  /// no index — the simulator falls back to hash grouping).
  [[nodiscard]] std::span<const SwarmIndexGroup> groups() const {
    return groups_ ? std::span<const SwarmIndexGroup>(*groups_)
                   : std::span<const SwarmIndexGroup>();
  }
  [[nodiscard]] std::span<const std::uint32_t> order() const { return order_; }
  [[nodiscard]] bool has_index() const {
    return groups_ && !groups_->empty() && order_.size() == size();
  }

  /// True when the session columns alias an mmap'd file (nothing owned
  /// beyond the decoded group table).
  [[nodiscard]] bool zero_copy() const { return mapped_ != nullptr; }

  /// Materializes one session from the columns (tests, spot reads — not
  /// a hot-path API).
  [[nodiscard]] SessionRecord session(std::size_t i) const;

  /// Materializes the whole trace as rows, swarm index included,
  /// sharded across `threads` workers (row writers, converters and tests
  /// — not a hot-path API).
  [[nodiscard]] Trace to_trace(unsigned threads = 1) const;

  /// The first session breaking the trace invariants — bitrate class in
  /// range, non-negative start and duration, starts ascending, end
  /// inside the span (Trace::validate's 1e-6 s slack) — or size() when
  /// every session holds them. Column passes sharded across `threads`
  /// workers; the answer does not depend on the thread count.
  [[nodiscard]] std::size_t first_invalid_session(unsigned threads = 1) const;

 private:
  std::shared_ptr<const TraceColumns> columns_;
  std::shared_ptr<const MappedTrace> mapped_;
  std::shared_ptr<const std::vector<SwarmIndexGroup>> groups_;

  std::span<const std::uint32_t> user_, household_, content_, isp_, exp_;
  std::span<const std::uint8_t> bitrate_;
  std::span<const double> start_, duration_;
  std::span<const std::uint32_t> order_;
  Seconds span_;
  std::string metro_name_;
};

/// Loads a `.cltrace` file as rows: open_binary(path, threads) then
/// to_trace(threads) — the same decoder and checks as the zero-copy
/// path. Throws cl::IoError / cl::ParseError like open_binary.
[[nodiscard]] Trace read_trace_binary_file(const std::string& path,
                                           unsigned threads = 1);

}  // namespace cl
