#include "trace/trace_view.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "trace/bitrate.h"
#include "trace/trace_binary.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace cl {

namespace {

[[noreturn]] void corrupt(const std::string& what) {
  throw ParseError("corrupt .cltrace file: " + what);
}

template <typename T>
bool aligned_for(const unsigned char* p) {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0;
}

/// True when the mapped payload blocks can be aliased as typed columns:
/// the host is little-endian (the on-disk byte order) and every
/// fixed-width block pointer is naturally aligned (guaranteed in
/// practice: blocks are 64-byte aligned within the file and the mapping
/// is at least page/16-byte aligned — this is the check, not the hope).
bool can_alias_columns(const MappedTrace& m) {
  if constexpr (std::endian::native != std::endian::little) {
    return false;
  }
  for (const std::size_t id : {0u, 1u, 2u, 3u, 4u, 12u}) {
    if (!aligned_for<std::uint32_t>(m.raw_block(id))) return false;
  }
  for (const std::size_t id : {6u, 7u}) {
    if (!aligned_for<double>(m.raw_block(id))) return false;
  }
  return true;
}

/// Decodes the session columns and the order block of `m` into owned
/// buffers, byte order independent (the index groups, header and metro
/// name are from_mapped's job).
TraceColumns decode_columns(const MappedTrace& m, unsigned threads) {
  const std::size_t n = m.size();
  TraceColumns columns;
  columns.resize(n);
  columns.order.resize(n);
  parallel_shards(n, threads, [&](unsigned, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      columns.user[i] = load_u32_le(m.raw_block(0) + 4 * i);
      columns.household[i] = load_u32_le(m.raw_block(1) + 4 * i);
      columns.content[i] = load_u32_le(m.raw_block(2) + 4 * i);
      columns.isp[i] = load_u32_le(m.raw_block(3) + 4 * i);
      columns.exp[i] = load_u32_le(m.raw_block(4) + 4 * i);
      columns.bitrate[i] = m.raw_block(5)[i];
      columns.start[i] = load_f64_le(m.raw_block(6) + 8 * i);
      columns.duration[i] = load_f64_le(m.raw_block(7) + 8 * i);
      columns.order[i] = load_u32_le(m.raw_block(12) + 4 * i);
    }
  });
  return columns;
}

}  // namespace

void TraceColumns::resize(std::size_t n) {
  user.resize(n);
  household.resize(n);
  content.resize(n);
  isp.resize(n);
  exp.resize(n);
  bitrate.resize(n);
  start.resize(n);
  duration.resize(n);
}

TraceView TraceView::from_trace(const Trace& trace, unsigned threads) {
  const std::size_t n = trace.sessions.size();
  TraceColumns columns;
  columns.resize(n);
  parallel_shards(n, threads, [&](unsigned, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const SessionRecord& s = trace.sessions[i];
      columns.user[i] = s.user;
      columns.household[i] = s.household;
      columns.content[i] = s.content;
      columns.isp[i] = s.isp;
      columns.exp[i] = s.exp;
      columns.bitrate[i] = static_cast<std::uint8_t>(s.bitrate);
      columns.start[i] = s.start;
      columns.duration[i] = s.duration;
    }
  });
  columns.groups = trace.swarm_index.groups;
  columns.order = trace.swarm_index.order;
  columns.span = trace.span;
  columns.metro_name = trace.metro_name;
  return from_columns(std::move(columns));
}

TraceView TraceView::from_columns(TraceColumns columns) {
  const auto owned = std::make_shared<TraceColumns>(std::move(columns));
  TraceView view;
  view.user_ = owned->user;
  view.household_ = owned->household;
  view.content_ = owned->content;
  view.isp_ = owned->isp;
  view.exp_ = owned->exp;
  view.bitrate_ = owned->bitrate;
  view.start_ = owned->start;
  view.duration_ = owned->duration;
  view.order_ = owned->order;
  view.groups_ = std::shared_ptr<const std::vector<SwarmIndexGroup>>(
      owned, &owned->groups);  // aliases the owned columns
  view.span_ = owned->span;
  view.metro_name_ = owned->metro_name;
  view.columns_ = owned;
  return view;
}

TraceView TraceView::from_mapped(MappedTrace mapped, unsigned threads) {
  const auto shared =
      std::make_shared<const MappedTrace>(std::move(mapped));
  const MappedTrace& m = *shared;
  const std::size_t n = m.size();

  TraceView view;
  if (can_alias_columns(m)) {
    // The aliasing casts below are why `.cltrace` payload blocks are
    // little-endian and 64-byte aligned (trace/trace_binary.h): the
    // mmap'd bytes are read-only and only ever accessed through these
    // column types.
    view.user_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(0)), n};
    view.household_ = {
        reinterpret_cast<const std::uint32_t*>(m.raw_block(1)), n};
    view.content_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(2)),
                     n};
    view.isp_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(3)), n};
    view.exp_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(4)), n};
    view.bitrate_ = {m.raw_block(5), n};
    view.start_ = {reinterpret_cast<const double*>(m.raw_block(6)), n};
    view.duration_ = {reinterpret_cast<const double*>(m.raw_block(7)), n};
    view.order_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(12)),
                   n};
    view.mapped_ = shared;
  } else {
    // Big-endian or pathologically aligned mapping: decode the blocks
    // once into owned columns (unreachable on every platform CI covers)
    // and run the same checks on them below.
    view = from_columns(decode_columns(m, threads));
  }
  view.metro_name_ = m.metro_name();  // validates the name block
  view.span_ = m.span();
  if (!(view.span_.value() >= 0)) corrupt("negative or NaN trace span");

  // Field-level validation, column-wise: bitrate range and the session
  // invariants, without building a single SessionRecord.
  if (const std::size_t bad = view.first_invalid_session(threads); bad < n) {
    if (view.bitrate_[bad] >= kBitrateClasses) {
      throw ParseError("corrupt .cltrace file: bitrate class out of "
                       "range: " + std::to_string(view.bitrate_[bad]));
    }
    corrupt("session " + std::to_string(bad) +
            " violates the trace invariants (ordering, non-negative "
            "duration, inside the span)");
  }

  // Decode the group table (tiny: one entry per swarm) and validate the
  // index against the key columns — validate_swarm_index's checks,
  // column-wise.
  const std::size_t g_count = m.group_count();
  auto groups = std::make_shared<std::vector<SwarmIndexGroup>>(g_count);
  {
    const unsigned char* g_content = m.raw_block(8);
    const unsigned char* g_isp = m.raw_block(9);
    const unsigned char* g_bitrate = m.raw_block(10);
    const unsigned char* g_counts = m.raw_block(11);
    std::uint64_t begin = 0;
    for (std::size_t g = 0; g < g_count; ++g) {
      SwarmIndexGroup& group = (*groups)[g];
      group.content = load_u32_le(g_content + 4 * g);
      group.isp = load_u32_le(g_isp + 4 * g);
      group.bitrate = g_bitrate[g];
      group.count = load_u64_le(g_counts + 8 * g);
      group.begin = begin;
      if (group.count == 0) corrupt("swarm index contains an empty group");
      if (group.count > n - begin) {
        corrupt("swarm index group counts overflow the session count");
      }
      if (g > 0 && !SwarmIndex::key_less((*groups)[g - 1], group)) {
        corrupt("swarm index group keys are not strictly ascending");
      }
      begin += group.count;
    }
    if (begin != n) corrupt("swarm index groups do not cover every session");
  }
  parallel_shards(g_count, threads, [&](unsigned, std::size_t gb,
                                        std::size_t ge) {
    for (std::size_t g = gb; g < ge; ++g) {
      const SwarmIndexGroup& group = (*groups)[g];
      std::uint32_t prev_session = 0;
      for (std::uint64_t i = group.begin; i < group.begin + group.count;
           ++i) {
        const std::uint32_t s = view.order_[i];
        if (s >= n) corrupt("swarm index references an out-of-range session");
        if (i > group.begin && s <= prev_session) {
          corrupt("swarm index session order is not ascending within a group");
        }
        prev_session = s;
        if (view.content_[s] != group.content || view.isp_[s] != group.isp ||
            view.bitrate_[s] != group.bitrate) {
          corrupt("swarm index group key does not match its sessions");
        }
      }
    }
  });

  view.groups_ = std::move(groups);
  return view;
}

TraceView TraceView::open_binary(const std::string& path, unsigned threads) {
  return from_mapped(MappedTrace(path), threads);
}

std::size_t TraceView::first_invalid_session(unsigned threads) const {
  // Each shard reports its first violation and the smallest wins, so the
  // answer is the sequential scan's. Shards overlap by one element so the
  // ordering check covers every adjacent pair.
  const std::size_t n = size();
  const double span_limit = span_.value() + 1e-6;
  std::vector<std::size_t> first_bad(resolve_threads(threads, n), n);
  parallel_shards(n, threads, [&](unsigned shard, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const double start = start_[i];
      const double duration = duration_[i];
      if (bitrate_[i] >= kBitrateClasses || !(duration >= 0) ||
          !(start >= 0) || !(start + duration <= span_limit) ||
          (i > 0 && !(start >= start_[i - 1]))) {
        first_bad[shard] = i;
        return;
      }
    }
  });
  return *std::min_element(first_bad.begin(), first_bad.end());
}

Trace TraceView::to_trace(unsigned threads) const {
  Trace trace;
  trace.span = span_;
  trace.metro_name = metro_name_;
  trace.sessions.resize(size());
  parallel_shards(size(), threads, [&](unsigned, std::size_t begin,
                                       std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) trace.sessions[i] = session(i);
  });
  const std::span<const SwarmIndexGroup> index_groups = groups();
  trace.swarm_index.groups.assign(index_groups.begin(), index_groups.end());
  trace.swarm_index.order.assign(order_.begin(), order_.end());
  return trace;
}

Trace read_trace_binary_file(const std::string& path, unsigned threads) {
  return TraceView::open_binary(path, threads).to_trace(threads);
}

SessionRecord TraceView::session(std::size_t i) const {
  CL_EXPECTS(i < size());
  SessionRecord s;
  s.user = user_[i];
  s.household = household_[i];
  s.content = content_[i];
  s.isp = isp_[i];
  s.exp = exp_[i];
  s.bitrate = static_cast<BitrateClass>(bitrate_[i]);
  s.start = start_[i];
  s.duration = duration_[i];
  return s;
}

}  // namespace cl
