#include "trace/swarm_index.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.h"

namespace cl {

SwarmIndex build_swarm_index(const Trace& trace) {
  const std::size_t n = trace.sessions.size();
  CL_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());

  // One pass gives every session the id of its (content, isp, bitrate)
  // key; only the distinct keys are sorted. A stable counting scatter in
  // session order then lays each group out with ascending indices — the
  // exact order the simulator's hash-grouping path produces.
  using Key = std::pair<std::uint64_t, std::uint8_t>;  // (content:isp, bitrate)
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return std::hash<std::uint64_t>{}(key.first * 0x9e3779b97f4a7c15ULL +
                                        key.second);
    }
  };
  std::unordered_map<Key, std::uint32_t, KeyHash> ids;
  std::vector<SwarmIndexGroup> keys;  // by id, in first-seen order
  std::vector<std::uint32_t> key_id(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SessionRecord& s = trace.sessions[i];
    const auto bitrate = static_cast<std::uint8_t>(s.bitrate);
    const auto [it, inserted] = ids.try_emplace(
        Key{(static_cast<std::uint64_t>(s.content) << 32) | s.isp, bitrate},
        static_cast<std::uint32_t>(keys.size()));
    if (inserted) {
      keys.push_back({.content = s.content, .isp = s.isp, .bitrate = bitrate});
    }
    key_id[i] = it->second;
  }
  std::vector<std::uint32_t> by_key(keys.size());
  std::iota(by_key.begin(), by_key.end(), 0u);
  std::sort(by_key.begin(), by_key.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return SwarmIndex::key_less(keys[a], keys[b]);
            });

  SwarmIndex index;
  index.groups.resize(keys.size());
  std::vector<std::uint32_t> rank(keys.size());
  for (std::uint32_t r = 0; r < by_key.size(); ++r) {
    rank[by_key[r]] = r;
    index.groups[r] = keys[by_key[r]];
  }
  for (const std::uint32_t id : key_id) ++index.groups[rank[id]].count;
  std::vector<std::uint64_t> cursor(keys.size());
  std::uint64_t begin = 0;
  for (std::size_t r = 0; r < index.groups.size(); ++r) {
    index.groups[r].begin = cursor[r] = begin;
    begin += index.groups[r].count;
  }
  index.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    index.order[cursor[rank[key_id[i]]]++] = static_cast<std::uint32_t>(i);
  }
  return index;
}

void validate_swarm_index(const SwarmIndex& index, const Trace& trace) {
  const std::size_t n = trace.sessions.size();
  if (index.order.size() != n) {
    throw ParseError("swarm index order length does not match session count");
  }
  std::uint64_t covered = 0;
  const SwarmIndexGroup* prev = nullptr;
  for (const SwarmIndexGroup& group : index.groups) {
    if (group.count == 0) {
      throw ParseError("swarm index contains an empty group");
    }
    if (group.begin != covered) {
      throw ParseError("swarm index groups do not tile the order vector");
    }
    if (prev != nullptr && !SwarmIndex::key_less(*prev, group)) {
      throw ParseError("swarm index group keys are not strictly ascending");
    }
    if (group.begin + group.count > n) {
      throw ParseError("swarm index group overruns the order vector");
    }
    std::uint32_t prev_session = 0;
    for (std::uint64_t i = group.begin; i < group.begin + group.count; ++i) {
      const std::uint32_t session_index = index.order[i];
      if (session_index >= n) {
        throw ParseError("swarm index references an out-of-range session");
      }
      if (i > group.begin && session_index <= prev_session) {
        throw ParseError(
            "swarm index session order is not ascending within a group");
      }
      prev_session = session_index;
      const SessionRecord& s = trace.sessions[session_index];
      if (s.content != group.content || s.isp != group.isp ||
          static_cast<std::uint8_t>(s.bitrate) != group.bitrate) {
        throw ParseError("swarm index group key does not match its sessions");
      }
    }
    covered += group.count;
    prev = &group;
  }
  if (covered != n) {
    throw ParseError("swarm index groups do not cover every session");
  }
}

}  // namespace cl
