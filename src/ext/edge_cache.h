// edge_cache.h — exchange-point edge caching extension (paper's future
// work, ref [31] "Wi-Stitch").
//
// A small LRU cache at each exchange point intercepts sessions whose
// content was recently streamed by a neighbour under the same ExP. Cache
// hits are served over the shortest possible path; misses proceed through
// the normal hybrid (or pure-CDN) pipeline.
//
// Energy accounting (documented substitution — the paper does not model
// caches): a cache hit costs
//
//   ψcache = PUE·(γs + γexp/2) + l·γm   per bit
//
// i.e. a nano-server with the CDN's per-bit serving cost, half the
// intra-ExP peer path (one access leg instead of down-and-up), and the
// downloader's modem. No second user modem is involved.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "energy/energy_params.h"
#include "sim/hybrid_sim.h"
#include "sim/metrics.h"
#include "topology/placement.h"
#include "trace/trace_view.h"

namespace cl {

/// Bounded LRU set of content ids (one per exchange point).
class LruSet {
 public:
  explicit LruSet(std::size_t capacity);

  /// Touches `key`: returns true on hit (and refreshes recency); on miss
  /// inserts the key, evicting the least recently used entry when full.
  bool touch(std::uint32_t key);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::list<std::uint32_t> order_;  // most recent at front
  std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator> map_;
};

/// Configuration of the edge-cache deployment.
struct EdgeCacheConfig {
  std::size_t capacity_per_exp = 50;  ///< items per exchange-point cache
  bool misses_use_p2p = true;  ///< run misses through the hybrid simulator
};

/// Outcome of one cached run.
struct EdgeCacheOutcome {
  std::size_t hits = 0;
  std::size_t misses = 0;
  Bits cache_bits;     ///< bits served by ExP caches
  SimResult miss_sim;  ///< hybrid (or pure-CDN) result for the misses

  [[nodiscard]] double hit_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0;
  }
};

/// Trace-driven simulator of ExP caches in front of the hybrid CDN.
class EdgeCacheSimulator {
 public:
  EdgeCacheSimulator(const Metro& metro, SimConfig sim_config,
                     EdgeCacheConfig cache_config);

  /// Replays the trace in start order against the per-ExP caches, then
  /// simulates the missing sessions — gathered into owned columns — with
  /// the hybrid simulator (or accounts them as pure CDN when
  /// misses_use_p2p is false).
  [[nodiscard]] EdgeCacheOutcome run(const TraceView& trace) const;

  /// ψcache — per-bit energy of a cache hit (see file comment).
  [[nodiscard]] static EnergyPerBit cache_psi(const EnergyParams& params);

  /// Total energy of the outcome under one energy model.
  [[nodiscard]] static Energy total_energy(const EdgeCacheOutcome& outcome,
                                           const EnergyParams& params);

  /// End-to-end savings versus a pure CDN delivering the same volume.
  [[nodiscard]] static double savings(const EdgeCacheOutcome& outcome,
                                      const EnergyParams& params);

 private:
  const Metro* metro_;
  SimConfig sim_config_;
  EdgeCacheConfig cache_config_;
};

}  // namespace cl
