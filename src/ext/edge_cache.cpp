#include "ext/edge_cache.h"

#include <span>
#include <vector>

#include "energy/cost_functions.h"
#include "util/error.h"

namespace cl {

namespace {

/// The sessions at `positions` as owned columns over the same span (no
/// swarm index, no metro stamp — the simulator groups them itself).
TraceColumns gather_sessions(const TraceView& trace,
                             const std::vector<std::uint32_t>& positions) {
  TraceColumns out;
  out.resize(positions.size());
  out.span = trace.span();
  for (std::size_t j = 0; j < positions.size(); ++j) {
    const std::uint32_t i = positions[j];
    out.user[j] = trace.user()[i];
    out.household[j] = trace.household()[i];
    out.content[j] = trace.content()[i];
    out.isp[j] = trace.isp()[i];
    out.exp[j] = trace.exp()[i];
    out.bitrate[j] = trace.bitrate()[i];
    out.start[j] = trace.start()[i];
    out.duration[j] = trace.duration()[i];
  }
  return out;
}

}  // namespace

LruSet::LruSet(std::size_t capacity) : capacity_(capacity) {
  CL_EXPECTS(capacity >= 1);
}

bool LruSet::touch(std::uint32_t key) {
  if (const auto it = map_.find(key); it != map_.end()) {
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  if (map_.size() >= capacity_) {
    map_.erase(order_.back());
    order_.pop_back();
  }
  order_.push_front(key);
  map_[key] = order_.begin();
  return false;
}

EdgeCacheSimulator::EdgeCacheSimulator(const Metro& metro,
                                       SimConfig sim_config,
                                       EdgeCacheConfig cache_config)
    : metro_(&metro), sim_config_(sim_config), cache_config_(cache_config) {
  CL_EXPECTS(cache_config_.capacity_per_exp >= 1);
}

EdgeCacheOutcome EdgeCacheSimulator::run(const TraceView& trace) const {
  EdgeCacheOutcome outcome;
  std::unordered_map<std::uint64_t, LruSet> caches;
  const std::span<const std::uint32_t> content = trace.content();
  const std::span<const std::uint32_t> isp = trace.isp();
  const std::span<const std::uint32_t> exp = trace.exp();
  const std::span<const std::uint8_t> bitrate = trace.bitrate();
  const std::span<const double> duration = trace.duration();
  std::vector<std::uint32_t> missed;  // session positions, ascending
  Bits miss_bits;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t exp_key =
        (static_cast<std::uint64_t>(isp[i]) << 32) | exp[i];
    auto [it, inserted] = caches.try_emplace(
        exp_key, cache_config_.capacity_per_exp);
    const Bits volume = bitrate_of(static_cast<BitrateClass>(bitrate[i])) *
                        Seconds{duration[i]};
    if (it->second.touch(content[i])) {
      ++outcome.hits;
      outcome.cache_bits += volume;
    } else {
      ++outcome.misses;
      miss_bits += volume;
      missed.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (cache_config_.misses_use_p2p) {
    outcome.miss_sim = HybridSimulator(*metro_, sim_config_)
                           .run(TraceView::from_columns(
                               gather_sessions(trace, missed)));
  } else {
    // Pure CDN for misses: all bytes from the server.
    outcome.miss_sim.config = sim_config_;
    outcome.miss_sim.span = trace.span();
    outcome.miss_sim.total.server = miss_bits;
  }
  return outcome;
}

EnergyPerBit EdgeCacheSimulator::cache_psi(const EnergyParams& params) {
  const double exp_leg =
      params.gamma_p2p_at(LocalityLevel::kExchangePoint).value() / 2.0;
  return EnergyPerBit{params.pue * (params.gamma_server.value() + exp_leg) +
                      params.loss * params.gamma_modem.value()};
}

Energy EdgeCacheSimulator::total_energy(const EdgeCacheOutcome& outcome,
                                        const EnergyParams& params) {
  const EnergyAccountant accountant{CostFunctions(params)};
  return accountant.hybrid(outcome.miss_sim.total).total() +
         cache_psi(params) * outcome.cache_bits;
}

double EdgeCacheSimulator::savings(const EdgeCacheOutcome& outcome,
                                   const EnergyParams& params) {
  const EnergyAccountant accountant{CostFunctions(params)};
  const Bits useful = outcome.miss_sim.total.total() + outcome.cache_bits;
  const double baseline = accountant.baseline(useful).total().value();
  if (baseline <= 0) return 0.0;
  return 1.0 - total_energy(outcome, params).value() / baseline;
}

}  // namespace cl
