// reference_generate.h — test-only oracles for the trace generator and
// the swarm-index build.
//
// reference::generate is TraceGenerator::generate()'s former sequential
// body: each content's sessions drawn from its own stream and appended in
// content-id order (what concatenating contiguous per-worker shards
// produced), then one std::sort by (start, content, user). It shares no
// code with the generator beyond Rng and the generator's public profile
// data (config, catalogue, users): its CdfSampler — the former
// DiscreteSampler, a normalised CDF searched by a full std::lower_bound —
// stands in for the guide-table sampler, so parity covers that too.
//
// reference::build_swarm_index is the former comparison-sort index build.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/session.h"
#include "trace/synthetic.h"
#include "util/rng.h"

namespace cl::reference {

/// Samples an index from non-negative weights by inversion through the
/// normalised CDF with a full binary search.
class CdfSampler {
 public:
  explicit CdfSampler(const std::vector<double>& weights) {
    cdf_.resize(weights.size());
    double sum = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      sum += weights[i];
      cdf_[i] = sum;
    }
    for (auto& v : cdf_) v /= sum;
    cdf_.back() = 1.0;
  }

  std::size_t operator()(Rng& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// The generator's user-selection weights for head (or tail) contents.
inline std::vector<double> taste_weights(
    const std::vector<UserProfile>& users, double skew, bool head) {
  std::vector<double> w;
  w.reserve(users.size());
  for (const auto& u : users) {
    const double taste = head ? u.mainstream : 1.0 - u.mainstream;
    w.push_back(u.activity * (std::pow(taste, skew) + 1e-9));
  }
  return w;
}

/// Samplers of one generator's configuration.
struct Samplers {
  explicit Samplers(const TraceGenerator& gen)
      : head_users(taste_weights(gen.users(), gen.config().taste_skew, true)),
        tail_users(
            taste_weights(gen.users(), gen.config().taste_skew, false)),
        hours(std::vector<double>(gen.config().diurnal.begin(),
                                  gen.config().diurnal.end())),
        bitrates(std::vector<double>(gen.config().bitrate_mix.begin(),
                                     gen.config().bitrate_mix.end())) {}

  CdfSampler head_users;
  CdfSampler tail_users;
  CdfSampler hours;
  CdfSampler bitrates;
};

/// The sessions of content `id` in stream order, appended to `out`.
inline void append_content_sessions(const TraceGenerator& gen,
                                    const Samplers& samplers,
                                    std::uint32_t id,
                                    std::vector<SessionRecord>& out) {
  const TraceConfig& config = gen.config();
  const ContentInfo& info = gen.catalogue().item(id);
  Rng rng(config.seed ^ (0x517cc1b727220a95ULL * (id + 1)));
  const std::uint64_t n =
      rng.poisson(info.expected_views_per_month * config.days / 30.0);
  const auto whole_days =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(config.days));
  const double span_s = config.span().value();
  const double mu = std::log(config.watch_mean_fraction) -
                    0.5 * config.watch_sigma * config.watch_sigma;
  const CdfSampler& users = id < gen.catalogue().exemplar_count()
                               ? samplers.head_users
                               : samplers.tail_users;
  for (std::uint64_t i = 0; i < n; ++i) {
    SessionRecord s;
    s.content = id;
    s.user = static_cast<std::uint32_t>(users(rng));
    const UserProfile& profile = gen.users()[s.user];
    s.household = profile.household;
    s.isp = profile.isp;
    s.exp = profile.exp;
    s.bitrate = kAllBitrateClasses[samplers.bitrates(rng)];
    const double day = static_cast<double>(rng.uniform_index(whole_days));
    const double hour = static_cast<double>(samplers.hours(rng));
    s.start = day * 86400.0 + hour * 3600.0 + rng.uniform(0.0, 3600.0);
    const double fraction =
        std::clamp(rng.lognormal(mu, config.watch_sigma), 0.05, 1.0);
    s.duration = info.nominal_length.value() * fraction;
    if (s.start >= span_s) s.start = span_s - 1.0;
    if (s.end() > span_s) s.duration = span_s - s.start;
    out.push_back(s);
  }
}

/// The full trace `gen.generate()` must reproduce bit for bit.
inline Trace generate(const TraceGenerator& gen,
                      const std::string& metro_name) {
  const Samplers samplers(gen);
  std::vector<SessionRecord> sessions;
  for (std::uint32_t id = 0; id < gen.catalogue().size(); ++id) {
    append_content_sessions(gen, samplers, id, sessions);
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.content != b.content) return a.content < b.content;
              return a.user < b.user;
            });
  Trace trace;
  trace.sessions = std::move(sessions);
  trace.span = gen.config().span();
  trace.metro_name = metro_name;
  return trace;
}

/// The sessions `gen.generate_content(id)` must reproduce: one content's
/// stream, sorted by (start, user).
inline Trace generate_content(const TraceGenerator& gen,
                              const std::string& metro_name,
                              std::uint32_t id) {
  const Samplers samplers(gen);
  std::vector<SessionRecord> sessions;
  append_content_sessions(gen, samplers, id, sessions);
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.user < b.user;
            });
  Trace trace;
  trace.sessions = std::move(sessions);
  trace.span = gen.config().span();
  trace.metro_name = metro_name;
  return trace;
}

/// The swarm index by one comparison sort of the session indices on
/// (content, isp, bitrate, index), then a scan for group boundaries.
inline SwarmIndex build_swarm_index(const Trace& trace) {
  const std::size_t n = trace.sessions.size();
  SwarmIndex index;
  index.order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) index.order[i] = i;
  std::sort(index.order.begin(), index.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const SessionRecord& sa = trace.sessions[a];
              const SessionRecord& sb = trace.sessions[b];
              if (sa.content != sb.content) return sa.content < sb.content;
              if (sa.isp != sb.isp) return sa.isp < sb.isp;
              if (sa.bitrate != sb.bitrate) return sa.bitrate < sb.bitrate;
              return a < b;
            });
  for (std::size_t i = 0; i < n;) {
    const SessionRecord& first = trace.sessions[index.order[i]];
    SwarmIndexGroup group;
    group.content = first.content;
    group.isp = first.isp;
    group.bitrate = static_cast<std::uint8_t>(first.bitrate);
    group.begin = i;
    std::size_t end = i + 1;
    while (end < n) {
      const SessionRecord& s = trace.sessions[index.order[end]];
      if (s.content != first.content || s.isp != first.isp ||
          s.bitrate != first.bitrate) {
        break;
      }
      ++end;
    }
    group.count = end - i;
    index.groups.push_back(group);
    i = end;
  }
  return index;
}

}  // namespace cl::reference
