#include "trace/synthetic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "trace/start_order.h"
#include "util/error.h"
#include "util/parallel.h"

namespace cl {

namespace {

std::vector<UserProfile> build_users(const TraceConfig& config,
                                     const Metro& metro) {
  Rng rng(config.seed ^ 0x5a5a5a5a5a5a5a5aULL);
  Rng activity_rng(config.seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  Rng taste_rng(config.seed ^ 0x3c3c3c3c3c3c3c3cULL);
  const auto households = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(
             config.households_ratio * static_cast<double>(config.users))));
  std::vector<UserProfile> users;
  users.reserve(config.users);
  for (std::uint32_t u = 0; u < config.users; ++u) {
    UserProfile profile;
    profile.isp = metro.sample_isp(rng);
    profile.exp = metro.place_user(profile.isp, rng).exp;
    profile.household =
        static_cast<std::uint32_t>(rng.uniform_index(households));
    profile.activity =
        activity_rng.lognormal(0.0, config.user_activity_sigma);
    profile.mainstream = taste_rng.uniform();
    users.push_back(profile);
  }
  return users;
}

std::vector<double> taste_weights(const std::vector<UserProfile>& users,
                                  double skew, bool head) {
  std::vector<double> w;
  w.reserve(users.size());
  for (const auto& u : users) {
    const double taste = head ? u.mainstream : 1.0 - u.mainstream;
    // The epsilon keeps every user reachable from every tier.
    w.push_back(u.activity * (std::pow(taste, skew) + 1e-9));
  }
  return w;
}

}  // namespace

std::array<double, 24> TraceConfig::default_diurnal() {
  // Catch-up TV: overnight trough, daytime shoulder, strong evening peak.
  return {0.40, 0.25, 0.15, 0.10, 0.10, 0.15, 0.30, 0.50,
          0.70, 0.80, 0.90, 1.00, 1.10, 1.00, 1.00, 1.10,
          1.30, 1.70, 2.30, 3.00, 3.20, 2.80, 1.80, 0.90};
}

TraceConfig TraceConfig::london_month_scaled(double days) {
  TraceConfig config;
  config.days = days;
  config.users = 30000;
  config.exemplar_views = {100000, 10000, 1000};
  // "Top episodes" head: the few hundred popular broadcast episodes that
  // dominate a catch-up month.
  double views = 300000;
  for (int i = 0; i < 28; ++i) {
    config.exemplar_views.push_back(views);
    views *= 0.90;
  }
  // Mid/long tail calibrated so the median catalogue item saves ~1-2 %
  // (paper Fig. 3) while the aggregate stays in the Fig. 4 band.
  config.catalogue_tail = 500;
  config.tail_views = 1200000;
  config.bitrate_mix = {0.08, 0.72, 0.15, 0.05};
  return config;
}

TraceConfig TraceConfig::london_month_paper(double days) {
  // The 1:1 month replicates the scaled month's catalogue *shape* ~6x:
  // the same per-item view tiers, six items at each tier instead of one.
  // Per-swarm capacities — the only trace statistic the savings results
  // consume (DESIGN.md §1) — are therefore distributed exactly as in the
  // calibrated scaled config, so the Fig. 4 band carries over; what grows
  // is the extensive side: 3.3 M users producing ~23.5 M sessions
  // (Table I), with "a few hundred popular episodes" (3 exemplars +
  // 168 head items, ~17 M sessions) dominating the month as in the BBC
  // workload.
  TraceConfig config;
  config.days = days;
  config.users = 3300000;  // Table I: 3.3 M users, households_ratio 0.45
  config.exemplar_views = {100000, 10000, 1000};
  double views = 300000;
  for (int i = 0; i < 28; ++i) {
    for (int k = 0; k < 6; ++k) config.exemplar_views.push_back(views);
    views *= 0.90;
  }
  config.catalogue_tail = 3000;   // 6 x the scaled 500-item tail
  config.tail_views = 6400000;    // total lands at ~23.5 M sessions/month
  config.bitrate_mix = {0.08, 0.72, 0.15, 0.05};
  return config;
}

TraceGenerator::TraceGenerator(TraceConfig config, const Metro& metro)
    : config_([&] {
        CL_EXPECTS(config.days >= 1);
        CL_EXPECTS(config.users >= 1);
        CL_EXPECTS(config.households_ratio > 0 &&
                   config.households_ratio <= 1);
        CL_EXPECTS(config.watch_mean_fraction > 0 &&
                   config.watch_mean_fraction <= 1);
        CL_EXPECTS(config.watch_sigma >= 0);
        CL_EXPECTS(config.taste_skew >= 0);
        return std::move(config);
      }()),
      metro_(&metro),
      catalogue_(config_.exemplar_views, config_.catalogue_tail,
                 config_.tail_views, config_.zipf_exponent),
      users_(build_users(config_, metro)),
      head_user_sampler_(taste_weights(users_, config_.taste_skew, true)),
      tail_user_sampler_(taste_weights(users_, config_.taste_skew, false)),
      hour_sampler_(std::vector<double>(config_.diurnal.begin(),
                                        config_.diurnal.end())),
      bitrate_sampler_(std::vector<double>(config_.bitrate_mix.begin(),
                                           config_.bitrate_mix.end())) {}

Rng TraceGenerator::content_stream(std::uint32_t content_id) const {
  return Rng(config_.seed ^ (0x517cc1b727220a95ULL * (content_id + 1)));
}

std::uint64_t TraceGenerator::session_count(std::uint32_t content_id,
                                            Rng& rng) const {
  return rng.poisson(catalogue_.item(content_id).expected_views_per_month *
                     config_.days / 30.0);
}

Trace TraceGenerator::generate() {
  // Every content item owns a deterministically seeded RNG stream whose
  // first draw is its session count. A prefix sum over the counts gives
  // each content a fixed slot range, so workers can claim contents in
  // any order — largest first, for balance — and fill their slots
  // independently. The slots hold the sessions in content-id order, the
  // position that breaks full-key ties in the final start order: the
  // trace is bit-identical for every thread count.
  const std::size_t contents = catalogue_.size();
  std::vector<Rng> streams;
  streams.reserve(contents);
  std::vector<std::size_t> slot_begin(contents + 1);
  for (std::uint32_t id = 0; id < contents; ++id) {
    streams.push_back(content_stream(id));
    slot_begin[id + 1] = slot_begin[id] + session_count(id, streams.back());
  }
  std::vector<std::uint32_t> claims(contents);
  std::iota(claims.begin(), claims.end(), 0u);
  std::stable_sort(claims.begin(), claims.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return slot_begin[a + 1] - slot_begin[a] >
                            slot_begin[b + 1] - slot_begin[b];
                   });
  std::vector<SessionRecord> sessions(slot_begin.back());
  parallel_claims(contents, config_.threads, [&](std::size_t c) {
    const std::uint32_t id = claims[c];
    // A local copy: neighbouring streams share cache lines, and every
    // draw writes the state.
    Rng rng = streams[id];
    fill_content_sessions(id, rng,
                          std::span(sessions.data() + slot_begin[id],
                                    slot_begin[id + 1] - slot_begin[id]));
  });
  return ordered_trace(std::move(sessions));
}

Trace TraceGenerator::generate_content(std::uint32_t content_id) {
  CL_EXPECTS(content_id < catalogue_.size());
  Rng rng = content_stream(content_id);
  std::vector<SessionRecord> sessions(session_count(content_id, rng));
  fill_content_sessions(content_id, rng, sessions);
  return ordered_trace(std::move(sessions));
}

Trace TraceGenerator::ordered_trace(
    std::vector<SessionRecord> sessions) const {
  std::vector<std::uint32_t> order = start_order(
      sessions.size(),
      [&](std::size_t i) {
        const SessionRecord& s = sessions[i];
        return StartKey{s.start, s.content, s.user};
      },
      config_.threads);
  // Apply the permutation in place, one cycle at a time — a gathered copy
  // would double the trace's peak memory. A visited position is marked
  // as a fixed point.
  for (std::size_t j = 0; j < order.size(); ++j) {
    if (order[j] == j) continue;
    const SessionRecord carried = sessions[j];
    std::size_t k = j;
    for (;;) {
      const std::size_t from = order[k];
      order[k] = static_cast<std::uint32_t>(k);
      if (from == j) {
        sessions[k] = carried;
        break;
      }
      sessions[k] = sessions[from];
      k = from;
    }
  }
  Trace trace;
  trace.sessions = std::move(sessions);
  trace.span = config_.span();
  trace.metro_name = metro_->name();  // empty for unnamed custom metros
  trace.validate();
  return trace;
}

void TraceGenerator::fill_content_sessions(
    std::uint32_t content_id, Rng& rng, std::span<SessionRecord> out) const {
  const ContentInfo& info = catalogue_.item(content_id);
  const auto whole_days =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(config_.days));
  const double span_s = config_.span().value();
  // Watch fraction ~ LogNormal(mu, sigma) with mean watch_mean_fraction.
  const double mu = std::log(config_.watch_mean_fraction) -
                    0.5 * config_.watch_sigma * config_.watch_sigma;
  // Head (exemplar) contents draw mainstream viewers; the tail draws
  // niche viewers (see TraceConfig::taste_skew).
  const DiscreteSampler& user_sampler =
      content_id < catalogue_.exemplar_count() ? head_user_sampler_
                                               : tail_user_sampler_;
  for (SessionRecord& s : out) {
    s.content = content_id;
    s.user = static_cast<std::uint32_t>(user_sampler(rng));
    const UserProfile& profile = users_[s.user];
    s.household = profile.household;
    s.isp = profile.isp;
    s.exp = profile.exp;
    s.bitrate = kAllBitrateClasses[bitrate_sampler_(rng)];
    const double day = static_cast<double>(rng.uniform_index(whole_days));
    const double hour = static_cast<double>(hour_sampler_(rng));
    s.start = day * 86400.0 + hour * 3600.0 + rng.uniform(0.0, 3600.0);
    const double fraction =
        std::clamp(rng.lognormal(mu, config_.watch_sigma), 0.05, 1.0);
    s.duration = info.nominal_length.value() * fraction;
    if (s.start >= span_s) s.start = span_s - 1.0;
    if (s.end() > span_s) s.duration = span_s - s.start;
  }
}

}  // namespace cl
