// test_sweep_kernels.cpp — the swarm sweep's hot loops
// (sim/sweep_kernels.h) and its flat existence allocator.
//
// Each kernel is checked against the obvious expression written out in
// the test, at the lengths where unrolled or vectorized loop code goes
// wrong — 0, 1, a few, either side of the 8-accumulator stripe and of
// the prefetch distance, and a large randomized body — and doubles are
// compared *bitwise* (never near): the simulator's results must not
// depend on how the compiler vectorizes these loops. Window-bound
// inputs include denormals and values an ulp either side of a window
// boundary, where the truncations must agree too.
//
// The flat allocator (SwarmSweep::sweep on single-ISP swarms) divides
// once per touched ExP/PoP bucket, where the generic ExistenceMatcher
// behind sweep_rows divides per peer; hand-built swarms pin the two
// bit for bit on the bucket shapes that exercise that rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>
#include <vector>

#include "sim/swarm_sweep.h"
#include "sim/sweep_kernels.h"
#include "topology/metro_registry.h"
#include "trace/trace_view.h"
#include "util/rng.h"

namespace cl {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The lengths every kernel is checked at (plus a large body).
std::vector<std::size_t> boundary_lengths() {
  using sweep_kernels::kPrefetchAhead;
  using sweep_kernels::kStripe;
  return {0, 1, 2, 3, 4, 5, kStripe - 1, kStripe, kStripe + 1,
          2 * kStripe + 1, kPrefetchAhead, kPrefetchAhead + 1, 10000};
}

/// A scattered "trace" of n sessions reached through an out-of-order
/// index column, as the sweep does.
struct KernelInput {
  std::vector<std::uint32_t> indices;
  std::vector<double> start, duration;
  std::vector<std::uint32_t> user, isp, exp;
  std::vector<std::uint8_t> bitrate;
};

KernelInput make_input(std::size_t n, Rng& rng, bool boundary_starts) {
  // The backing columns are larger than the swarm and indexed out of
  // order — gathers must not assume contiguity.
  const std::size_t cols = n + 64;
  KernelInput in;
  in.start.resize(cols);
  in.duration.resize(cols);
  in.user.resize(cols);
  in.isp.resize(cols);
  in.exp.resize(cols);
  in.bitrate.resize(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    in.start[i] = rng.uniform(0.0, 86400.0);
    in.duration[i] = rng.uniform(0.0, 5400.0);
    in.user[i] = static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
    in.isp[i] = static_cast<std::uint32_t>(rng.uniform_index(3));
    in.exp[i] = static_cast<std::uint32_t>(rng.uniform_index(40));
    in.bitrate[i] = static_cast<std::uint8_t>(rng.uniform_index(4));
  }
  if (boundary_starts) {
    // Exactly on / an ulp either side of a Δτ = 10 s window boundary,
    // plus denormal and epsilon-scale values — the truncation edge.
    in.start[0] = 120.0;
    in.start[1] = std::nextafter(120.0, 0.0);
    in.start[2] = std::nextafter(120.0, 1e9);
    in.start[3] = 5e-324;  // smallest denormal
    in.start[4] = std::numeric_limits<double>::epsilon();
    in.duration[4] = 5e-324;
    in.duration[5] = 0.0;
    in.duration[6] = std::nextafter(10.0, 0.0);
    in.duration[7] = std::nextafter(10.0, 1e9);
  }
  in.indices.resize(n);
  for (std::size_t g = 0; g < n; ++g) {
    in.indices[g] = static_cast<std::uint32_t>(g * 2 % cols);
  }
  return in;
}

TEST(SweepKernels, WindowBoundsMatchesNaiveBitwise) {
  using sweep_kernels::kStripe;
  static_assert(kStripe == 8, "the fold below is written out for 8");
  for (const std::size_t n : boundary_lengths()) {
    Rng rng(42 + n);
    const KernelInput in = make_input(n, rng, /*boundary_starts=*/true);
    const double dt = 10.0;
    std::vector<std::uint64_t> ws(n), we(n);
    const sweep_kernels::WindowBounds r = sweep_kernels::window_bounds(
        in.indices, in.start.data(), in.duration.data(), dt, ws.data(),
        we.data());

    double acc[kStripe] = {};
    std::size_t crossings = 0;
    std::uint64_t max_end = 0;
    for (std::size_t g = 0; g < n; ++g) {
      const double s = in.start[in.indices[g]];
      const double d = in.duration[in.indices[g]];
      acc[g % kStripe] += d;
      const auto w0 = static_cast<std::uint64_t>(s / dt);
      const auto w1 = static_cast<std::uint64_t>((s + d) / dt);
      ASSERT_EQ(ws[g], w0) << "n=" << n << " g=" << g;
      ASSERT_EQ(we[g], w1) << "n=" << n << " g=" << g;
      if (w1 > w0) ++crossings;
      max_end = std::max(max_end, w1);
    }
    const double watch = ((((((acc[0] + acc[1]) + acc[2]) + acc[3]) +
                            acc[4]) + acc[5]) + acc[6]) + acc[7];
    EXPECT_EQ(bits(r.watch_seconds), bits(watch))
        << "watch-time reduction diverged at n=" << n;
    EXPECT_EQ(r.crossings, crossings) << "n=" << n;
    EXPECT_EQ(r.max_end_window, max_end) << "n=" << n;
  }
}

TEST(SweepKernels, GatherPeerColumnsMatchesDirectIndexing) {
  const std::array<double, 4> beta{800000.0, 1500000.0, 3000000.0,
                                   5000000.0};
  for (const std::size_t n : boundary_lengths()) {
    if (n == 0) continue;  // the kernel requires n >= 1 (reads indices[0])
    Rng rng(7 + n);
    const KernelInput in = make_input(n, rng, false);
    std::vector<std::uint32_t> users(n), isps(n), exps(n);
    std::vector<double> betas(n);
    const sweep_kernels::PeerGather r = sweep_kernels::gather_peer_columns(
        in.indices, in.user.data(), in.isp.data(), in.exp.data(),
        in.bitrate.data(), beta.data(), users.data(), isps.data(),
        exps.data(), betas.data());

    std::uint32_t max_exp = 0;
    bool single_isp = true;
    for (std::size_t g = 0; g < n; ++g) {
      const std::uint32_t idx = in.indices[g];
      ASSERT_EQ(users[g], in.user[idx]) << "n=" << n << " g=" << g;
      ASSERT_EQ(isps[g], in.isp[idx]) << "n=" << n << " g=" << g;
      ASSERT_EQ(exps[g], in.exp[idx]) << "n=" << n << " g=" << g;
      ASSERT_EQ(bits(betas[g]), bits(beta[in.bitrate[idx]]))
          << "n=" << n << " g=" << g;
      max_exp = std::max(max_exp, in.exp[idx]);
      single_isp = single_isp && in.isp[idx] == in.isp[in.indices[0]];
    }
    EXPECT_EQ(r.max_exp, max_exp) << "n=" << n;
    EXPECT_EQ(r.single_isp, single_isp) << "n=" << n;

    // A null user column skips that gather but must not disturb the rest.
    std::vector<std::uint32_t> isps2(n), exps2(n);
    std::vector<double> betas2(n);
    const sweep_kernels::PeerGather rn = sweep_kernels::gather_peer_columns(
        in.indices, in.user.data(), in.isp.data(), in.exp.data(),
        in.bitrate.data(), beta.data(), nullptr, isps2.data(), exps2.data(),
        betas2.data());
    EXPECT_EQ(rn.max_exp, r.max_exp);
    EXPECT_EQ(rn.single_isp, r.single_isp);
    EXPECT_EQ(isps2, isps);
    EXPECT_EQ(exps2, exps);
    EXPECT_EQ(betas2, betas);
  }
}

TEST(SweepKernels, GatherPopsMatchesDirectIndexing) {
  std::vector<std::uint32_t> table(40);
  for (std::size_t e = 0; e < table.size(); ++e) {
    table[e] = static_cast<std::uint32_t>(e / 3);
  }
  for (const std::size_t n : boundary_lengths()) {
    Rng rng(11 + n);
    std::vector<std::uint32_t> g_exp(n);
    for (auto& e : g_exp) {
      e = static_cast<std::uint32_t>(rng.uniform_index(table.size()));
    }
    std::vector<std::uint32_t> pops(n);
    const std::uint32_t max_pop = sweep_kernels::gather_pops(
        g_exp.data(), n, table.data(), pops.data());
    std::uint32_t expect_max = 0;
    for (std::size_t g = 0; g < n; ++g) {
      ASSERT_EQ(pops[g], table[g_exp[g]]) << "n=" << n << " g=" << g;
      expect_max = std::max(expect_max, table[g_exp[g]]);
    }
    EXPECT_EQ(max_pop, expect_max) << "n=" << n;
  }
}

TEST(SweepKernels, FoldTrafficMatchesMultiplyAddBitwise) {
  using sweep_kernels::kTrafficLanes;
  Rng rng(31);
  for (int rep = 0; rep < 100; ++rep) {
    double tb[kTrafficLanes];
    double expect[kTrafficLanes];
    double al[kTrafficLanes];
    for (std::size_t k = 0; k < kTrafficLanes; ++k) {
      tb[k] = rng.uniform(0.0, 1e12);
      al[k] = rng.uniform(0.0, 1e7);
    }
    const double windows = rng.uniform(1.0, 8640.0);
    for (std::size_t k = 0; k < kTrafficLanes; ++k) {
      const double product = al[k] * windows;
      expect[k] = tb[k] + product;
    }
    sweep_kernels::fold_traffic(tb, al, windows);
    for (std::size_t k = 0; k < kTrafficLanes; ++k) {
      EXPECT_EQ(bits(tb[k]), bits(expect[k])) << "rep=" << rep << " k=" << k;
    }
  }
}

// ------------------------------------------- flat allocator vs matcher

const Metro& london() { return MetroRegistry::instance().get("london_top5"); }

/// One hand-built single-ISP swarm (ISP 0 of london_top5): session i
/// sits at ExP `exps[i]`; starts fall in the first `start_span` seconds
/// (by default the first hour), ascending, and durations run up to
/// `max_duration` seconds — by default long enough that stretches hold
/// many peers at once.
Trace make_swarm(const std::vector<std::uint32_t>& exps, std::uint64_t seed,
                 double max_duration = 7200.0, double start_span = 3600.0) {
  Rng rng(seed);
  std::vector<double> starts(exps.size());
  for (double& s : starts) s = rng.uniform(0.0, start_span);
  std::sort(starts.begin(), starts.end());
  Trace trace;
  trace.span = Seconds{86400.0};
  for (std::size_t i = 0; i < exps.size(); ++i) {
    SessionRecord s;
    s.user = static_cast<std::uint32_t>(i);
    s.household = s.user;
    s.isp = 0;
    s.exp = exps[i];
    s.bitrate = static_cast<BitrateClass>(rng.uniform_index(kBitrateClasses));
    s.start = starts[i];
    s.duration = rng.uniform(5.0, max_duration);
    trace.sessions.push_back(s);
  }
  return trace;
}

void expect_traffic_bitwise(const TrafficBreakdown& a,
                            const TrafficBreakdown& b) {
  EXPECT_EQ(bits(a.server.value()), bits(b.server.value()));
  EXPECT_EQ(bits(a.cross_isp.value()), bits(b.cross_isp.value()));
  for (std::size_t l = 0; l < kLocalityLevels; ++l) {
    EXPECT_EQ(bits(a.peer[l].value()), bits(b.peer[l].value()));
  }
}

/// Sweeps `trace` as one swarm down both data paths at each q/β and
/// requires bitwise-identical totals, hourly grids, per-user up/down
/// volumes (where the upload shares land) and per-swarm rows.
void expect_sweep_matches_rows(const Trace& trace) {
  const TraceView view = TraceView::from_trace(trace);
  std::vector<std::uint32_t> indices(trace.size());
  std::iota(indices.begin(), indices.end(), 0u);
  const SwarmKey key{0, 0, SwarmKey::kAnyBitrate};
  for (const double q : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(testing::Message() << "q/beta=" << q);
    SimConfig config;
    config.q_over_beta = q;
    SwarmSweep sweep(london(), config);
    SimResult soa;
    SimResult rows;
    sweep.sweep(key, indices, view, soa);
    sweep.sweep_rows(key, indices, trace, rows);

    expect_traffic_bitwise(soa.total, rows.total);
    ASSERT_EQ(soa.hourly.size(), rows.hourly.size());
    for (std::size_t h = 0; h < soa.hourly.size(); ++h) {
      ASSERT_EQ(soa.hourly[h].size(), rows.hourly[h].size());
      for (std::size_t i = 0; i < soa.hourly[h].size(); ++i) {
        expect_traffic_bitwise(soa.hourly[h][i], rows.hourly[h][i]);
      }
    }
    ASSERT_EQ(soa.users.size(), rows.users.size());
    double uploaded = 0;
    for (const auto& [user, traffic] : soa.users) {
      const auto it = rows.users.find(user);
      ASSERT_NE(it, rows.users.end()) << "user " << user;
      EXPECT_EQ(bits(traffic.downloaded.value()),
                bits(it->second.downloaded.value()))
          << "user " << user;
      EXPECT_EQ(bits(traffic.uploaded.value()),
                bits(it->second.uploaded.value()))
          << "user " << user;
      uploaded += traffic.uploaded.value();
    }
    ASSERT_EQ(soa.swarms.size(), 1u);
    ASSERT_EQ(rows.swarms.size(), 1u);
    EXPECT_EQ(bits(soa.swarms[0].capacity), bits(rows.swarms[0].capacity));
    expect_traffic_bitwise(soa.swarms[0].traffic, rows.swarms[0].traffic);
    // The swarms are dense enough that peers serve whenever q/β > 0.
    if (q > 0) {
      EXPECT_GT(uploaded, 0.0);
    } else {
      EXPECT_EQ(uploaded, 0.0);
    }
  }
}

TEST(SweepFlatAllocator, ThousandsOfPeersInThreeExpsMatchRowsBitwise) {
  const IspTopology& isp = london().isp(0);
  ASSERT_GE(isp.exchange_points(), 3u);
  Rng rng(5);
  std::vector<std::uint32_t> exps(4500);
  for (auto& e : exps) e = static_cast<std::uint32_t>(rng.uniform_index(3));
  expect_sweep_matches_rows(make_swarm(exps, 1));
}

TEST(SweepFlatAllocator, AllPeersInOneBucketMatchRowsBitwise) {
  const std::vector<std::uint32_t> exps(300, 2);
  expect_sweep_matches_rows(make_swarm(exps, 2));
}

TEST(SweepFlatAllocator, AllBucketsDistinctMatchRowsBitwise) {
  // Every ExP once: no two peers share an ExP, so every ExP share is
  // +0.0 and the PoPs serve.
  const IspTopology& isp = london().isp(0);
  std::vector<std::uint32_t> exps(isp.exchange_points());
  std::iota(exps.begin(), exps.end(), 0u);
  expect_sweep_matches_rows(make_swarm(exps, 3));

  // One ExP per PoP: no two peers share an ExP or a PoP either, so
  // every transfer is served at the core.
  exps.resize(isp.pops());
  for (std::uint32_t e = 0; e < isp.pops(); ++e) {
    ASSERT_EQ(isp.pop_of(e), e);
  }
  expect_sweep_matches_rows(make_swarm(exps, 3));
}

TEST(SweepFlatAllocator, MixedServingLevelsMatchRowsBitwise) {
  // ~50 concurrent peers over 45 ExPs (5 per PoP): some ExPs are shared,
  // many are singletons whose peers are served at their PoP, and lone
  // PoPs go to the core — so many peers collect a nonzero ExP, PoP and
  // core share at once, and the order of the three adds shows.
  Rng rng(6);
  std::vector<std::uint32_t> exps(600);
  for (auto& e : exps) e = static_cast<std::uint32_t>(rng.uniform_index(45));
  expect_sweep_matches_rows(make_swarm(exps, 5, /*max_duration=*/600.0));
}

TEST(SweepFlatAllocator, SeedAloneInItsBucketMatchRowsBitwise) {
  // Session 0 starts first, so it seeds every stretch it is part of; it
  // is the only peer at its ExP and PoP, while the rest crowd two ExPs
  // of another PoP.
  const IspTopology& isp = london().isp(0);
  std::uint32_t lone = 0;
  std::vector<std::uint32_t> crowd;
  for (std::uint32_t e = 1; e < isp.exchange_points() && crowd.size() < 2;
       ++e) {
    if (isp.pop_of(e) != isp.pop_of(lone)) crowd.push_back(e);
  }
  ASSERT_EQ(crowd.size(), 2u);
  std::vector<std::uint32_t> exps(400);
  exps[0] = lone;
  for (std::size_t i = 1; i < exps.size(); ++i) exps[i] = crowd[i % 2];
  Trace trace = make_swarm(exps, 4);
  trace.sessions[0].start = 0.0;
  trace.sessions[0].duration = 86000.0;
  expect_sweep_matches_rows(trace);
}

TEST(SweepFlatAllocator, SparseLoneAndPairStretchesMatchRowsBitwise) {
  // Short sessions spread over six hours: most stretches hold one or two
  // peers, the shapes the sweep's lone-peer route and its smallest
  // allocations see in sparse swarms. Peers sit at ExP `a`, at another
  // ExP of a's PoP, or in another PoP, so pairs are served at the ExP,
  // the PoP or the core.
  const IspTopology& isp = london().isp(0);
  const std::uint32_t a = 0;
  std::uint32_t same_pop = a;
  std::uint32_t other_pop = a;
  for (std::uint32_t e = 1; e < isp.exchange_points(); ++e) {
    const bool shares_pop = isp.pop_of(e) == isp.pop_of(a);
    if (same_pop == a && shares_pop) same_pop = e;
    if (other_pop == a && !shares_pop) other_pop = e;
  }
  ASSERT_NE(same_pop, a);
  ASSERT_NE(other_pop, a);
  const std::array<std::uint32_t, 3> partner{a, same_pop, other_pop};
  Rng rng(7);
  std::vector<std::uint32_t> exps(150);
  for (auto& e : exps) e = partner[rng.uniform_index(partner.size())];
  Trace trace = make_swarm(exps, 8, /*max_duration=*/300.0,
                           /*start_span=*/6 * 3600.0);

  // One isolated pair of each shape after the random sessions have left
  // (they end by 6 h + 300 s), each straddling an hour boundary with
  // starts off the window grid.
  for (std::size_t shape = 0; shape < partner.size(); ++shape) {
    const double boundary = 3600.0 * static_cast<double>(7 + shape);
    for (const auto& [exp, start, duration] :
         {std::tuple{a, boundary - 47.3, 101.0},
          std::tuple{partner[shape], boundary - 21.6, 58.9}}) {
      SessionRecord s;
      s.user = static_cast<std::uint32_t>(trace.sessions.size());
      s.household = s.user;
      s.isp = 0;
      s.exp = exp;
      s.bitrate = static_cast<BitrateClass>(shape % kBitrateClasses);
      s.start = start;
      s.duration = duration;
      trace.sessions.push_back(s);
    }
  }
  expect_sweep_matches_rows(trace);
}

}  // namespace
}  // namespace cl
