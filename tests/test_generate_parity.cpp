// Parity of the trace generator and the swarm-index build with their
// former bodies (tests/reference_generate.h), bit for bit.
//
// The generator fills fixed per-content slots from dynamically claimed
// contents and start-orders them with trace/start_order.h; the index
// build hashes keys and scatters. Both must reproduce the old sequential
// results exactly at every thread count, and the serialized `.cltrace`
// of two configurations is pinned by digests taken from the old code —
// a thread-count comparison alone cannot see a change that shifts every
// thread count's output alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "reference_generate.h"
#include "trace/swarm_index.h"
#include "trace/synthetic.h"
#include "trace/trace_binary.h"
#include "util/rng.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

/// The sharded-generation suite's small config (tests/test_parallel.cpp).
TraceConfig small_config() {
  TraceConfig config;
  config.days = 3;
  config.users = 2000;
  config.exemplar_views = {10000, 1000};
  config.catalogue_tail = 200;
  config.tail_views = 15000;
  return config;
}

TraceConfig scaled_3d() {
  TraceConfig config = TraceConfig::london_month_scaled(3);
  config.seed = 11;
  return config;
}

/// The paper month's catalogue shape over fewer users and one day.
TraceConfig paper_shaped() {
  TraceConfig config = TraceConfig::london_month_paper(1);
  config.users = 20000;
  config.seed = 7;
  return config;
}

/// FNV-1a 64-bit digest of a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void expect_same_trace(const Trace& actual, const Trace& expected,
                       const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  EXPECT_EQ(actual.span.value(), expected.span.value()) << what;
  EXPECT_EQ(actual.metro_name, expected.metro_name) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const SessionRecord& a = actual.sessions[i];
    const SessionRecord& b = expected.sessions[i];
    ASSERT_EQ(a.user, b.user) << what << " i=" << i;
    ASSERT_EQ(a.household, b.household) << what << " i=" << i;
    ASSERT_EQ(a.content, b.content) << what << " i=" << i;
    ASSERT_EQ(a.isp, b.isp) << what << " i=" << i;
    ASSERT_EQ(a.exp, b.exp) << what << " i=" << i;
    ASSERT_EQ(a.bitrate, b.bitrate) << what << " i=" << i;
    // Exact on purpose: the contract is bit-identity.
    ASSERT_EQ(a.start, b.start) << what << " i=" << i;
    ASSERT_EQ(a.duration, b.duration) << what << " i=" << i;
  }
}

void expect_same_index(const SwarmIndex& actual, const SwarmIndex& expected) {
  ASSERT_EQ(actual.groups.size(), expected.groups.size());
  for (std::size_t g = 0; g < actual.groups.size(); ++g) {
    const SwarmIndexGroup& a = actual.groups[g];
    const SwarmIndexGroup& b = expected.groups[g];
    ASSERT_EQ(a.content, b.content) << "group " << g;
    ASSERT_EQ(a.isp, b.isp) << "group " << g;
    ASSERT_EQ(a.bitrate, b.bitrate) << "group " << g;
    ASSERT_EQ(a.begin, b.begin) << "group " << g;
    ASSERT_EQ(a.count, b.count) << "group " << g;
  }
  ASSERT_EQ(actual.order, expected.order);
}

void expect_generate_matches_reference(TraceConfig config,
                                       const std::string& name) {
  const Trace expected =
      reference::generate(TraceGenerator(config, metro()), metro().name());
  ASSERT_GT(expected.size(), 0u);
  for (const unsigned threads : {1u, 2u, 3u, 4u, 7u, 0u}) {
    config.threads = threads;
    expect_same_trace(TraceGenerator(config, metro()).generate(), expected,
                      name + " threads=" + std::to_string(threads));
  }
}

TEST(GeneratorParity, SmallConfigMatchesReferenceAtEveryThreadCount) {
  expect_generate_matches_reference(small_config(), "small");
}

TEST(GeneratorParity, ScaledThreeDaysMatchesReferenceAtEveryThreadCount) {
  expect_generate_matches_reference(scaled_3d(), "scaled 3d");
}

TEST(GeneratorParity, PaperShapedMatchesReferenceAtEveryThreadCount) {
  expect_generate_matches_reference(paper_shaped(), "paper-shaped");
}

TEST(GeneratorParity, GenerateContentMatchesReference) {
  TraceConfig config = small_config();
  config.threads = 4;
  TraceGenerator gen(config, metro());
  const std::uint32_t last =
      static_cast<std::uint32_t>(gen.catalogue().size() - 1);
  for (const std::uint32_t id : {0u, 1u, 2u, 57u, last}) {
    expect_same_trace(gen.generate_content(id),
                      reference::generate_content(gen, metro().name(), id),
                      "content " + std::to_string(id));
  }
}

TEST(GeneratorParity, CltraceDigestsMatchThePreviousGenerator) {
  // Digests of serialize_trace_binary taken before the generator moved to
  // per-content slots, the start-order helper and the guide-table
  // sampler, and before the index build moved to hashing.
  TraceConfig small = small_config();
  small.threads = 1;
  const Trace a = TraceGenerator(small, metro()).generate();
  EXPECT_EQ(a.size(), 2645u);
  EXPECT_EQ(fnv1a(serialize_trace_binary(a)), 0x2cfa38c9a06fc152ULL);

  TraceConfig scaled = scaled_3d();
  scaled.threads = 4;
  const Trace b = TraceGenerator(scaled, metro()).generate();
  EXPECT_EQ(b.size(), 415111u);
  EXPECT_EQ(fnv1a(serialize_trace_binary(b)), 0x918fbbdbe46d1d00ULL);
}

// ---------------------------------------------------------- swarm index

/// A trace of `n` sessions with keys drawn from the given ranges; starts
/// ascend so the trace is valid, but keys are shuffled across it.
Trace random_trace(std::size_t n, std::uint64_t seed, std::uint32_t contents,
                   std::uint32_t isps, bool wide_ids) {
  Rng rng(seed);
  Trace trace;
  trace.span = Seconds{1e9};
  trace.sessions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    SessionRecord& s = trace.sessions[i];
    s.user = static_cast<std::uint32_t>(i);
    s.content = static_cast<std::uint32_t>(rng.uniform_index(contents));
    s.isp = static_cast<std::uint32_t>(rng.uniform_index(isps));
    if (wide_ids) {
      // Mirror into the top of the id space, up to 2^32 − 1.
      s.content = std::numeric_limits<std::uint32_t>::max() - s.content;
      s.isp = std::numeric_limits<std::uint32_t>::max() - s.isp;
    }
    s.bitrate = kAllBitrateClasses[rng.uniform_index(kBitrateClasses)];
    s.start = static_cast<double>(i);
    s.duration = 1.0;
  }
  return trace;
}

void expect_index_matches_reference(const Trace& trace) {
  const SwarmIndex index = build_swarm_index(trace);
  validate_swarm_index(index, trace);
  expect_same_index(index, reference::build_swarm_index(trace));
}

TEST(SwarmIndexParity, RandomTracesMatchTheComparisonSort) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_index_matches_reference(random_trace(5000, seed, 40, 5, false));
  }
}

TEST(SwarmIndexParity, WideContentAndIspIds) {
  expect_index_matches_reference(random_trace(20000, 11, 300, 3, true));
  const Trace trace = random_trace(2000, 12, 2, 2, true);
  const SwarmIndex index = build_swarm_index(trace);
  EXPECT_EQ(index.groups.front().content,
            std::numeric_limits<std::uint32_t>::max() - 1);
  EXPECT_EQ(index.groups.back().content,
            std::numeric_limits<std::uint32_t>::max());
}

TEST(SwarmIndexParity, ManyIsps) {
  // More distinct keys than the hash table's first size, so it grows.
  expect_index_matches_reference(random_trace(30000, 21, 50, 4000, false));
}

TEST(SwarmIndexParity, SingleGroup) {
  Trace trace = random_trace(3000, 31, 1, 1, false);
  for (SessionRecord& s : trace.sessions) s.bitrate = BitrateClass::kHd;
  expect_index_matches_reference(trace);
  const SwarmIndex index = build_swarm_index(trace);
  ASSERT_EQ(index.groups.size(), 1u);
  EXPECT_EQ(index.groups[0].count, 3000u);
}

TEST(SwarmIndexParity, AllDistinctKeys) {
  Trace trace = random_trace(4096, 41, 1, 1, false);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    // Descending keys, so the sorted order reverses the session order.
    trace.sessions[i].content =
        static_cast<std::uint32_t>(trace.size() - 1 - i);
  }
  expect_index_matches_reference(trace);
  EXPECT_EQ(build_swarm_index(trace).groups.size(), trace.size());
}

TEST(SwarmIndexParity, EmptyTrace) {
  const Trace trace;
  const SwarmIndex index = build_swarm_index(trace);
  EXPECT_TRUE(index.groups.empty());
  EXPECT_TRUE(index.order.empty());
  validate_swarm_index(index, trace);
}

TEST(SwarmIndexParity, GeneratedTrace) {
  TraceConfig config = scaled_3d();
  config.threads = 4;
  expect_index_matches_reference(TraceGenerator(config, metro()).generate());
}

}  // namespace
}  // namespace cl
