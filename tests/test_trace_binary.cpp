// Tests for the binary columnar trace format (trace/trace_binary.h), the
// mmap loader (trace/trace_mmap.h) and the swarm index
// (trace/swarm_index.h):
//
//  * round-trip property tests — CSV -> binary -> mmap-load reproduces
//    sessions bit-identically (exact float compares), including empty /
//    single-session / maximal-field-value traces and randomized traces
//    across several RNG seeds;
//  * a golden file committed under tests/data/ pinning the exact byte
//    layout (any accidental format change fails with a "bump the
//    version" message);
//  * corrupt-input rejection — bad magic, wrong version, truncated
//    column blocks, trailing bytes, out-of-range payloads;
//  * cross-thread determinism — the mmap load itself and the analyzer /
//    simulator results on an mmap-loaded trace are bit-identical at
//    --threads 1/2/7/hw and identical to the CSV-loaded path.
#include "trace/trace_binary.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "sim/swarm_key.h"
#include "topology/metro_registry.h"
#include "trace/swarm_index.h"
#include "trace/trace_format.h"
#include "trace/trace_io.h"
#include "trace/trace_mmap.h"
#include "trace/trace_view.h"
#include "trace/synthetic.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serialize.h"

#ifndef CL_TEST_DATA_DIR
#error "CMake must define CL_TEST_DATA_DIR (path of tests/data)"
#endif

namespace cl {
namespace {

// ---------------------------------------------------------------- helpers

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

/// Exact, field-by-field session equality (bit-exact doubles), plus the
/// header fields (span, metro name) that ride along.
void expect_sessions_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.span.value(), b.span.value());
  EXPECT_EQ(a.metro_name, b.metro_name);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SessionRecord& x = a.sessions[i];
    const SessionRecord& y = b.sessions[i];
    ASSERT_EQ(x.user, y.user) << "i=" << i;
    ASSERT_EQ(x.household, y.household) << "i=" << i;
    ASSERT_EQ(x.content, y.content) << "i=" << i;
    ASSERT_EQ(x.isp, y.isp) << "i=" << i;
    ASSERT_EQ(x.exp, y.exp) << "i=" << i;
    ASSERT_EQ(x.bitrate, y.bitrate) << "i=" << i;
    // Exact equality on purpose: the binary format stores IEEE-754 bit
    // patterns and must reproduce them losslessly.
    ASSERT_EQ(x.start, y.start) << "i=" << i;
    ASSERT_EQ(x.duration, y.duration) << "i=" << i;
  }
}

/// A temp file name private to this process: ctest -j runs every test in
/// its own process, and two of them sharing a file can see it removed or
/// rewritten while mapped.
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Writes raw bytes to a temp file and returns its path.
std::string write_bytes(const std::string& name, const std::string& bytes) {
  const std::string path = temp_path(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return path;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Binary round trip through an actual file + the mmap loader.
Trace binary_round_trip(const Trace& trace, unsigned threads = 1) {
  const std::string path = temp_path("cl_trace_binary_rt.cltrace");
  write_trace_binary_file(path, trace);
  Trace loaded = read_trace_binary_file(path, threads);
  std::filesystem::remove(path);
  return loaded;
}

Trace tiny_trace() {
  Trace t;
  t.span = Seconds::from_days(1);
  SessionRecord a;
  a.user = 1;
  a.household = 10;
  a.content = 5;
  a.isp = 2;
  a.exp = 77;
  a.bitrate = BitrateClass::kHd;
  a.start = 100.5;
  a.duration = 1800.25;
  SessionRecord b = a;
  b.user = 2;
  b.start = 200.0;
  b.bitrate = BitrateClass::kMobile;
  SessionRecord c = a;
  c.user = 3;
  c.content = 9;
  c.isp = 0;
  c.start = 300.125;
  c.duration = 0.1;  // not exactly representable: exercises bit-exactness
  t.sessions = {a, b, c};
  return t;
}

/// The committed golden fixtures' session content. The legacy
/// tests/data/golden_v1.cltrace was written from exactly this trace by
/// the version-1 writer (no metro field); golden_v2.cltrace adds the
/// metro name — see golden_trace_v2().
Trace golden_trace() {
  Trace t;
  t.span = Seconds{86400.0};
  auto session = [](std::uint32_t user, std::uint32_t household,
                    std::uint32_t content, std::uint32_t isp,
                    std::uint32_t exp, BitrateClass bitrate, double start,
                    double duration) {
    SessionRecord s;
    s.user = user;
    s.household = household;
    s.content = content;
    s.isp = isp;
    s.exp = exp;
    s.bitrate = bitrate;
    s.start = start;
    s.duration = duration;
    return s;
  };
  t.sessions = {
      session(1, 1, 0, 0, 0, BitrateClass::kMobile, 0.0, 60.0),
      session(2, 1, 0, 0, 1, BitrateClass::kSd, 10.5, 600.25),
      session(3, 2, 1, 1, 0, BitrateClass::kHd, 100.1, 1800.0),
      session(4, 2, 1, 1, 0, BitrateClass::kFullHd, 250.0, 0.0),
      session(5, 3, 2, 4, 30, BitrateClass::kSd, 86000.0, 400.0),
  };
  return t;
}

/// The current-version golden fixture's content — regenerate tests/data/
/// golden_v2.cltrace from exactly this trace (see the failure message in
/// GoldenFileBytesMatchWriter).
Trace golden_trace_v2() {
  Trace t = golden_trace();
  t.metro_name = "london_top5";
  return t;
}

std::string golden_v1_path() {
  return std::string(CL_TEST_DATA_DIR) + "/golden_v1.cltrace";
}

std::string golden_path() {
  return std::string(CL_TEST_DATA_DIR) + "/golden_v2.cltrace";
}

/// FNV-1a 64-bit digest — enough to pin accidental byte changes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ------------------------------------------------------------ round trips

TEST(TraceBinaryRoundTrip, TinyTraceBitIdentical) {
  const Trace original = tiny_trace();
  expect_sessions_identical(binary_round_trip(original), original);
}

TEST(TraceBinaryRoundTrip, EmptyTrace) {
  Trace empty;
  empty.span = Seconds{3600.0};
  const Trace loaded = binary_round_trip(empty);
  EXPECT_TRUE(loaded.empty());
  EXPECT_EQ(loaded.span.value(), 3600.0);
  EXPECT_TRUE(loaded.swarm_index.groups.empty());
}

TEST(TraceBinaryRoundTrip, SingleSession) {
  Trace t;
  t.span = Seconds{1000.0};
  SessionRecord s;
  s.user = 42;
  s.bitrate = BitrateClass::kFullHd;
  s.start = 999.0;
  s.duration = 1.0;
  t.sessions = {s};
  const Trace loaded = binary_round_trip(t);
  expect_sessions_identical(loaded, t);
  ASSERT_EQ(loaded.swarm_index.groups.size(), 1u);
  EXPECT_EQ(loaded.swarm_index.order.size(), 1u);
}

TEST(TraceBinaryRoundTrip, MaximalFieldValues) {
  constexpr auto u32_max = std::numeric_limits<std::uint32_t>::max();
  Trace t;
  t.span = Seconds{2.1e300};
  SessionRecord s;
  s.user = u32_max;
  s.household = u32_max;
  s.content = u32_max;
  s.isp = u32_max;
  s.exp = u32_max;
  s.bitrate = BitrateClass::kFullHd;
  s.start = 1e300;
  s.duration = 1e300;
  SessionRecord tiny = s;
  tiny.start = 1e300;
  tiny.duration = 5e-324;  // smallest subnormal double
  t.sessions = {s, tiny};
  expect_sessions_identical(binary_round_trip(t), t);
}

TEST(TraceBinaryRoundTrip, CsvToBinaryToMmapBitIdentical) {
  // The satellite contract verbatim: parse CSV, persist binary, mmap-load
  // — the loaded sessions must match the CSV-parsed ones bit for bit.
  const Trace original = tiny_trace();
  std::ostringstream csv;
  write_trace(csv, original);
  std::istringstream csv_in(csv.str());
  const Trace from_csv = read_trace(csv_in);
  expect_sessions_identical(binary_round_trip(from_csv), from_csv);
}

TEST(TraceBinaryRoundTrip, RandomizedAcrossSeeds) {
  // Fuzz-ish: randomized session fields (including occasional extreme
  // values) across several seeds, exact round-trip each time.
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u, 99999u, 777777u}) {
    Rng rng(seed);
    Trace t;
    t.span = Seconds{1e9};
    const std::size_t n = 50 + rng.uniform_index(200);
    double start = 0;
    for (std::size_t i = 0; i < n; ++i) {
      SessionRecord s;
      const bool extreme = rng.bernoulli(0.05);
      s.user = extreme ? std::numeric_limits<std::uint32_t>::max()
                       : static_cast<std::uint32_t>(rng.uniform_index(10000));
      s.household = static_cast<std::uint32_t>(rng.uniform_index(5000));
      s.content = static_cast<std::uint32_t>(rng.uniform_index(50));
      s.isp = static_cast<std::uint32_t>(rng.uniform_index(5));
      s.exp = static_cast<std::uint32_t>(rng.uniform_index(100));
      s.bitrate =
          static_cast<BitrateClass>(rng.uniform_index(kBitrateClasses));
      start += rng.exponential(1.0 / 100.0);
      s.start = start;
      s.duration = extreme ? 0.0 : rng.uniform(0.0, 1e5);
      t.sessions.push_back(s);
    }
    const Trace loaded = binary_round_trip(t);
    expect_sessions_identical(loaded, t);
    validate_swarm_index(loaded.swarm_index, loaded);
  }
}

TEST(TraceBinaryRoundTrip, SyntheticGeneratorTrace) {
  TraceConfig config;
  config.days = 2;
  config.users = 500;
  config.exemplar_views = {3000};
  config.catalogue_tail = 50;
  config.tail_views = 2000;
  const Trace original = TraceGenerator(config, metro()).generate();
  ASSERT_GT(original.size(), 100u);
  expect_sessions_identical(binary_round_trip(original), original);
}

TEST(TraceBinaryRoundTrip, CsvBinaryCsvByteIdentical) {
  // CSV -> Trace -> binary -> Trace -> CSV reproduces the first CSV byte
  // for byte (the `cl convert` there-and-back guarantee).
  const Trace original = tiny_trace();
  std::ostringstream csv1;
  write_trace(csv1, original);
  std::istringstream in1(csv1.str());
  const Trace through_binary = binary_round_trip(read_trace(in1));
  std::ostringstream csv2;
  write_trace(csv2, through_binary);
  EXPECT_EQ(csv1.str(), csv2.str());
}

// -------------------------------------------------- metro header field

TEST(TraceBinaryMetro, RoundTripsPopulatedMetroName) {
  Trace t = tiny_trace();
  t.metro_name = "us_sparse";
  const Trace loaded = binary_round_trip(t);
  EXPECT_EQ(loaded.metro_name, "us_sparse");
  expect_sessions_identical(loaded, t);
}

TEST(TraceBinaryMetro, RoundTripsAbsentMetroName) {
  const Trace t = tiny_trace();  // metro_name empty
  const Trace loaded = binary_round_trip(t);
  EXPECT_TRUE(loaded.metro_name.empty());
  expect_sessions_identical(loaded, t);
}

TEST(TraceBinaryMetro, CsvBinaryCsvByteIdenticalWithMetro) {
  // The satellite contract: the CSV <-> binary round trip stays byte
  // exact with the metro field populated...
  Trace original = tiny_trace();
  original.metro_name = "fiber_dense";
  std::ostringstream csv1;
  write_trace(csv1, original);
  EXPECT_NE(csv1.str().find("#metro=fiber_dense\n"), std::string::npos);
  std::istringstream in1(csv1.str());
  const Trace through_binary = binary_round_trip(read_trace(in1));
  std::ostringstream csv2;
  write_trace(csv2, through_binary);
  EXPECT_EQ(csv1.str(), csv2.str());
}

TEST(TraceBinaryMetro, CsvBinaryCsvByteIdenticalWithoutMetro) {
  // ...and when it is absent (no #metro= line materialises from nowhere).
  const Trace original = tiny_trace();
  std::ostringstream csv1;
  write_trace(csv1, original);
  EXPECT_EQ(csv1.str().find("#metro="), std::string::npos);
  std::istringstream in1(csv1.str());
  const Trace through_binary = binary_round_trip(read_trace(in1));
  std::ostringstream csv2;
  write_trace(csv2, through_binary);
  EXPECT_EQ(csv1.str(), csv2.str());
}

TEST(TraceBinaryMetro, MaximumLengthNameRoundTrips) {
  Trace t = tiny_trace();
  t.metro_name = std::string(kTraceMetroNameMaxBytes, 'm');
  const Trace loaded = binary_round_trip(t);
  EXPECT_EQ(loaded.metro_name, t.metro_name);
}

TEST(TraceBinaryMetro, WriterRejectsOversizedName) {
  Trace t = tiny_trace();
  t.metro_name = std::string(kTraceMetroNameMaxBytes + 1, 'm');
  EXPECT_THROW((void)serialize_trace_binary(t), InvalidArgument);
}

TEST(TraceBinaryMetro, WriterRejectsControlCharacters) {
  Trace t = tiny_trace();
  t.metro_name = "bad\nname";
  EXPECT_THROW((void)serialize_trace_binary(t), InvalidArgument);
  std::ostringstream csv;
  EXPECT_THROW(write_trace(csv, t), InvalidArgument);
}

TEST(TraceBinaryMetro, EmptyTraceCarriesMetroName) {
  Trace empty;
  empty.span = Seconds{3600.0};
  empty.metro_name = "london_top5";
  const Trace loaded = binary_round_trip(empty);
  EXPECT_TRUE(loaded.empty());
  EXPECT_EQ(loaded.metro_name, "london_top5");
}

TEST(TraceBinaryWriter, SerializationIsDeterministic) {
  const Trace t = tiny_trace();
  EXPECT_EQ(serialize_trace_binary(t), serialize_trace_binary(t));
}

TEST(TraceBinaryWriter, HeaderLayoutPinned) {
  const std::string bytes = serialize_trace_binary(tiny_trace());
  ASSERT_GE(bytes.size(), 40u);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  EXPECT_EQ(std::memcmp(p, kTraceBinaryMagic, 8), 0);
  EXPECT_EQ(load_u32_le(p + 8), kTraceBinaryVersion);  // version
  EXPECT_EQ(load_u32_le(p + 12), 0u);                  // flags
  EXPECT_EQ(load_u64_le(p + 16), 3u);                  // session count
  EXPECT_EQ(load_f64_le(p + 24), 86400.0);             // span
  EXPECT_EQ(load_u32_le(p + 32), kTraceBinaryBlockCount);
}

// ------------------------------------------------------------ mapped view

TEST(MappedTrace, ReportsHeaderFields) {
  const Trace t = tiny_trace();
  const std::string path = temp_path("cl_mapped_header.cltrace");
  write_trace_binary_file(path, t);
  const MappedTrace mapped(path);
  EXPECT_EQ(mapped.size(), 3u);
  EXPECT_EQ(mapped.version(), kTraceBinaryVersion);
  EXPECT_EQ(mapped.span().value(), t.span.value());
  EXPECT_EQ(mapped.group_count(), 3u);  // 3 distinct (content, isp, bitrate)
  EXPECT_EQ(mapped.file_size(), std::filesystem::file_size(path));
  std::filesystem::remove(path);
}

TEST(MappedTrace, RandomAccessSessionDecoding) {
  const Trace t = tiny_trace();
  const std::string path = temp_path("cl_mapped_session.cltrace");
  write_trace_binary_file(path, t);
  const MappedTrace mapped(path);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const SessionRecord s = mapped.session(i);
    EXPECT_EQ(s.user, t.sessions[i].user);
    EXPECT_EQ(s.start, t.sessions[i].start);
    EXPECT_EQ(s.bitrate, t.sessions[i].bitrate);
  }
  std::filesystem::remove(path);
}

// ------------------------------------------------------------- swarm index

TEST(SwarmIndexTest, PackedKeyMatchesSimulatorSwarmKey) {
  // The trace layer duplicates SwarmKey::packed()'s layout to avoid a
  // trace -> sim dependency; this pin keeps the two from drifting.
  SwarmKey key;
  key.content = 1234;
  key.isp = 3;
  key.bitrate = 2;
  EXPECT_EQ(packed_swarm_key(1234, 3, 2), key.packed());
  SwarmKey sentinel;  // kAnyIsp / kAnyBitrate defaults
  sentinel.content = 9;
  EXPECT_EQ(packed_swarm_key(9, SwarmKey::kAnyIsp, SwarmKey::kAnyBitrate),
            sentinel.packed());
}

TEST(SwarmIndexTest, GroupsAscendCoverAndMatchSessions) {
  TraceConfig config;
  config.days = 2;
  config.users = 400;
  config.exemplar_views = {2000};
  config.catalogue_tail = 30;
  config.tail_views = 1500;
  const Trace trace = TraceGenerator(config, metro()).generate();
  const SwarmIndex index = build_swarm_index(trace);
  EXPECT_EQ(index.order.size(), trace.size());
  ASSERT_GT(index.groups.size(), 4u);
  validate_swarm_index(index, trace);  // throws on any violation
  for (std::size_t g = 1; g < index.groups.size(); ++g) {
    EXPECT_TRUE(SwarmIndex::key_less(index.groups[g - 1], index.groups[g]));
  }
}

TEST(SwarmIndexTest, ValidateRejectsTampering) {
  const Trace trace = tiny_trace();
  SwarmIndex index = build_swarm_index(trace);
  {
    SwarmIndex broken = index;
    broken.order.pop_back();
    EXPECT_THROW(validate_swarm_index(broken, trace), ParseError);
  }
  {
    SwarmIndex broken = index;
    broken.groups[0].content += 1;  // key no longer matches its sessions
    EXPECT_THROW(validate_swarm_index(broken, trace), ParseError);
  }
  {
    SwarmIndex broken = index;
    std::swap(broken.groups[0], broken.groups[1]);  // keys out of order
    EXPECT_THROW(validate_swarm_index(broken, trace), ParseError);
  }
  {
    SwarmIndex broken = index;
    broken.groups[0].count = 0;  // empty group
    EXPECT_THROW(validate_swarm_index(broken, trace), ParseError);
  }
}

// ------------------------------------------------------------ golden files

TEST(TraceBinaryGolden, FileBytesMatchWriter) {
  const std::string committed = read_bytes(golden_path());
  ASSERT_FALSE(committed.empty()) << "missing fixture " << golden_path();
  EXPECT_EQ(serialize_trace_binary(golden_trace_v2()), committed)
      << "the .cltrace byte layout changed. If this is intentional, bump "
         "kTraceBinaryVersion in trace/trace_binary.h, add a new golden "
         "fixture under tests/data/ from golden_trace_v2(), and update "
         "the pinned digest in TraceBinaryGolden.DigestPinned.";
}

TEST(TraceBinaryGolden, DigestPinned) {
  const std::string committed = read_bytes(golden_path());
  ASSERT_FALSE(committed.empty()) << "missing fixture " << golden_path();
  EXPECT_EQ(fnv1a(committed), 0xb089aa1521edceffULL)
      << "tests/data/golden_v2.cltrace changed on disk. An intentional "
         "format change must bump kTraceBinaryVersion (see "
         "trace/trace_binary.h's version policy).";
}

TEST(TraceBinaryGolden, FixtureLoads) {
  const Trace loaded = read_trace_binary_file(golden_path());
  expect_sessions_identical(loaded, golden_trace_v2());
  EXPECT_EQ(loaded.metro_name, "london_top5");
  ASSERT_EQ(loaded.swarm_index.groups.size(), 5u);
}

// Legacy version-1 files must keep loading forever: month-scale traces
// are generated once and replayed across many builds. The v1 fixture's
// bytes are pinned too — it is the proof that v1 decoding still works,
// so it must never be regenerated by a newer writer.
TEST(TraceBinaryGolden, LegacyV1DigestPinned) {
  const std::string committed = read_bytes(golden_v1_path());
  ASSERT_FALSE(committed.empty()) << "missing fixture " << golden_v1_path();
  EXPECT_EQ(fnv1a(committed), 0x52915e1e58ee37d1ULL)
      << "tests/data/golden_v1.cltrace changed on disk. The v1 fixture is "
         "frozen — it pins the *legacy* layout readers must keep "
         "accepting.";
}

TEST(TraceBinaryGolden, LegacyV1FixtureLoadsWithEmptyMetro) {
  const Trace loaded = read_trace_binary_file(golden_v1_path());
  expect_sessions_identical(loaded, golden_trace());
  EXPECT_TRUE(loaded.metro_name.empty());
  ASSERT_EQ(loaded.swarm_index.groups.size(), 5u);
}

TEST(TraceBinaryGolden, LegacyV1ReportsItsVersion) {
  const MappedTrace mapped(golden_v1_path());
  EXPECT_EQ(mapped.version(), kTraceBinaryLegacyVersion);
  EXPECT_TRUE(mapped.metro_name().empty());
  const MappedTrace current(golden_path());
  EXPECT_EQ(current.version(), kTraceBinaryVersion);
  EXPECT_EQ(current.metro_name(), "london_top5");
}

TEST(TraceBinaryGolden, RowLoaderIsTheViewDecoderMaterialized) {
  // One `.cltrace` decoder: the row loader is open_binary + to_trace,
  // field for field — sessions, span, metro and swarm index — at every
  // thread count, on the current and the legacy layout.
  for (const std::string& path : {golden_path(), golden_v1_path()}) {
    const Trace from_view = TraceView::open_binary(path).to_trace();
    for (const unsigned threads : {1u, 3u}) {
      SCOPED_TRACE(path + " threads=" + std::to_string(threads));
      const Trace rows = read_trace_binary_file(path, threads);
      expect_sessions_identical(rows, from_view);
      ASSERT_EQ(rows.swarm_index.groups.size(),
                from_view.swarm_index.groups.size());
      for (std::size_t g = 0; g < rows.swarm_index.groups.size(); ++g) {
        const SwarmIndexGroup& a = rows.swarm_index.groups[g];
        const SwarmIndexGroup& b = from_view.swarm_index.groups[g];
        EXPECT_EQ(a.content, b.content);
        EXPECT_EQ(a.isp, b.isp);
        EXPECT_EQ(a.bitrate, b.bitrate);
        EXPECT_EQ(a.begin, b.begin);
        EXPECT_EQ(a.count, b.count);
      }
      EXPECT_EQ(rows.swarm_index.order, from_view.swarm_index.order);
    }
  }
}

// ------------------------------------------------------- corrupt rejection

/// One hostile `.cltrace` payload: how to build its bytes from a valid
/// file, and a substring the ParseError must carry (empty: any message).
struct CorruptCase {
  const char* name;
  std::string (*bytes)();
  const char* needle;
};

/// The payload offset of block `id` in serialized bytes (directory
/// entries are written in block-id order: entry `id` sits at 40 + id*24,
/// its payload offset 8 bytes in).
std::uint64_t block_offset(const std::string& bytes, std::size_t id) {
  return load_u64_le(reinterpret_cast<const unsigned char*>(bytes.data()) +
                     40 + id * 24 + 8);
}

unsigned char* mutable_bytes(std::string& bytes) {
  return reinterpret_cast<unsigned char*>(bytes.data());
}

/// Every corrupt-file case, shared by both `.cltrace` loaders.
const std::vector<CorruptCase>& corrupt_cases() {
  static const std::vector<CorruptCase> cases = {
      {"truncated_header",
       [] { return serialize_trace_binary(tiny_trace()).substr(0, 20); },
       ""},
      {"bad_magic",
       [] {
         std::string bytes = serialize_trace_binary(tiny_trace());
         bytes[0] = 'X';
         return bytes;
       },
       "magic"},
      {"wrong_version",
       [] {
         std::string bytes = serialize_trace_binary(tiny_trace());
         store_u32_le(mutable_bytes(bytes) + 8, kTraceBinaryVersion + 1);
         return bytes;
       },
       "version"},
      {"truncated_column_block",
       [] {
         const std::string bytes = serialize_trace_binary(tiny_trace());
         return bytes.substr(0, bytes.size() - 6);
       },
       ""},
      {"trailing_bytes",
       [] {
         return serialize_trace_binary(tiny_trace()) + std::string(16, '\0');
       },
       ""},
      {"wrong_block_count",
       [] {
         std::string bytes = serialize_trace_binary(tiny_trace());
         store_u32_le(mutable_bytes(bytes) + 32, kTraceBinaryBlockCount - 1);
         return bytes;
       },
       ""},
      {"bitrate_out_of_range",
       [] {
         std::string bytes = serialize_trace_binary(tiny_trace());
         mutable_bytes(bytes)[block_offset(bytes, 5)] = 9;  // no such class
         return bytes;
       },
       "bitrate"},
      {"tampered_index_order",
       [] {
         std::string bytes = serialize_trace_binary(tiny_trace());
         unsigned char* order = mutable_bytes(bytes) + block_offset(bytes, 12);
         const std::uint32_t first = load_u32_le(order);
         const std::uint32_t second = load_u32_le(order + 4);
         store_u32_le(order, second);  // swap the first two entries
         store_u32_le(order + 4, first);
         return bytes;
       },
       "swarm index"},
      {"span_smaller_than_sessions",
       [] {
         std::string bytes = serialize_trace_binary(tiny_trace());
         store_f64_le(mutable_bytes(bytes) + 24, 1.0);
         return bytes;
       },
       ""},
      {"control_character_in_metro_block",
       [] {
         Trace t = tiny_trace();
         t.metro_name = "ok";
         std::string bytes = serialize_trace_binary(t);
         mutable_bytes(bytes)[block_offset(bytes, 13)] = '\n';
         return bytes;
       },
       "metro"},
      {"oversized_metro_directory_count",
       [] {
         // Claim a metro-name block longer than the cap; whichever check
         // fires first (length cap or bounds), the file is rejected.
         std::string bytes = serialize_trace_binary(tiny_trace());
         store_u64_le(mutable_bytes(bytes) + 40 + 13 * 24 + 16,
                      kTraceMetroNameMaxBytes + 1);
         return bytes;
       },
       ""},
      {"legacy_version_with_current_block_count",
       [] {
         // A v2 file relabeled as v1 lies about its shape: v1 has 13
         // blocks.
         std::string bytes = serialize_trace_binary(tiny_trace());
         store_u32_le(mutable_bytes(bytes) + 8, kTraceBinaryLegacyVersion);
         return bytes;
       },
       ""},
      {"version_zero",
       [] {
         std::string bytes = serialize_trace_binary(tiny_trace());
         store_u32_le(mutable_bytes(bytes) + 8, 0);
         return bytes;
       },
       ""},
  };
  return cases;
}

/// `load` rejects `path` with a ParseError whose message carries `needle`.
template <typename Load>
void expect_parse_error(const Load& load, const std::string& path,
                        const std::string& needle) {
  EXPECT_THROW(
      try { load(path); } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
        throw;
      },
      ParseError);
}

/// Writes corrupt case `name` and asserts that both loaders — the row
/// loader and the zero-copy view — reject it.
void expect_corrupt_rejected(const std::string& name) {
  const auto& cases = corrupt_cases();
  const auto it =
      std::find_if(cases.begin(), cases.end(),
                   [&](const CorruptCase& c) { return c.name == name; });
  ASSERT_NE(it, cases.end()) << "no corrupt case " << name;
  const std::string path =
      write_bytes("cl_corrupt_" + name + ".cltrace", it->bytes());
  expect_parse_error(
      [](const std::string& p) { (void)read_trace_binary_file(p); }, path,
      it->needle);
  expect_parse_error(
      [](const std::string& p) { (void)TraceView::open_binary(p); }, path,
      it->needle);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsMissingFile) {
  const std::string path = "/nonexistent/path/trace.cltrace";
  EXPECT_THROW((void)read_trace_binary_file(path), IoError);
  EXPECT_THROW((void)TraceView::open_binary(path), IoError);
}

TEST(TraceBinaryCorrupt, RejectsTruncatedHeader) {
  expect_corrupt_rejected("truncated_header");
}

TEST(TraceBinaryCorrupt, RejectsBadMagic) {
  expect_corrupt_rejected("bad_magic");
}

TEST(TraceBinaryCorrupt, RejectsWrongVersion) {
  expect_corrupt_rejected("wrong_version");
}

TEST(TraceBinaryCorrupt, RejectsTruncatedColumnBlock) {
  expect_corrupt_rejected("truncated_column_block");
}

TEST(TraceBinaryCorrupt, RejectsTrailingBytes) {
  expect_corrupt_rejected("trailing_bytes");
}

TEST(TraceBinaryCorrupt, RejectsWrongBlockCount) {
  expect_corrupt_rejected("wrong_block_count");
}

TEST(TraceBinaryCorrupt, RejectsBitrateOutOfRange) {
  expect_corrupt_rejected("bitrate_out_of_range");
}

TEST(TraceBinaryCorrupt, RejectsTamperedIndexOrder) {
  expect_corrupt_rejected("tampered_index_order");
}

TEST(TraceBinaryCorrupt, RejectsSpanSmallerThanSessions) {
  expect_corrupt_rejected("span_smaller_than_sessions");
}

TEST(TraceBinaryCorrupt, RejectsControlCharacterInMetroBlock) {
  expect_corrupt_rejected("control_character_in_metro_block");
}

TEST(TraceBinaryCorrupt, RejectsOversizedMetroDirectoryCount) {
  expect_corrupt_rejected("oversized_metro_directory_count");
}

TEST(TraceBinaryCorrupt, RejectsLegacyVersionWithCurrentBlockCount) {
  expect_corrupt_rejected("legacy_version_with_current_block_count");
}

TEST(TraceBinaryCorrupt, RejectsVersionZero) {
  expect_corrupt_rejected("version_zero");
}

TEST(TraceBinaryCorrupt, RejectsNegativeSpan) {
  // An empty trace has no session for the span check to trip on; the
  // header's span itself must be non-negative.
  Trace empty;
  empty.span = Seconds{86400.0};
  std::string bytes = serialize_trace_binary(empty);
  store_f64_le(mutable_bytes(bytes) + 24, -1.0);
  const std::string path = write_bytes("cl_corrupt_negspan.cltrace", bytes);
  expect_parse_error(
      [](const std::string& p) { (void)read_trace_binary_file(p); }, path,
      "span");
  expect_parse_error(
      [](const std::string& p) { (void)TraceView::open_binary(p); }, path,
      "span");
  std::filesystem::remove(path);
}

// ------------------------------------------------------------- determinism

TEST(TraceBinaryDeterminism, MetroGenerationBitIdenticalAcrossThreadCounts) {
  // The satellite contract: generating against the us_sparse metro at
  // --threads 1/2/7/hw produces bit-identical traces — pinned on the
  // serialized bytes, which cover every session field, the swarm index
  // and the metro header.
  const Metro& us = MetroRegistry::instance().get("us_sparse");
  TraceConfig config;
  config.metro = "us_sparse";
  config.days = 2;
  config.users = 800;
  config.exemplar_views = {5000, 600};
  config.catalogue_tail = 80;
  config.tail_views = 4000;
  config.threads = 1;
  const std::string reference =
      serialize_trace_binary(TraceGenerator(config, us).generate());
  EXPECT_NE(reference.find("us_sparse"), std::string::npos);
  for (const unsigned threads : {2u, 7u, 0u}) {  // 0 = all hardware threads
    TraceConfig threaded = config;
    threaded.threads = threads;
    EXPECT_EQ(serialize_trace_binary(TraceGenerator(threaded, us).generate()),
              reference)
        << "threads=" << threads;
  }
}

TEST(TraceBinaryDeterminism, MmapLoadBitIdenticalAcrossThreadCounts) {
  TraceConfig config;
  config.days = 2;
  config.users = 600;
  config.exemplar_views = {4000};
  config.catalogue_tail = 60;
  config.tail_views = 3000;
  const Trace original = TraceGenerator(config, metro()).generate();
  const std::string path = temp_path("cl_det_load.cltrace");
  write_trace_binary_file(path, original);
  const Trace reference = read_trace_binary_file(path, 1);
  expect_sessions_identical(reference, original);
  for (const unsigned threads : {2u, 7u, 0u}) {  // 0 = all hardware threads
    const Trace loaded = read_trace_binary_file(path, threads);
    expect_sessions_identical(loaded, reference);
    ASSERT_EQ(loaded.swarm_index.order, reference.swarm_index.order);
    ASSERT_EQ(loaded.swarm_index.groups.size(),
              reference.swarm_index.groups.size());
  }
  std::filesystem::remove(path);
}

/// Exact-equality comparison of the aggregate outcomes two Analyzer runs
/// produce — savings/offload doubles must match to the last bit.
void expect_aggregates_identical(const std::vector<AggregateOutcome>& a,
                                 const std::vector<AggregateOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].sim_savings, b[m].sim_savings);
    EXPECT_EQ(a[m].theory_savings, b[m].theory_savings);
    EXPECT_EQ(a[m].offload, b[m].offload);
    EXPECT_EQ(a[m].baseline_energy.value(), b[m].baseline_energy.value());
    EXPECT_EQ(a[m].hybrid_energy.value(), b[m].hybrid_energy.value());
  }
}

/// Shared workload for the sim/analyzer determinism tests below, as the
/// CSV loader produces it.
const Trace& determinism_rows() {
  static const Trace trace = [] {
    TraceConfig config;
    config.days = 3;
    config.users = 1500;
    config.exemplar_views = {8000, 900};
    config.catalogue_tail = 150;
    config.tail_views = 10000;
    const Trace generated = TraceGenerator(config, metro()).generate();
    // Round-trip through CSV so the reference is exactly what the CSV
    // loader produces.
    std::ostringstream out;
    write_trace(out, generated);
    std::istringstream in(out.str());
    return read_trace(in);
  }();
  return trace;
}

const TraceView& determinism_trace_csv() {
  static const TraceView view = TraceView::from_trace(determinism_rows());
  return view;
}

const TraceView& determinism_trace_binary() {
  static const TraceView view = [] {
    const std::string path = temp_path("cl_det_sim.cltrace");
    write_trace_binary_file(path, determinism_rows());
    TraceView loaded = TraceView::open_binary(path, 2);
    std::filesystem::remove(path);  // the mapping outlives the name
    return loaded;
  }();
  return view;
}

TEST(TraceBinaryDeterminism, SimResultBitIdenticalMmapVsCsvAcrossThreads) {
  const TraceView& csv = determinism_trace_csv();
  const TraceView& binary = determinism_trace_binary();
  EXPECT_FALSE(csv.has_index());   // hash-grouping path
  EXPECT_TRUE(binary.has_index());  // persisted-index path

  SimConfig reference_config;
  reference_config.threads = 1;
  const SimResult reference =
      HybridSimulator(metro(), reference_config).run(csv);

  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    SimConfig config;
    config.threads = threads;
    const SimResult result = HybridSimulator(metro(), config).run(binary);
    EXPECT_EQ(result.total.server.value(), reference.total.server.value());
    EXPECT_EQ(result.total.cross_isp.value(),
              reference.total.cross_isp.value());
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      EXPECT_EQ(result.total.peer[l].value(),
                reference.total.peer[l].value());
    }
    ASSERT_EQ(result.swarms.size(), reference.swarms.size());
    for (std::size_t s = 0; s < result.swarms.size(); ++s) {
      EXPECT_EQ(result.swarms[s].key.packed(),
                reference.swarms[s].key.packed());
      EXPECT_EQ(result.swarms[s].capacity, reference.swarms[s].capacity);
      EXPECT_EQ(result.swarms[s].traffic.server.value(),
                reference.swarms[s].traffic.server.value());
    }
    ASSERT_EQ(result.hourly.size(), reference.hourly.size());
    for (std::size_t h = 0; h < result.hourly.size(); ++h) {
      ASSERT_EQ(result.hourly[h].size(), reference.hourly[h].size());
      for (std::size_t i = 0; i < result.hourly[h].size(); ++i) {
        EXPECT_EQ(result.hourly[h][i].server.value(),
                  reference.hourly[h][i].server.value());
      }
    }
    ASSERT_EQ(result.users.size(), reference.users.size());
    for (const auto& [user, traffic] : reference.users) {
      const auto it = result.users.find(user);
      ASSERT_NE(it, result.users.end());
      EXPECT_EQ(it->second.downloaded.value(), traffic.downloaded.value());
      EXPECT_EQ(it->second.uploaded.value(), traffic.uploaded.value());
    }
  }
}

TEST(TraceBinaryDeterminism, IndexPathBitIdenticalToHashGroupingPath) {
  // Same sessions with and without the persisted index: the simulator
  // must produce bit-identical results through either grouping path.
  const TraceView& binary = determinism_trace_binary();
  Trace stripped = binary.to_trace();
  stripped.swarm_index = SwarmIndex{};
  SimConfig config;
  config.threads = 2;
  const HybridSimulator sim(metro(), config);
  const SimResult with_index = sim.run(binary);
  const SimResult without_index = sim.run(TraceView::from_trace(stripped));
  EXPECT_EQ(with_index.total.server.value(),
            without_index.total.server.value());
  ASSERT_EQ(with_index.swarms.size(), without_index.swarms.size());
  for (std::size_t s = 0; s < with_index.swarms.size(); ++s) {
    EXPECT_EQ(with_index.swarms[s].key.packed(),
              without_index.swarms[s].key.packed());
    EXPECT_EQ(with_index.swarms[s].traffic.server.value(),
              without_index.swarms[s].traffic.server.value());
    EXPECT_EQ(with_index.swarms[s].capacity,
              without_index.swarms[s].capacity);
  }
}

TEST(TraceBinaryDeterminism, RelaxedPartitionsIgnoreIndexAndMatchCsv) {
  // Cross-ISP / mixed-bitrate ablations cannot use the full-key index;
  // they must fall back to hash grouping and still match the CSV path.
  const TraceView& csv = determinism_trace_csv();
  const TraceView& binary = determinism_trace_binary();
  for (const bool isp_friendly : {false, true}) {
    SimConfig config;
    config.threads = 2;
    config.isp_friendly = isp_friendly;
    config.split_by_bitrate = false;
    const HybridSimulator sim(metro(), config);
    const SimResult from_csv = sim.run(csv);
    const SimResult from_binary = sim.run(binary);
    EXPECT_EQ(from_csv.total.server.value(),
              from_binary.total.server.value());
    EXPECT_EQ(from_csv.swarms.size(), from_binary.swarms.size());
  }
}

TEST(TraceBinaryDeterminism, AnalyzerAggregateIdenticalMmapVsCsv) {
  const TraceView& csv = determinism_trace_csv();
  const TraceView& binary = determinism_trace_binary();
  SimConfig reference_config;
  reference_config.threads = 1;
  const auto reference = Analyzer(metro(), reference_config).aggregate(csv);
  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    SimConfig config;
    config.threads = threads;
    expect_aggregates_identical(
        Analyzer(metro(), config).aggregate(binary), reference);
  }
}

TEST(TraceBinaryDeterminism, AnalyzerDailyReportIdenticalMmapVsCsv) {
  const TraceView& csv = determinism_trace_csv();
  const TraceView& binary = determinism_trace_binary();
  SimConfig reference_config;
  reference_config.threads = 1;
  const DailyReport reference =
      Analyzer(metro(), reference_config).daily_report(csv);
  SimConfig config;
  config.threads = 4;
  const DailyReport report = Analyzer(metro(), config).daily_report(binary);
  EXPECT_EQ(report.sim, reference.sim);
  EXPECT_EQ(report.theory, reference.theory);
}

}  // namespace
}  // namespace cl
