// Tests for the column preload transform — apply_preload on a TraceView
// (ext/preload.h) and CarbonScheduler::schedule_preload on a view
// (carbon/schedule.h) — pinned against the row reference in
// reference_preload.h, which shares no code with it:
//
//  * bitwise parity — all eight columns and the session order, for
//    adoption 0 / 0.5 / 1, several windows, a partial final day (clipped
//    and kept-in-place sessions) and --threads 1/2/7/0, on a mapped
//    `.cltrace` (swarm index) and a CSV-loaded view (no index);
//  * the carried-over swarm index — same groups, each group's order
//    rebuilt — equals a freshly built index and passes the checks
//    TraceView::from_mapped applies to a file;
//  * the preloaded simulation is bit-identical to simulating the
//    reference rows, at every thread count;
//  * edge cases — empty trace, full-key ties, unsorted input,
//    the flat-curve identity and the row adapters.
#include "ext/preload.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "carbon/schedule.h"
#include "expect_sim_result.h"
#include "reference_preload.h"
#include "sim/hybrid_sim.h"
#include "topology/metro_registry.h"
#include "trace/swarm_index.h"
#include "trace/synthetic.h"
#include "trace/trace_binary.h"
#include "trace/trace_io.h"
#include "trace/trace_view.h"
#include "util/error.h"

namespace cl {
namespace {

const Metro& metro() { return MetroRegistry::instance().get("london_top5"); }

/// A temp file name no other test process uses.
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("cl_preload_view_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

/// A generated 2-day trace as a CSV load returns it (no swarm index).
/// With `partial`, it is cut to 36 h — sessions ending later are dropped —
/// so the second day is half a day.
Trace csv_trace(bool partial) {
  TraceConfig config;
  config.days = 2;
  config.users = 1500;
  config.exemplar_views = {8000, 900};
  config.catalogue_tail = 150;
  config.tail_views = 12000;
  config.seed = 5;
  Trace generated = TraceGenerator(config, metro()).generate();
  if (partial) {
    const double cut = 36 * 3600.0;
    std::erase_if(generated.sessions,
                  [&](const SessionRecord& s) { return s.end() > cut; });
    generated.span = Seconds{cut};
  }
  std::ostringstream out;
  write_trace(out, generated);
  std::istringstream in(out.str());
  return read_trace(in);
}

/// `rows` written as a `.cltrace` (which persists a swarm index) and
/// mapped back zero-copy.
TraceView mapped_view(const Trace& rows, const std::string& name) {
  const std::string path = temp_path(name);
  write_trace_binary_file(path, rows);
  TraceView view = TraceView::open_binary(path, 2);
  std::filesystem::remove(path);  // the mapping keeps the pages alive
  return view;
}

/// First position where the view and the rows differ in any of the eight
/// fields (doubles compared bit for bit), or rows.size() when none does.
std::size_t first_mismatch(const TraceView& view, const Trace& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SessionRecord& s = rows.sessions[i];
    if (view.user()[i] != s.user || view.household()[i] != s.household ||
        view.content()[i] != s.content || view.isp()[i] != s.isp ||
        view.exp()[i] != s.exp ||
        view.bitrate()[i] != static_cast<std::uint8_t>(s.bitrate) ||
        std::bit_cast<std::uint64_t>(view.start()[i]) !=
            std::bit_cast<std::uint64_t>(s.start) ||
        std::bit_cast<std::uint64_t>(view.duration()[i]) !=
            std::bit_cast<std::uint64_t>(s.duration)) {
      return i;
    }
  }
  return rows.size();
}

void expect_view_matches_rows(const TraceView& view, const Trace& rows) {
  ASSERT_EQ(view.size(), rows.size());
  EXPECT_EQ(view.span().value(), rows.span.value());
  EXPECT_EQ(view.metro_name(), rows.metro_name);
  EXPECT_EQ(first_mismatch(view, rows), rows.size());
}

/// The carried-over index is exactly the index built from scratch for
/// the reference rows, and a `.cltrace` written with it passes
/// from_mapped's group/order checks.
void expect_index_carried_over(const TraceView& out, const Trace& reference) {
  ASSERT_TRUE(out.has_index());
  const SwarmIndex fresh = build_swarm_index(reference);
  ASSERT_EQ(out.groups().size(), fresh.groups.size());
  for (std::size_t g = 0; g < fresh.groups.size(); ++g) {
    const SwarmIndexGroup& a = out.groups()[g];
    const SwarmIndexGroup& b = fresh.groups[g];
    ASSERT_TRUE(a.content == b.content && a.isp == b.isp &&
                a.bitrate == b.bitrate && a.begin == b.begin &&
                a.count == b.count)
        << "group " << g;
  }
  EXPECT_TRUE(std::equal(out.order().begin(), out.order().end(),
                         fresh.order.begin(), fresh.order.end()));

  const Trace rows = out.to_trace();
  const std::string path = temp_path("index_check.cltrace");
  write_trace_binary_file(path, rows);  // writes rows.swarm_index as is
  EXPECT_NO_THROW({ [[maybe_unused]] auto v = TraceView::open_binary(path); });
  std::filesystem::remove(path);
}

constexpr unsigned kThreadCounts[] = {1, 2, 7, 0};

const PreloadConfig kWindows[] = {
    {.adoption = 0.5, .window_start_hour = 7.0, .window_end_hour = 9.0},
    // Day 2 of the partial trace ends at 12:00, so a 10–12 window clips
    // the sessions it moves, and a 20–22 window keeps them in place.
    {.adoption = 0.5, .window_start_hour = 10.0, .window_end_hour = 12.0},
    {.adoption = 0.5, .window_start_hour = 20.0, .window_end_hour = 22.0},
    {.adoption = 0.5, .window_start_hour = 0.0, .window_end_hour = 24.0},
};

// ------------------------------------------------------------- parity

TEST(PreloadView, MatchesReferenceBitwiseOnEveryInput) {
  for (const bool partial : {false, true}) {
    const Trace rows = csv_trace(partial);
    const TraceView csv_view = TraceView::from_trace(rows);
    const TraceView mapped = mapped_view(rows, "parity.cltrace");
    ASSERT_FALSE(csv_view.has_index());
    ASSERT_TRUE(mapped.has_index());
    ASSERT_TRUE(mapped.zero_copy());
    for (const double adoption : {0.0, 0.5, 1.0}) {
      for (PreloadConfig config : kWindows) {
        config.adoption = adoption;
        const Trace reference =
            testing_reference::apply_preload(rows, config, 11);
        for (const unsigned threads : kThreadCounts) {
          SCOPED_TRACE(::testing::Message()
                       << "partial=" << partial << " adoption=" << adoption
                       << " window=" << config.window_start_hour << "-"
                       << config.window_end_hour << " threads=" << threads);
          const TraceView from_csv =
              apply_preload(csv_view, config, 11, threads);
          expect_view_matches_rows(from_csv, reference);
          EXPECT_FALSE(from_csv.has_index());

          const TraceView from_mapped =
              apply_preload(mapped, config, 11, threads);
          expect_view_matches_rows(from_mapped, reference);
          EXPECT_FALSE(from_mapped.zero_copy());
          if (threads == 1) expect_index_carried_over(from_mapped, reference);
        }
      }
    }
  }
}

TEST(PreloadView, PartialFinalDayClipsAndKeepsSessions) {
  // The partial trace exercises both end-of-span rules the parity test
  // pins: some moved sessions are clipped at the span's end, and targets
  // past it leave sessions where they were.
  const Trace rows = csv_trace(true);
  const double span_s = rows.span.value();
  const PreloadConfig clip{.adoption = 1.0,
                           .window_start_hour = 10.0,
                           .window_end_hour = 12.0};
  const TraceView clipped =
      apply_preload(TraceView::from_trace(rows), clip, 3, 2);
  std::size_t ending_at_span = 0;
  for (std::size_t i = 0; i < clipped.size(); ++i) {
    ending_at_span += clipped.start()[i] + clipped.duration()[i] == span_s;
  }
  EXPECT_GT(ending_at_span, 0u);

  const PreloadConfig past{.adoption = 1.0,
                           .window_start_hour = 20.0,
                           .window_end_hour = 22.0};
  const TraceView kept = apply_preload(TraceView::from_trace(rows), past, 3);
  std::vector<double> day2_before, day2_after;
  for (const SessionRecord& s : rows.sessions) {
    if (s.start >= 86400.0) day2_before.push_back(s.start);
  }
  for (const double start : kept.start()) {
    if (start >= 86400.0) day2_after.push_back(start);
  }
  EXPECT_FALSE(day2_before.empty());
  EXPECT_EQ(day2_after, day2_before);  // every day-2 start is unchanged
}

TEST(PreloadView, FullKeyTiesFollowInputPosition) {
  // Equal starts with unsorted (content, user), and two sessions equal on
  // the full key that differ only in household: the output sorts by
  // (start, content, user) and keeps full-key ties in input order.
  Trace rows;
  rows.span = Seconds{86400.0};
  rows.metro_name = "london_top5";
  const auto add = [&](std::uint32_t content, std::uint32_t user,
                       std::uint32_t household, double start) {
    SessionRecord s;
    s.content = content;
    s.user = user;
    s.household = household;
    s.start = start;
    s.duration = 60;
    rows.sessions.push_back(s);
  };
  add(5, 2, 1, 100);
  add(5, 1, 2, 100);
  add(3, 9, 3, 100);
  add(5, 1, 4, 100);
  add(1, 1, 5, 200);
  for (const double adoption : {0.0, 1.0}) {
    const PreloadConfig config{.adoption = adoption};
    const Trace reference = testing_reference::apply_preload(rows, config, 2);
    expect_view_matches_rows(
        apply_preload(TraceView::from_trace(rows), config, 2), reference);
  }
  const TraceView out =
      apply_preload(TraceView::from_trace(rows), {.adoption = 0.0}, 2);
  EXPECT_EQ(out.household()[0], 3u);  // content 3
  EXPECT_EQ(out.household()[1], 2u);  // (5, 1), first in the input
  EXPECT_EQ(out.household()[2], 4u);  // (5, 1), second
  EXPECT_EQ(out.household()[3], 1u);  // (5, 2)
}

TEST(PreloadView, UnsortedInputComesOutSorted) {
  // Like the row transform, the column transform re-sorts whatever order
  // it is given (Preload.PartialFinalDayLeavesOverflowUnmoved feeds it
  // interleaved days): here the second day comes first.
  Trace rows = csv_trace(false);
  std::stable_partition(rows.sessions.begin(), rows.sessions.end(),
                        [](const SessionRecord& s) {
                          return s.start >= 86400.0;
                        });
  for (const double adoption : {0.0, 0.5}) {
    const PreloadConfig config{.adoption = adoption};
    const Trace reference = testing_reference::apply_preload(rows, config, 4);
    expect_view_matches_rows(
        apply_preload(TraceView::from_trace(rows), config, 4, 2), reference);
  }
}

TEST(PreloadView, EmptyTrace) {
  Trace empty;
  empty.span = Seconds{86400.0};
  empty.metro_name = "london_top5";
  for (const TraceView& in :
       {TraceView::from_trace(empty), mapped_view(empty, "empty.cltrace")}) {
    const TraceView out = apply_preload(in, {.adoption = 1.0}, 3, 2);
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(out.has_index());
    EXPECT_EQ(out.span().value(), 86400.0);
    EXPECT_EQ(out.metro_name(), "london_top5");
  }
}

TEST(PreloadView, RejectsBadConfig) {
  const TraceView view = TraceView::from_trace(csv_trace(false));
  EXPECT_THROW(
      { [[maybe_unused]] auto v = apply_preload(view, {.adoption = 1.5}, 1); },
      InvalidArgument);
  EXPECT_THROW(
      {
        [[maybe_unused]] auto v = apply_preload(
            view, {.window_start_hour = 9.0, .window_end_hour = 7.0}, 1);
      },
      InvalidArgument);
}

// ------------------------------------------------------------ adapters

TEST(PreloadView, RowAdaptersMatchReference) {
  const Trace rows = csv_trace(true);
  const TraceView view = TraceView::from_trace(rows);
  for (const PreloadConfig& config : kWindows) {
    const Trace reference = testing_reference::apply_preload(rows, config, 8);
    const Trace out = apply_preload(view, config, 8).to_trace();
    EXPECT_EQ(first_mismatch(TraceView::from_trace(out), reference),
              reference.size());
    EXPECT_EQ(out.size(), reference.size());
    EXPECT_TRUE(out.swarm_index.empty());  // the CSV rows carry none
  }

  const CarbonScheduler scheduler(IntensityRegistry::instance().get("uk_2018"));
  const Trace reference =
      testing_reference::apply_preload(rows, scheduler.trough_window(), 8);
  const Trace scheduled = scheduler.schedule_preload(rows, 8);
  EXPECT_EQ(first_mismatch(TraceView::from_trace(scheduled), reference),
            reference.size());
  expect_view_matches_rows(
      scheduler.schedule_preload(TraceView::from_trace(rows), 8, 2),
      reference);
}

TEST(PreloadView, FlatCurveScheduleIsTheIdentity) {
  const CarbonScheduler scheduler(
      IntensityRegistry::instance().get(kFlatIntensityName));
  const TraceView view = mapped_view(csv_trace(false), "flat.cltrace");
  const TraceView out = scheduler.schedule_preload(view, 3, 2);
  // The same view: same backing, same index, nothing copied.
  EXPECT_EQ(out.start().data(), view.start().data());
  EXPECT_EQ(out.order().data(), view.order().data());
  EXPECT_TRUE(out.zero_copy());
}

// ---------------------------------------------------------- simulation

TEST(PreloadView, PreloadedSimResultMatchesReferenceRowsAtEveryThreadCount) {
  const CarbonScheduler scheduler(IntensityRegistry::instance().get("uk_2018"));
  const Trace rows = csv_trace(false);
  const Trace reference =
      testing_reference::apply_preload(rows, scheduler.trough_window(), 21);
  const TraceView csv_view = TraceView::from_trace(rows);
  const TraceView mapped = mapped_view(rows, "sim.cltrace");

  SimConfig reference_config;  // every collection toggle on
  reference_config.threads = 1;
  const SimResult expected = HybridSimulator(metro(), reference_config)
                                 .run(TraceView::from_trace(reference));
  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SimConfig config;
    config.threads = threads;
    const HybridSimulator simulator(metro(), config);
    // Indexed route (the carried-over index) and hash-grouping route.
    expect_sim_result_identical(
        simulator.run(scheduler.schedule_preload(mapped, 21, threads)),
        expected);
    expect_sim_result_identical(
        simulator.run(scheduler.schedule_preload(csv_view, 21, threads)),
        expected);
  }
}

}  // namespace
}  // namespace cl
