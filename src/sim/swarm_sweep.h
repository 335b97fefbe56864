// swarm_sweep.h — the self-contained per-swarm sweep unit of the hybrid
// simulator.
//
// Swarms are independent given the (content, ISP, bitrate) partition
// (paper Section IV.A), which makes the simulator embarrassingly parallel
// *per swarm*. A SwarmSweep is one worker's sweep engine: it owns every
// piece of scratch state the event-batched sweep needs (the join/leave
// event streams, the active-peer list, the session→active index map, the
// per-window allocation buffer, the gathered per-swarm column scratch)
// plus its own Matcher instance, and is reused across all swarms that
// worker processes — after the first few swarms the sweep runs
// allocation-free.
//
// Two data paths share one event loop:
//
//  * sweep(…, TraceView) — the hot path. The swarm's sessions are
//    gathered from the trace columns into small contiguous primitive
//    arrays (window bounds, user/ISP/ExP/PoP ids, β) by the kernels in
//    sim/sweep_kernels.h, and the inner loops touch only those arrays.
//    Join events inherit the trace's start ordering, so only the leave
//    stream is sorted — as packed (window, idx) u64 keys. Single-ISP
//    swarms under the existence matcher additionally bypass the virtual
//    Matcher for a flat-array allocator (bit-identical output, no hash
//    maps on the hot path).
//  * sweep_rows(…, Trace) — the row-structured reference path, reading
//    SessionRecords and dispatching through the Matcher interface. Kept
//    as the bit-identity oracle and the bench/micro_sweep baseline.
//
// A sweep accumulates into a partial SimResult; partials merge with
// SimResult::merge (see sim/metrics.h) in ascending swarm-key order, so
// the full simulation is bit-identical for every thread count and
// between the two data paths (DESIGN.md §10).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/matcher.h"
#include "sim/metrics.h"
#include "sim/sim_config.h"
#include "sim/swarm_key.h"
#include "topology/placement.h"
#include "trace/session.h"
#include "trace/trace_view.h"

namespace cl {

/// Per-kernel wall-time accumulator shared by every worker's SwarmSweep
/// (`cl simulate --timing`). Workers add their per-swarm kernel times
/// with relaxed atomics — the totals are CPU seconds summed across
/// workers, so they can exceed the sweep phase's wall time when
/// threads > 1.
struct SweepKernelTiming {
  std::atomic<double> gather1_seconds{0};   ///< window bounds, watch time,
                                            ///< join/leave event streams
  std::atomic<double> gather2_seconds{0};   ///< per-peer column gathers
  std::atomic<double> events_seconds{0};    ///< event sort + stretch loop
  std::atomic<double> allocate_seconds{0};  ///< per-stretch allocation
};

/// One worker's reusable swarm-sweep engine.
class SwarmSweep {
 public:
  /// `metro` supplies the per-ISP trees for locality lookups and must
  /// outlive the sweep. `timing`, when non-null, receives the per-kernel
  /// wall-time split (adds clock reads to the hot path — only wire it up
  /// when the caller asked for timing).
  SwarmSweep(const Metro& metro, const SimConfig& config,
             SweepKernelTiming* timing = nullptr);

  /// Sweeps one swarm (the sessions at `indices` into `view`'s columns)
  /// and accumulates its traffic into `out` — the columnar hot path.
  /// When `config.collect_hourly` is set, `out.hourly` grows lazily to
  /// cover the hours the swarm touches — SimResult::merge aligns
  /// differently grown grids, and HybridSimulator::run pads the merged
  /// result to [hours][isps].
  void sweep(SwarmKey key, std::span<const std::uint32_t> indices,
             const TraceView& view, SimResult& out);

  /// Row-structured reference sweep over trace.sessions — bit-identical
  /// to sweep() by construction (same events, same order, same matcher
  /// arithmetic); kept for identity tests and the micro_sweep baseline.
  void sweep_rows(SwarmKey key, std::span<const std::uint32_t> indices,
                  const Trace& trace, SimResult& out);

 private:
  /// A join or leave of one swarm session at a window boundary.
  struct Event {
    std::uint64_t window = 0;
    std::uint8_t type = 0;  ///< 0 = leave, 1 = join (leaves apply first)
    std::uint32_t idx = 0;  ///< index within the swarm's session list
  };

  /// Generic event loop over the pre-built events_ (sorted here):
  /// sweep_rows' path, and sweep()'s fallback for swarms whose leave
  /// events don't fit the packed-key layout.
  template <typename MakePeer, typename Allocate>
  void run_events(SwarmKey key, std::size_t session_count,
                  double watch_seconds, double span_seconds,
                  std::size_t max_hours, SimResult& out, MakePeer&& make_peer,
                  Allocate&& allocate);

  /// Stream-merge event loop — the SoA hot path. Joins come from
  /// join_idx_ (already window-ordered: sessions are start-sorted);
  /// leaves from leave_keys_ (packed u64 keys, sorted by the caller).
  /// Applies the exact event order run_events' sort would produce.
  template <typename MakePeer, typename Allocate>
  void run_events_merge(SwarmKey key, std::size_t session_count,
                        double watch_seconds, double span_seconds,
                        std::size_t max_hours, SimResult& out,
                        MakePeer&& make_peer, Allocate&& allocate);

  /// One constant-membership stretch [w0, w1): seed selection,
  /// allocation, traffic folds (+ optional hourly / per-user splits).
  template <typename Allocate>
  void process_stretch(Allocate& allocate, std::uint64_t w0, std::uint64_t w1,
                       TrafficBreakdown& swarm_traffic, std::size_t max_hours,
                       SimResult& out);

  /// Appends the per-swarm row when collect_swarms is on.
  void emit_swarm(SwarmKey key, std::size_t session_count,
                  double watch_seconds, double span_seconds,
                  const TrafficBreakdown* traffic, SimResult& out);

  /// Flat-array ExistenceMatcher for single-ISP swarms: replaces the
  /// hash-map counting with arrays indexed by ExP/PoP id (bounded by the
  /// ISP tree), preserving the exact floating-point accumulation order —
  /// the allocation is bit-identical to ExistenceMatcher::allocate.
  void allocate_existence_flat(std::span<const ActivePeer> actives,
                               std::size_t seed_index,
                               std::vector<PeerAllocation>& out);

  const Metro* metro_;
  SimConfig config_;
  std::unique_ptr<Matcher> matcher_;
  SweepKernelTiming* timing_ = nullptr;
  // True while sweeping on the flat-allocator route (sweep() sets it per
  // swarm; sweep_rows keeps it off so the reference path stays generic).
  // It enables the sweep's one closed-form route: a lone-peer stretch —
  // the dominant shape in sparse swarms — is served entirely by the CDN
  // (server lane β·Δτ per window, every other lane zero), so
  // process_stretch folds that lane directly and skips the allocation.
  // Stretches of two or more peers always run the allocator.
  bool lone_flat_ = false;

  // Scratch, reused across swarms (cleared, not reallocated).
  std::vector<Event> events_;
  std::vector<ActivePeer> active_;
  std::vector<std::int32_t> pos_;
  std::vector<PeerAllocation> alloc_;
  // Overload-capped copy of alloc_ for a stretch's first window (only
  // touched when config.overload finds a spill; see process_stretch).
  std::vector<PeerAllocation> spill_alloc_;

  // Event streams of the merge path: crossing-session indices in join
  // order, and packed (window << 24 | idx) leave sort keys.
  std::vector<std::uint32_t> join_idx_;
  std::vector<std::uint64_t> leave_keys_;

  // Per-swarm gathered columns (the SoA path's contiguous hot arrays).
  std::vector<std::uint64_t> w_start_, w_end_;
  std::vector<std::uint32_t> g_user_, g_isp_, g_exp_, g_pop_;
  std::vector<double> g_beta_;

  // Flat-array matcher scratch, indexed by ExP / PoP id. All-zero
  // between allocations (allocate_existence_flat re-zeroes the entries
  // it touched).
  std::vector<std::uint32_t> cnt_exp_, cnt_pop_;
  std::vector<double> dem_exp_, dem_pop_;
  // The ExP / PoP ids that received demand in one allocation, each once,
  // in first-deposit order (allocate_existence_flat).
  std::vector<std::uint32_t> served_exp_, served_pop_;
};

}  // namespace cl
