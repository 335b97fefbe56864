// preload.h — predictive preloading extension (paper's future work,
// ref [17] "Take-Away TV").
//
// Predictive preloading downloads the content a user is expected to watch
// during a concentrated off-peak window (e.g. before the morning commute).
// From the swarm's perspective this *synchronises* demand: sessions that
// would have been spread over the day land in the same short window,
// raising instantaneous swarm sizes and therefore peer-to-peer locality
// and offload. This module transforms a trace accordingly so the standard
// simulator and model quantify the effect.
//
// The transform works on columns: it reads a TraceView (zero-copy for a
// mapped `.cltrace`) and writes an owned-SoA view, never a row.
//
// Simplification (documented): a preloaded download is modelled as a
// session of unchanged duration and bitrate placed inside the preload
// window — i.e. we model the timing shift, not accelerated bulk transfer.
#pragma once

#include <cstdint>

#include "trace/trace_view.h"

namespace cl {

/// Configuration of the preloading behaviour.
struct PreloadConfig {
  double adoption = 0.5;  ///< fraction of sessions preloaded, in [0, 1]
  double window_start_hour = 7.0;  ///< preload window start (local time)
  double window_end_hour = 9.0;    ///< preload window end, > start
};

/// Returns `trace` with each session, with probability `config.adoption`,
/// moved into the preload window of its original day (a target past the
/// end of the span leaves the session where it is; a moved session is
/// clipped at the span's end). Sessions come out sorted by
/// (start, content, user), the original position breaking full-key ties,
/// and the result is checked against the trace invariants (throws
/// cl::InvalidArgument). Preload changes only start and duration, so a
/// swarm index carries over: same groups, each group's order rebuilt
/// from the new positions. Deterministic in `seed`; the result does not
/// depend on `threads` (0 = all hardware threads).
[[nodiscard]] TraceView apply_preload(const TraceView& trace,
                                      const PreloadConfig& config,
                                      std::uint64_t seed,
                                      unsigned threads = 1);

}  // namespace cl
