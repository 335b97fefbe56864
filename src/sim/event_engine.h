// event_engine.h — deterministic building blocks of the live-event
// scenario engine: a piecewise-constant arrival-rate profile (the shape
// of a burst) and a time-ordered event queue with stable FIFO tie-break.
//
// The trace-driven simulator replays a *fixed* workload; live events need
// the opposite — a workload whose arrival intensity changes mid-trace
// (ramp to kickoff, spike at a premiere, decay afterwards). RateProfile
// describes λ(t) as ordered constant-rate phases and samples the
// non-homogeneous Poisson arrival stream by inverting its cumulative
// rate Λ(t) = ∫₀ᵗ λ, which is piecewise linear: one Exp(1) draw E per
// arrival, and the next arrival is the time where Λ has grown by E past
// `now` (the Poisson time-change theorem makes this the same process in
// distribution as Lewis–Shedler thinning, without thinning's rejected
// candidates — a spike's zero-rate day cost ~400 of them per viewer).
// Generating the 100k-viewer spike day (perfbench `flash_crowd`
// setup_s) went from a 1.41 s to a 0.18 s median, 4-vCPU Xeon VM.
// Everything is deterministic in the Rng passed in, so generated
// scenarios reproduce bit-exactly from one seed.
//
// EventQueue is the scenario generators' scheduling core: a binary-heap
// priority queue ordered by (time, insertion sequence). Ties resolve in
// push order — never by heap internals — so event application order, and
// therefore every downstream rng draw, is deterministic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace cl {

/// One constant-rate phase of an arrival profile: `rate_per_s` applies
/// from `start_s` until the next phase's start (the last phase extends
/// to infinity).
struct RatePhase {
  double start_s = 0;
  double rate_per_s = 0;
};

/// Piecewise-constant arrival-rate profile λ(t) ≥ 0. Before the first
/// phase the rate is 0.
class RateProfile {
 public:
  /// Phases must be non-empty, with strictly ascending non-negative
  /// starts, non-negative rates, and at least one positive rate.
  explicit RateProfile(std::vector<RatePhase> phases);

  /// A single-phase profile: rate `rate_per_s` from t = 0 on (the
  /// homogeneous-Poisson special case).
  [[nodiscard]] static RateProfile constant(double rate_per_s);

  [[nodiscard]] const std::vector<RatePhase>& phases() const {
    return phases_;
  }

  /// λ(t) — 0 before the first phase, else the covering phase's rate.
  [[nodiscard]] double rate_at(double t) const;

  /// Expected arrivals in [0, horizon): ∫λ(t)dt.
  [[nodiscard]] double expected_arrivals(double horizon_s) const;

  /// Samples the next arrival strictly after `now` and below `limit_s`
  /// by inverting Λ: exactly one rng draw (one `exponential`) per call.
  /// Returns +infinity when the arrival would fall at or past `limit_s`
  /// — including `limit_s` = +infinity on a profile whose last phase has
  /// rate 0, once the positive phases are behind `now`. The returned
  /// time never lies in a zero-rate phase. `now` and `limit_s` must not
  /// be NaN. Deterministic in the rng state.
  [[nodiscard]] double next_arrival(double now, double limit_s,
                                    Rng& rng) const;

 private:
  std::vector<RatePhase> phases_;
};

/// Min-heap of (time, payload) events with deterministic FIFO tie-break:
/// equal-time events pop in push order. The scenario generators drive
/// their event loops off this queue, so tie-breaking by insertion
/// sequence — not heap layout — is what keeps generated traces
/// reproducible.
template <typename Payload>
class EventQueue {
 public:
  struct Scheduled {
    double time = 0;
    std::uint64_t seq = 0;
    Payload payload{};
  };

  void push(double time, Payload payload) {
    heap_.push_back({time, seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] double next_time() const { return heap_.front().time; }

  Scheduled pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Scheduled event = std::move(heap_.back());
    heap_.pop_back();
    return event;
  }

 private:
  // std::push_heap builds a max-heap; "later event sorts lower" makes it
  // a min-heap over (time, seq).
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Scheduled> heap_;
  std::uint64_t seq_ = 0;
};

}  // namespace cl
