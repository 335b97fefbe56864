// queue_sim.h — event-driven M/M/∞ (and M/G/∞, Mt/G/∞) queue simulator.
//
// The analytical model rests on one stochastic assumption: a content
// swarm behaves like an M/M/∞ queue, so its occupancy is Poisson(c)
// distributed (Section III.B). This substrate simulates that queue
// directly — Poisson arrivals, arbitrary service-time sampler, infinite
// servers — and reports the time-averaged occupancy statistics the model
// predicts. It validates the assumption independently of the trace-driven
// simulator and doubles as a generator of steady-state occupancy samples
// for Monte-Carlo cross-checks.
//
// The live-event scenario engine adds a non-homogeneous mode: arrivals
// driven by a RateProfile (sim/event_engine.h) instead of a constant
// rate — the Mt/G/∞ queue whose time-varying occupancy is what a flash
// crowd's swarm looks like. The constant-rate constructors are untouched
// and draw the exact same rng sequence as before.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/event_engine.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace cl {

/// Result of one queue simulation run.
struct QueueSimResult {
  double time_average_occupancy = 0;  ///< ∫L dt / horizon — estimates c
  double p_empty = 0;                 ///< fraction of time with L = 0
  double p_busy = 0;                  ///< 1 − p_empty — estimates 1 − e^{-c}
  std::uint64_t arrivals = 0;
  /// Time-weighted occupancy distribution: occupancy_pmf[l] ≈ P[L = l].
  std::vector<double> occupancy_pmf;
  /// E[(L−1)^+] — the model's expected peer excess.
  double expected_excess = 0;
};

/// Infinite-server queue simulator.
class QueueSimulator {
 public:
  /// `arrival_rate` in events/second; `service` samples one service time
  /// in seconds (exponential for M/M/∞, anything for M/G/∞).
  QueueSimulator(double arrival_rate,
                 std::function<double(Rng&)> service_sampler);

  /// Non-homogeneous arrivals (Mt/G/∞): the profile's λ(t) drives the
  /// arrival stream (RateProfile::next_arrival).
  QueueSimulator(RateProfile arrivals,
                 std::function<double(Rng&)> service_sampler);

  /// Exponential service with the given mean — the M/M/∞ of the paper.
  [[nodiscard]] static QueueSimulator mm_infinity(double arrival_rate,
                                                  Seconds mean_service);

  /// Exponential service under a burst arrival profile (Mt/M/∞).
  [[nodiscard]] static QueueSimulator mm_infinity(RateProfile arrivals,
                                                  Seconds mean_service);

  /// Deterministic service (M/D/∞) — occupancy is still Poisson(c) by
  /// insensitivity; used to test that the model does not depend on the
  /// service distribution.
  [[nodiscard]] static QueueSimulator md_infinity(double arrival_rate,
                                                  Seconds service);

  /// Runs for `horizon` simulated seconds. Deterministic in `seed`.
  [[nodiscard]] QueueSimResult run(Seconds horizon, std::uint64_t seed) const;

 private:
  double arrival_rate_ = 0;  ///< constant-rate mode only
  std::optional<RateProfile> profile_;
  std::function<double(Rng&)> service_;
};

}  // namespace cl
