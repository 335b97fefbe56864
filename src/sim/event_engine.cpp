#include "sim/event_engine.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace cl {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Visits the positive-rate pieces of [from, to) in time order as
/// visit(begin, end, rate), each piece the overlap of one phase with the
/// interval; stops early once visit returns true. Zero-rate phases are
/// skipped, so an arrival can never be placed inside one.
template <typename Visit>
void walk_positive_phases(const std::vector<RatePhase>& phases, double from,
                          double to, Visit&& visit) {
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const double begin = std::max(phases[i].start_s, from);
    const double end =
        std::min(i + 1 < phases.size() ? phases[i + 1].start_s : kInf, to);
    if (end <= begin || phases[i].rate_per_s == 0) continue;
    if (visit(begin, end, phases[i].rate_per_s)) return;
  }
}

}  // namespace

RateProfile::RateProfile(std::vector<RatePhase> phases)
    : phases_(std::move(phases)) {
  CL_EXPECTS(!phases_.empty());
  double prev = -1;
  for (const RatePhase& phase : phases_) {
    CL_EXPECTS(phase.start_s >= 0);
    CL_EXPECTS(phase.start_s > prev);
    CL_EXPECTS(phase.rate_per_s >= 0);
    prev = phase.start_s;
    max_rate_ = std::max(max_rate_, phase.rate_per_s);
  }
  CL_EXPECTS(max_rate_ > 0);
}

RateProfile RateProfile::constant(double rate_per_s) {
  return RateProfile({{0.0, rate_per_s}});
}

double RateProfile::rate_at(double t) const {
  if (t < phases_.front().start_s) return 0.0;
  // Linear scan from the back: profiles are a handful of phases.
  for (std::size_t i = phases_.size(); i-- > 0;) {
    if (t >= phases_[i].start_s) return phases_[i].rate_per_s;
  }
  return 0.0;
}

double RateProfile::expected_arrivals(double horizon_s) const {
  double sum = 0;
  walk_positive_phases(phases_, 0.0, horizon_s,
                       [&](double begin, double end, double rate) {
                         sum += rate * (end - begin);
                         return false;
                       });
  return sum;
}

double RateProfile::next_arrival(double now, double limit_s, Rng& rng) const {
  CL_EXPECTS(!std::isnan(now) && !std::isnan(limit_s));
  // Λ(arrival) − Λ(now) = E ~ Exp(1): spend E's mass phase by phase.
  // exponential(1.0) is −log1p(−u) exactly, so on a single phase the
  // result is now + (−log1p(−u))/λ — the homogeneous sampler's arithmetic.
  double left = rng.exponential(1.0);
  double arrival = kInf;
  walk_positive_phases(
      phases_, now, limit_s, [&](double begin, double end, double rate) {
        const double mass = rate * (end - begin);
        if (left >= mass) {
          left -= mass;
          return false;
        }
        // Rounding must not carry the arrival out of its phase, and u = 0
        // (E = 0) must not return `now` itself. Only a phase narrower
        // than one ulp past `now` can fail both; it passes E's remainder
        // (zero) on to the next phase.
        const double at =
            std::max(std::min(begin + left / rate, std::nextafter(end, begin)),
                     std::nextafter(now, kInf));
        if (at >= end) {
          left = 0;
          return false;
        }
        arrival = at;
        return true;
      });
  return arrival;
}

}  // namespace cl
