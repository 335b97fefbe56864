#include "model/swarm_model.h"

#include <math.h>  // lgamma_r

#include <cmath>

#include "util/error.h"

namespace cl {

SwarmModel::SwarmModel(double capacity) : c_(capacity) {
  CL_EXPECTS(capacity >= 0);
}

SwarmModel SwarmModel::from_rate(Seconds mean_duration,
                                 double arrivals_per_second) {
  CL_EXPECTS(mean_duration.value() >= 0);
  CL_EXPECTS(arrivals_per_second >= 0);
  return SwarmModel(mean_duration.value() * arrivals_per_second);
}

double SwarmModel::p_online() const { return -std::expm1(-c_); }

double SwarmModel::occupancy_pmf(unsigned l) const {
  if (c_ == 0) return l == 0 ? 1.0 : 0.0;
  // exp(l·ln c − c − ln l!) in log space to avoid overflow for large l.
  // lgamma_r rather than std::lgamma, which writes libm's global
  // `signgam` (a data race under concurrent callers).
  int sign = 0;
  const double log_p = static_cast<double>(l) * std::log(c_) - c_ -
                       ::lgamma_r(static_cast<double>(l) + 1.0, &sign);
  return std::exp(log_p);
}

double SwarmModel::expected_excess() const { return cl::expected_excess(c_); }

double SwarmModel::expected_excess_nonlocal(double p) const {
  return cl::expected_excess_nonlocal(p, c_);
}

double expected_excess(double c) {
  CL_EXPECTS(c >= 0);
  if (c < 1e-2) {
    // c − 1 + e^{-c} = c²/2 − c³/6 + c⁴/24 − c⁵/120 + …; the direct
    // expression cancels catastrophically for small c (all significant
    // digits lost below c ≈ 1e-8, and ~5 digits already at c = 1e-4).
    return c * c *
           (0.5 - c / 6.0 + c * c / 24.0 - c * c * c / 120.0);
  }
  return c + std::expm1(-c);
}

double expected_excess_nonlocal(double p, double c) {
  CL_EXPECTS(p >= 0 && p <= 1);
  CL_EXPECTS(c >= 0);
  if (p == 1.0) return 0.0;
  if (p == 0.0) return expected_excess(c);
  const double s = 1.0 - p;
  // (1 − e^{-c·s})/s via expm1 for stability when c·s is small.
  const double inner = c + std::expm1(-c * s) / s;
  // inner = c − (1−e^{-cs})/s suffers the same cancellation as
  // expected_excess for small c·s; switch to the series there.
  if (c * s < 1e-2) {
    const double cs = c * s;
    // 1−e^{-x} = x − x²/2 + x³/6 − …, so c − (1−e^{-cs})/s
    //          = c·(cs/2 − cs²/6 + cs³/24 − cs⁴/120 + …).
    return std::exp(-c * p) * c *
           (cs / 2.0 - cs * cs / 6.0 + cs * cs * cs / 24.0 -
            cs * cs * cs * cs / 120.0);
  }
  return std::exp(-c * p) * inner;
}

}  // namespace cl
