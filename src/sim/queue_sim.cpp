#include "sim/queue_sim.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "util/error.h"

namespace cl {

QueueSimulator::QueueSimulator(double arrival_rate,
                               std::function<double(Rng&)> service_sampler)
    : arrival_rate_(arrival_rate), service_(std::move(service_sampler)) {
  CL_EXPECTS(arrival_rate_ > 0);
  CL_EXPECTS(static_cast<bool>(service_));
}

QueueSimulator::QueueSimulator(RateProfile arrivals,
                               std::function<double(Rng&)> service_sampler)
    : profile_(std::move(arrivals)),
      service_(std::move(service_sampler)) {
  CL_EXPECTS(static_cast<bool>(service_));
}

QueueSimulator QueueSimulator::mm_infinity(double arrival_rate,
                                           Seconds mean_service) {
  CL_EXPECTS(mean_service.value() > 0);
  const double mean = mean_service.value();
  return QueueSimulator(arrival_rate, [mean](Rng& rng) {
    return rng.exponential(1.0 / mean);
  });
}

QueueSimulator QueueSimulator::mm_infinity(RateProfile arrivals,
                                           Seconds mean_service) {
  CL_EXPECTS(mean_service.value() > 0);
  const double mean = mean_service.value();
  return QueueSimulator(std::move(arrivals), [mean](Rng& rng) {
    return rng.exponential(1.0 / mean);
  });
}

QueueSimulator QueueSimulator::md_infinity(double arrival_rate,
                                           Seconds service) {
  CL_EXPECTS(service.value() > 0);
  const double s = service.value();
  return QueueSimulator(arrival_rate, [s](Rng&) { return s; });
}

QueueSimResult QueueSimulator::run(Seconds horizon,
                                   std::uint64_t seed) const {
  CL_EXPECTS(horizon.value() > 0);
  Rng rng(seed ^ 0x94d049bb133111ebULL);
  const double end = horizon.value();

  // Min-heap of pending departure times; arrivals generated on the fly.
  // The constant-rate path draws exactly the sequence it always has; the
  // profile path inverts the cumulative rate Λ(t) (sim/event_engine.h),
  // one draw per arrival, and returns +inf once the arrival would pass
  // the horizon, which the `>= end` break absorbs.
  std::priority_queue<double, std::vector<double>, std::greater<>> departures;
  const auto sample_arrival = [&](double after) {
    return profile_ ? profile_->next_arrival(after, end, rng)
                    : after + rng.exponential(arrival_rate_);
  };
  double next_arrival = sample_arrival(0.0);

  QueueSimResult result;
  std::vector<double> time_in_state;  // time spent with L == index
  double now = 0;

  const auto account = [&](double until) {
    const std::size_t l = departures.size();
    if (l >= time_in_state.size()) time_in_state.resize(l + 1, 0.0);
    time_in_state[l] += until - now;
    now = until;
  };

  while (true) {
    const double next_departure =
        departures.empty() ? end + 1.0 : departures.top();
    const double next_event = std::min(next_arrival, next_departure);
    if (next_event >= end) {
      account(end);
      break;
    }
    account(next_event);
    if (next_arrival <= next_departure) {
      const double service = service_(rng);
      CL_ENSURES(service >= 0);
      departures.push(next_event + service);
      ++result.arrivals;
      next_arrival = sample_arrival(next_event);
    } else {
      departures.pop();
    }
  }

  result.occupancy_pmf.resize(time_in_state.size());
  for (std::size_t l = 0; l < time_in_state.size(); ++l) {
    const double p = time_in_state[l] / end;
    result.occupancy_pmf[l] = p;
    result.time_average_occupancy += static_cast<double>(l) * p;
    if (l >= 1) {
      result.expected_excess += static_cast<double>(l - 1) * p;
    }
  }
  result.p_empty = time_in_state.empty() ? 1.0 : time_in_state[0] / end;
  result.p_busy = 1.0 - result.p_empty;
  return result;
}

}  // namespace cl
