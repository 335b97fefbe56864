#include "ext/preload.h"

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/start_order.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cl {

namespace {

/// The swarm index of the output. Preload moves starts, never swarm
/// keys, so the groups carry over as they are; each group's order — its
/// sessions' new positions, ascending — comes from one counting pass
/// over the output. `perm[j]` is the input position of output session j.
void carry_index(const TraceView& trace,
                 const std::vector<std::uint32_t>& perm, TraceColumns& out,
                 unsigned threads) {
  const std::span<const SwarmIndexGroup> groups = trace.groups();
  const std::span<const std::uint32_t> order = trace.order();
  std::vector<std::uint32_t> group_of(perm.size());
  parallel_shards(groups.size(), threads, [&](unsigned, std::size_t begin,
                                              std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      for (std::uint64_t k = groups[g].begin;
           k < groups[g].begin + groups[g].count; ++k) {
        group_of[order[k]] = static_cast<std::uint32_t>(g);
      }
    }
  });
  out.groups.assign(groups.begin(), groups.end());
  out.order.resize(perm.size());
  std::vector<std::uint64_t> cursor(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    cursor[g] = groups[g].begin;
  }
  for (std::size_t j = 0; j < perm.size(); ++j) {
    out.order[cursor[group_of[perm[j]]]++] = static_cast<std::uint32_t>(j);
  }
}

}  // namespace

TraceView apply_preload(const TraceView& trace, const PreloadConfig& config,
                        std::uint64_t seed, unsigned threads) {
  CL_EXPECTS(config.adoption >= 0 && config.adoption <= 1);
  CL_EXPECTS(config.window_start_hour >= 0);
  CL_EXPECTS(config.window_end_hour > config.window_start_hour);
  CL_EXPECTS(config.window_end_hour <= 24);
  const std::size_t n = trace.size();
  CL_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
  const std::span<const double> start = trace.start();
  const double span_s = trace.span().value();

  // Placement. The draw sequence is the contract — one bernoulli per
  // session and one uniform per adopter, in session order — so this pass
  // is sequential. On a partial final day the window can fall past the
  // end of the span; piling those sessions onto span_s − 1 would distort
  // the final-day swarm sizes, so they stay where they were. Their draws
  // happen either way, keeping every other placement independent of the
  // span.
  Rng rng(seed ^ 0x9d39247e33776d41ULL);
  std::vector<double> placed(n);
  std::vector<std::uint8_t> moved(n);
  for (std::size_t i = 0; i < n; ++i) {
    placed[i] = start[i];
    if (rng.bernoulli(config.adoption)) {
      const double day = std::floor(start[i] / 86400.0);
      const double hour = rng.uniform(config.window_start_hour,
                                      config.window_end_hour);
      const double target = day * 86400.0 + hour * 3600.0;
      if (target < span_s) {
        placed[i] = target;
        moved[i] = 1;
      }
    }
  }
  // The output order: ascending (placed start, content, user), then
  // input position.
  const std::span<const std::uint32_t> content = trace.content();
  const std::span<const std::uint32_t> user = trace.user();
  const std::vector<std::uint32_t> perm = start_order(
      n,
      [&](std::size_t i) {
        return StartKey{placed[i], content[i], user[i]};
      },
      threads);

  // Gather the columns in output order. A moved session ending past the
  // span is clipped there.
  const std::span<const std::uint32_t> household = trace.household();
  const std::span<const std::uint32_t> isp = trace.isp();
  const std::span<const std::uint32_t> exp = trace.exp();
  const std::span<const std::uint8_t> bitrate = trace.bitrate();
  const std::span<const double> duration = trace.duration();
  TraceColumns out;
  out.resize(n);
  out.span = trace.span();
  out.metro_name = trace.metro_name();
  parallel_shards(n, threads, [&](unsigned, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      const std::uint32_t i = perm[j];
      out.user[j] = user[i];
      out.household[j] = household[i];
      out.content[j] = content[i];
      out.isp[j] = isp[i];
      out.exp[j] = exp[i];
      out.bitrate[j] = bitrate[i];
      out.start[j] = placed[i];
      double watched = duration[i];
      if (moved[i] != 0 && placed[i] + watched > span_s) {
        watched = span_s - placed[i];
      }
      out.duration[j] = watched;
    }
  });
  if (trace.has_index()) carry_index(trace, perm, out, threads);

  TraceView view = TraceView::from_columns(std::move(out));
  if (const std::size_t bad = view.first_invalid_session(threads); bad < n) {
    throw InvalidArgument("apply_preload: session " + std::to_string(bad) +
                          " breaks the trace invariants (ordering, "
                          "non-negative duration, inside the span)");
  }
  return view;
}

}  // namespace cl
