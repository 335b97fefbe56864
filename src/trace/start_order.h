// start_order.h — the start-time order of a session set, as a permutation.
//
// Every trace is ordered by ascending (start, content, user), and both
// producers of new session orders — the synthetic generator
// (trace/synthetic.h) and the preload transform (ext/preload.h) — break
// the remaining full-key ties by input position. start_order computes that
// permutation in near-linear time: a counting sort on a start bucket (the
// bucket is monotone in start, so buckets come out in start order), then
// a sort of each small bucket by the full key, buckets in parallel. The
// result depends only on the keys, never on the thread count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace cl {

/// The sort key of one session.
struct StartKey {
  double start = 0;
  std::uint32_t content = 0;
  std::uint32_t user = 0;
};

/// Returns `order` with order[j] = the position of the j-th session in
/// ascending (start, content, user, position) order. `key_at(i)` yields
/// the StartKey of position i, for i in [0, n); it is called concurrently.
/// Throws InvalidArgument when a start is negative, infinite or NaN.
/// Precondition: n fits std::uint32_t.
template <typename KeyAt>
[[nodiscard]] std::vector<std::uint32_t> start_order(std::size_t n,
                                                     KeyAt&& key_at,
                                                     unsigned threads) {
  CL_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
  double low = std::numeric_limits<double>::infinity();
  double high = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double start = key_at(i).start;
    // Also keeps NaN and infinities out of the bucket arithmetic.
    if (!(start >= 0) || !std::isfinite(start)) {
      throw InvalidArgument("session " + std::to_string(i) +
                            " has a start outside [0, inf)");
    }
    low = std::min(low, start);
    high = std::max(high, start);
  }
  const std::size_t buckets = std::max<std::size_t>(1, n / 2);
  // Not finite when every start is (nearly) equal: one bucket then.
  const double scale = static_cast<double>(buckets) / (high - low);
  const auto bucket_of = [&](std::size_t i) -> std::size_t {
    if (!std::isfinite(scale)) return 0;
    return std::min(buckets - 1, static_cast<std::size_t>(
                                     (key_at(i).start - low) * scale));
  };
  std::vector<std::uint32_t> bucket_begin(buckets + 1);
  for (std::size_t i = 0; i < n; ++i) ++bucket_begin[bucket_of(i) + 1];
  for (std::size_t b = 0; b < buckets; ++b) {
    bucket_begin[b + 1] += bucket_begin[b];
  }
  std::vector<std::uint32_t> order(n);
  {
    std::vector<std::uint32_t> cursor(bucket_begin.begin(),
                                      bucket_begin.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      order[cursor[bucket_of(i)]++] = static_cast<std::uint32_t>(i);
    }
  }

  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    const StartKey ka = key_at(a);
    const StartKey kb = key_at(b);
    if (ka.start != kb.start) return ka.start < kb.start;
    if (ka.content != kb.content) return ka.content < kb.content;
    if (ka.user != kb.user) return ka.user < kb.user;
    return a < b;
  };
  parallel_shards(buckets, threads, [&](unsigned, std::size_t begin,
                                        std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) {
      if (bucket_begin[b + 1] - bucket_begin[b] > 1) {
        std::sort(order.begin() + bucket_begin[b],
                  order.begin() + bucket_begin[b + 1], before);
      }
    }
  });
  return order;
}

}  // namespace cl
