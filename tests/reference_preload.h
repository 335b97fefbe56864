// reference_preload.h — the test-only reference for the preload transform
// (ext/preload.h).
//
// This is the original row implementation: copy each SessionRecord, draw
// its placement, sort the rows, validate. It lives outside src/ so the
// column transform is pinned against code it shares nothing with. The
// one deliberate difference from a plain std::sort is stability: rows
// with equal (start, content, user) keep their input order, which is the
// original-position tie-break the column transform documents.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "ext/preload.h"
#include "trace/session.h"
#include "util/rng.h"

namespace cl::testing_reference {

inline Trace apply_preload(const Trace& trace, const PreloadConfig& config,
                           std::uint64_t seed) {
  Rng rng(seed ^ 0x9d39247e33776d41ULL);
  Trace out;
  out.span = trace.span;
  out.metro_name = trace.metro_name;
  out.sessions.reserve(trace.sessions.size());
  const double span_s = trace.span.value();
  for (SessionRecord s : trace.sessions) {
    if (rng.bernoulli(config.adoption)) {
      const double day = std::floor(s.start / 86400.0);
      const double hour = rng.uniform(config.window_start_hour,
                                      config.window_end_hour);
      const double target = day * 86400.0 + hour * 3600.0;
      // A target past the end of the span leaves the session in place;
      // the draws above happen either way.
      if (target < span_s) {
        s.start = target;
        if (s.end() > span_s) s.duration = span_s - s.start;
      }
    }
    out.sessions.push_back(s);
  }
  std::stable_sort(out.sessions.begin(), out.sessions.end(),
                   [](const SessionRecord& a, const SessionRecord& b) {
                     if (a.start != b.start) return a.start < b.start;
                     if (a.content != b.content) return a.content < b.content;
                     return a.user < b.user;
                   });
  out.validate();
  return out;
}

}  // namespace cl::testing_reference
