// expect_sim_result.h — exact-equality gtest comparison of two full
// SimResults, shared by the suites that pin the simulator's bit-identity
// contract (across thread counts, data paths and trace transforms).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "sim/metrics.h"

namespace cl {

/// Compares total, hourly grids, the per-user map and the per-swarm
/// entries with ==, never a tolerance.
inline void expect_sim_result_identical(const SimResult& a,
                                        const SimResult& b) {
  EXPECT_EQ(a.span.value(), b.span.value());
  EXPECT_EQ(a.total.server.value(), b.total.server.value());
  EXPECT_EQ(a.total.cross_isp.value(), b.total.cross_isp.value());
  for (std::size_t l = 0; l < kLocalityLevels; ++l) {
    EXPECT_EQ(a.total.peer[l].value(), b.total.peer[l].value());
  }

  ASSERT_EQ(a.hourly.size(), b.hourly.size());
  for (std::size_t h = 0; h < a.hourly.size(); ++h) {
    ASSERT_EQ(a.hourly[h].size(), b.hourly[h].size());
    for (std::size_t i = 0; i < a.hourly[h].size(); ++i) {
      EXPECT_EQ(a.hourly[h][i].server.value(), b.hourly[h][i].server.value());
      EXPECT_EQ(a.hourly[h][i].cross_isp.value(),
                b.hourly[h][i].cross_isp.value());
      for (std::size_t l = 0; l < kLocalityLevels; ++l) {
        EXPECT_EQ(a.hourly[h][i].peer[l].value(),
                  b.hourly[h][i].peer[l].value());
      }
    }
  }

  ASSERT_EQ(a.users.size(), b.users.size());
  for (const auto& [user, traffic] : a.users) {
    const auto it = b.users.find(user);
    ASSERT_NE(it, b.users.end()) << "user " << user;
    EXPECT_EQ(traffic.downloaded.value(), it->second.downloaded.value());
    EXPECT_EQ(traffic.uploaded.value(), it->second.uploaded.value());
  }

  ASSERT_EQ(a.swarms.size(), b.swarms.size());
  for (std::size_t s = 0; s < a.swarms.size(); ++s) {
    EXPECT_EQ(a.swarms[s].key.packed(), b.swarms[s].key.packed());
    EXPECT_EQ(a.swarms[s].sessions, b.swarms[s].sessions);
    EXPECT_EQ(a.swarms[s].capacity, b.swarms[s].capacity);
    EXPECT_EQ(a.swarms[s].traffic.server.value(),
              b.swarms[s].traffic.server.value());
    EXPECT_EQ(a.swarms[s].traffic.cross_isp.value(),
              b.swarms[s].traffic.cross_isp.value());
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      EXPECT_EQ(a.swarms[s].traffic.peer[l].value(),
                b.swarms[s].traffic.peer[l].value());
    }
  }
}

}  // namespace cl
