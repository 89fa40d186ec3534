// Bitwise field-by-field equality of two sim::EngineStats windows (QrStats
// is the same struct), for tests that pin two derivations of one schedule
// to each other: a double must match to the bit, not within a tolerance.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "sim/trace.hpp"

namespace rocqr::testing {

inline void expect_same_stats(const sim::EngineStats& a,
                              const sim::EngineStats& b,
                              const std::string& what = {}) {
  using S = sim::EngineStats;
  for (sim_time_t S::*seconds :
       {&S::first_start, &S::last_end, &S::total_seconds, &S::h2d_seconds,
        &S::d2h_seconds, &S::compute_seconds, &S::panel_seconds,
        &S::gemm_seconds, &S::d2d_seconds}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.*seconds),
              std::bit_cast<std::uint64_t>(b.*seconds))
        << what << ": " << a.*seconds << " vs " << b.*seconds;
  }
  EXPECT_EQ(a.bytes_h2d, b.bytes_h2d) << what;
  EXPECT_EQ(a.bytes_d2h, b.bytes_d2h) << what;
  EXPECT_EQ(a.bytes_d2d, b.bytes_d2d) << what;
  EXPECT_EQ(a.flops, b.flops) << what;
  EXPECT_EQ(a.peak_device_bytes, b.peak_device_bytes) << what;
  EXPECT_EQ(a.panels, b.panels) << what;
  EXPECT_EQ(a.events, b.events) << what;
}

} // namespace rocqr::testing
