// Blocksize autotuning via phantom-mode dry runs.
//
// Because Phantom execution computes the exact schedule of a configuration
// in milliseconds, tuning is just "simulate every candidate and take the
// argmin" — no measurement noise, no hardware time. This is the practical
// payoff of the simulator for a library user: ask the model which blocksize
// to use for a given device and problem before touching real data.
//
// Each candidate runs on a fresh Phantom device that records totals, not
// events (sim::Recording::Totals): the sweep reads only the makespan and
// the peak, so it stores no event and opens no phase span.
#pragma once

#include <vector>

#include "qr/options.hpp"
#include "sim/spec.hpp"

namespace rocqr::qr {

struct TunePoint {
  index_t blocksize = 0;
  sim_time_t seconds = 0; ///< simulated end-to-end time
  bool fits = false;      ///< false = device OOM at this blocksize
  /// Peak device bytes of the dry run (the high-water mark reached before
  /// the failing allocation when !fits). Admission control sizes jobs by it.
  bytes_t peak_bytes = 0;
};

struct TuneResult {
  index_t best_blocksize = 0;
  sim_time_t best_seconds = 0;
  bytes_t best_peak_bytes = 0;      ///< peak device bytes of the winner
  std::vector<TunePoint> sweep;     ///< every candidate evaluated
};

/// Simulates the full OOC QR of an m x n matrix on `spec` and returns the
/// fastest feasible blocksize. Candidates are the powers of two
/// min_blocksize·2^k clamped to [1, min(max_blocksize, n)], plus the
/// clamped upper end itself as a tail candidate — so a non-power-of-two n
/// still tries the full-width panel b = n, and n < min_blocksize yields the
/// single candidate b = n instead of an empty sweep. Throws
/// DeviceOutOfMemory (naming the device, its capacity, and the candidate
/// range) only when every candidate OOMs. `base` carries the other options
/// (precision, optimizations, algorithm choice via `recursive`).
TuneResult tune_blocksize(const sim::DeviceSpec& spec, index_t m, index_t n,
                          bool recursive, QrOptions base = {},
                          index_t min_blocksize = 1024,
                          index_t max_blocksize = 65536);

} // namespace rocqr::qr
