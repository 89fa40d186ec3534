#include "qr/autotune.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "qr/blocking_qr.hpp"
#include "qr/recursive_qr.hpp"
#include "sim/device.hpp"

namespace rocqr::qr {

TuneResult tune_blocksize(const sim::DeviceSpec& spec, index_t m, index_t n,
                          bool recursive, QrOptions base,
                          index_t min_blocksize, index_t max_blocksize) {
  ROCQR_CHECK(m >= n && n >= 1, "tune_blocksize: need m >= n >= 1");
  ROCQR_CHECK(min_blocksize >= 1 && min_blocksize <= max_blocksize,
              "tune_blocksize: bad blocksize range");

  // Clamp the sweep to the matrix: the drivers clamp b to n anyway, so any
  // candidate wider than n would alias b = n. The clamped upper end is
  // always included as a tail candidate — it is b = n whenever n fits the
  // caller's range, which covers both n < min_blocksize (single candidate
  // b = n) and n not of the form min_blocksize·2^k.
  const index_t hi = std::min(max_blocksize, n);
  const index_t lo = std::min(min_blocksize, hi);
  std::vector<index_t> candidates;
  for (index_t b = lo; b <= hi; b *= 2) candidates.push_back(b);
  if (candidates.empty() || candidates.back() != hi) candidates.push_back(hi);

  TuneResult result;
  for (const index_t b : candidates) {
    TunePoint point;
    point.blocksize = b;
    sim::Device dev(spec, sim::ExecutionMode::Phantom, nullptr,
                    sim::Recording::Totals);
    dev.model().install_paper_calibration();
    try {
      auto a = sim::HostMutRef::phantom(m, n);
      auto r = sim::HostMutRef::phantom(n, n);
      QrOptions opts = base;
      opts.blocksize = b;
      const QrStats stats = recursive
                                ? detail::run_recursive(dev, a, r, opts)
                                : detail::run_blocking(dev, a, r, opts);
      point.seconds = stats.total_seconds;
      point.peak_bytes = stats.peak_device_bytes;
      point.fits = true;
    } catch (const DeviceOutOfMemory&) {
      point.fits = false;
      point.peak_bytes = dev.memory_peak(); // high-water before the OOM
    }
    result.sweep.push_back(point);
  }

  const auto best = std::min_element(
      result.sweep.begin(), result.sweep.end(),
      [](const TunePoint& lhs, const TunePoint& rhs) {
        if (lhs.fits != rhs.fits) return lhs.fits; // feasible wins
        return lhs.fits && lhs.seconds < rhs.seconds;
      });
  if (!best->fits) {
    throw DeviceOutOfMemory(
        "tune_blocksize: no feasible blocksize for " + format_shape(m, n) +
        " QR on " + spec.name + " (" + format_bytes(spec.memory_capacity) +
        "): every candidate in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "] exceeded device memory");
  }
  result.best_blocksize = best->blocksize;
  result.best_seconds = best->seconds;
  result.best_peak_bytes = best->peak_bytes;
  return result;
}

} // namespace rocqr::qr
