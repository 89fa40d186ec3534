#include "ooc/slab_schedule.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ooc/gemm_engines.hpp"
#include "sim/device.hpp"

namespace rocqr::ooc {

std::vector<Slab> slab_partition(index_t total, index_t blocksize,
                                 bool ramp_up, index_t ramp_start) {
  ROCQR_CHECK(total >= 0, "slab_partition: negative total");
  ROCQR_CHECK(blocksize > 0, "slab_partition: blocksize must be positive");
  ROCQR_CHECK(!ramp_up || (ramp_start > 0 && ramp_start <= blocksize),
              "slab_partition: ramp_start must be in (0, blocksize]");
  std::vector<Slab> slabs;
  index_t offset = 0;
  index_t width = ramp_up ? ramp_start : blocksize;
  while (offset < total) {
    const index_t w = std::min(width, total - offset);
    slabs.push_back(Slab{offset, w});
    offset += w;
    if (ramp_up && width < blocksize) width = std::min(width * 2, blocksize);
  }
  return slabs;
}

index_t max_slab_width(const std::vector<Slab>& slabs) {
  index_t best = 0;
  for (const Slab& s : slabs) best = std::max(best, s.width);
  return best;
}

index_t plan_column_split(const sim::Device& dev, const OocGemmOptions& opts,
                          double budget_fraction, index_t rows, index_t h,
                          index_t rest) {
  const double budget =
      static_cast<double>(dev.memory_capacity()) * budget_fraction;
  const double in_bytes =
      opts.precision == blas::GemmPrecision::FP16_FP32 ? 2.0 : 4.0;
  const double bs = static_cast<double>(std::min(opts.blocksize, rows));
  const double depth = static_cast<double>(opts.pipeline_depth);
  const auto fits = [&](index_t np) {
    const double b_bytes =
        static_cast<double>(h) * static_cast<double>(np) * in_bytes;
    const double a_slabs = depth * bs * static_cast<double>(h) * in_bytes;
    const double c_slabs = (opts.staging_buffer ? 2.0 : 1.0) * bs *
                           static_cast<double>(np) * 4.0;
    return b_bytes + a_slabs + c_slabs <= budget;
  };
  if (fits(rest)) return 0;
  index_t np = rest;
  while (np > opts.blocksize && !fits(np)) {
    np = (np + 1) / 2;
    np = std::min(rest, (np + opts.blocksize - 1) / opts.blocksize *
                            opts.blocksize);
    if (np <= opts.blocksize) break;
  }
  return std::min(np, rest);
}

} // namespace rocqr::ooc
