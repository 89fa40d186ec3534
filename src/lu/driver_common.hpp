// Internal helpers shared by the OOC LU and Cholesky drivers.
#pragma once

#include "ooc/gemm_engines.hpp"
#include "lu/ooc_lu.hpp"
#include "sim/device.hpp"

namespace rocqr::lu::detail {

inline ooc::OocGemmOptions engine_options(const FactorOptions& opts) {
  ooc::OocGemmOptions g;
  g.blocksize = opts.blocksize;
  g.ramp_up = opts.ramp_up;
  g.ramp_start = opts.ramp_start;
  g.staging_buffer = opts.staging_buffer;
  g.pipeline_depth = opts.pipeline_depth;
  g.precision = opts.precision;
  return g;
}

inline void sync_unless_overlap(sim::Device& dev, const FactorOptions& opts) {
  if (!opts.overlap) dev.synchronize();
}

} // namespace rocqr::lu::detail
