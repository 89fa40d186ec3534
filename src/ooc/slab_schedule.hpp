// Partitioning of a streamed dimension into slabs, with the optional
// ramp-up schedule of §4.1.3 (start small so the first move-in is partially
// hidden, grow to the full blocksize for steady-state efficiency).
#pragma once

#include <vector>

#include "common/types.hpp"

namespace rocqr::sim {
class Device;
} // namespace rocqr::sim

namespace rocqr::ooc {

struct OocGemmOptions;

struct Slab {
  index_t offset = 0;
  index_t width = 0;
};

/// Splits [0, total) into contiguous slabs of `blocksize` (the last slab
/// takes the remainder). With `ramp_up`, widths start at `ramp_start` and
/// double each step until reaching `blocksize`.
std::vector<Slab> slab_partition(index_t total, index_t blocksize,
                                 bool ramp_up = false,
                                 index_t ramp_start = 2048);

/// Largest width appearing in a partition (buffer sizing).
index_t max_slab_width(const std::vector<Slab>& slabs);

/// Column-panel width for a trailing update C (rows x rest) -= A B whose
/// B (h x rest) stays resident next to the streamed A and C slab pools:
/// halved, rounded up to a blocksize multiple, until B's panel and the
/// pools fit `budget_fraction` of the device memory. A then re-streams
/// once per panel. Returns 0 for "unsplit" (everything fits).
index_t plan_column_split(const sim::Device& dev, const OocGemmOptions& opts,
                          double budget_fraction, index_t rows, index_t h,
                          index_t rest);

} // namespace rocqr::ooc
