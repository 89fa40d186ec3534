// Fleet-wide out-of-core TSQR (communication-avoiding QR across devices).
//
// The tall matrix is split into one row block per device; each device
// factors its block locally with the recursive OOC driver (the paper's
// Eq. 2 solver, slab-pipelined), the per-leaf R factors are reduced
// pairwise up a binary tree of small in-core Householder QRs, and a
// reconstruction sweep pushes n x n coefficient blocks back down the tree
// to form Q out of core. Capacity therefore scales with *fleet* memory:
// a matrix no single device can hold factors as long as each row block's
// working set fits its device. In simulated time the leaf factorizations
// overlap freely (each device has its own clock); the tree serializes only
// on the actual R-factor dependencies, modeled as cross-device host-clock
// joins plus real H2D/D2H transfers of the stacked R factors (so a
// SharedHostLink fleet sees the contention).
//
// Checkpoint/preemption boundaries sit at leaf-factorization granularity:
// with a CheckpointSink installed, the driver snapshots A plus the stacked
// R workspace after every completed leaf under the "tsqr" driver tag, and
// qr::resume (factorize.hpp) replays the schedule
// skipping the completed leaves — bit-identical to an uninterrupted run,
// because leaves are independent and the tree/reconstruction always runs
// after the last leaf on identical inputs.
#pragma once

#include <vector>

#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::qr {

namespace detail {

/// The Tsqr case of qr::factorize's and qr::resume's one dispatch:
/// `resume_r_stack`, when non-null, is the checkpointed stacked R workspace
/// (leaves*n x n column-major floats) restoring the R factors of the
/// opts.resume_units already-completed leaves. Real-mode resumes with
/// resume_units > 0 require it; fresh runs pass nullptr.
///
/// `resume_leaves` > 0 pins the leaf partition to the checkpointed run's
/// leaf count instead of deriving it from the current fleet size — the
/// shrunk-fleet migration path: a 4-leaf checkpoint resumed on 3 surviving
/// devices keeps its 4-leaf row partition (leaves map onto devices
/// round-robin), so completed leaves stay valid and the result is
/// bit-identical to an uninterrupted 4-leaf run. 0 = derive from the fleet.
QrStats run_tsqr(const std::vector<sim::Device*>& devices, sim::HostMutRef a,
                 sim::HostMutRef r, const QrOptions& opts,
                 const std::vector<float>* resume_r_stack,
                 index_t resume_leaves = 0);

/// Number of TSQR leaves (row blocks) a fleet of `fleet_size` devices uses
/// for an m x n factorization: min(fleet_size, m / n), so every leaf has at
/// least n rows. Exposed for admission control and tests.
index_t tsqr_leaf_count(index_t m, index_t n, size_t fleet_size);

} // namespace detail

} // namespace rocqr::qr
