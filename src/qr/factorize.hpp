// Unified QR driver front end — the one way to factorize.
//
// Mirrors PR 2's ooc::GemmProblem redesign: callers describe the problem
// once in a plain `QrProblem` aggregate (devices, A, R, algorithm,
// options) and hand it to `qr::factorize`. The historical per-driver free
// functions (blocking_ooc_qr, left_looking_ooc_qr, recursive_ooc_qr,
// tsqr_ooc_qr) went through a [[deprecated]] cycle and are now removed;
// docs/API.md keeps the migration table.
//
//   sim::Device dev(spec);
//   qr::QrProblem p{{&dev}, a.view(), r.view(), qr::Algorithm::Recursive,
//                   opts};
//   qr::QrStats stats = qr::factorize(p);
//
// `qr::resume` is the matching single entry for checkpoint restart: it
// parses the checkpoint's driver tag and runs the same dispatch as
// `qr::factorize` (the resume_ooc_qr overloads are likewise removed).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qr/checkpoint.hpp"
#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::qr {

/// Which driver runs the factorization — the one list of algorithms that
/// factorize, resume, checkpoints and the service share. Blocking /
/// LeftLooking / Recursive / Tiled are single-device (problem.devices must
/// have exactly one entry); Tsqr uses the whole fleet.
enum class Algorithm {
  Blocking,    ///< right-looking fixed-panel baseline (Fig 1)
  LeftLooking, ///< lazy-projection, minimal movement (SOLAR §2.1)
  Recursive,   ///< the paper's recursive driver (Eq. 2 / Fig 2)
  Tsqr,        ///< fleet-wide TSQR over row-block leaves
  Tiled,       ///< tiled CGS on the TaskGraph executor (Buttari-style DAG)
};

/// Stable lowercase tag ("blocking", "left", "recursive", "tsqr", "tiled")
/// — the serve/jobs-JSON and checkpoint driver vocabulary.
const char* to_string(Algorithm a);

/// Inverse of to_string; nullopt for unknown names.
std::optional<Algorithm> parse_algorithm(std::string_view name);

/// Everything qr::factorize needs, in one descriptor. A plain aggregate:
/// designated or positional initialization both read naturally.
struct QrProblem {
  /// The device fleet. Single-device algorithms require size() == 1.
  std::vector<sim::Device*> devices;
  /// m x n host input (m >= n); holds Q on return. Phantom refs allowed in
  /// Phantom mode.
  sim::HostMutRef a;
  /// n x n host output receiving the upper-triangular R.
  sim::HostMutRef r;
  Algorithm algorithm = Algorithm::Recursive;
  QrOptions options;
};

/// Factors problem.a (Q in place) with problem.r receiving R, using the
/// selected driver. Validates options and the devices/algorithm pairing;
/// throws InvalidArgument on mismatch.
QrStats factorize(const QrProblem& problem);

/// Restarts a factorization from `cp`: restores the host A/R data (Real
/// mode), then re-runs the driver named by the *checkpoint's* tag —
/// problem.algorithm is ignored, the checkpoint knows what produced it —
/// through factorize's dispatch and device rule, with resume_units =
/// cp.units_done so the completed schedule prefix is skipped. A "tsqr"
/// checkpoint past unit 0 hands its stacked per-leaf R workspace to the
/// driver and pins its leaf partition. problem.a/r must have the
/// checkpoint's dimensions and problem.options.blocksize must match the
/// checkpointed blocksize (unit numbering depends on it; 0 adopts the
/// checkpoint's). Bit-identical to the uninterrupted run in Real mode.
QrStats resume(const QrProblem& problem, const Checkpoint& cp);

} // namespace rocqr::qr
