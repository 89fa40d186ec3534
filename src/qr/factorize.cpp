#include "qr/factorize.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "qr/blocking_qr.hpp"
#include "qr/recursive_qr.hpp"
#include "qr/tiled_qr.hpp"
#include "qr/tsqr_ooc.hpp"

namespace rocqr::qr {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::Blocking: return "blocking";
    case Algorithm::LeftLooking: return "left";
    case Algorithm::Recursive: return "recursive";
    case Algorithm::Tsqr: return "tsqr";
    case Algorithm::Tiled: return "tiled";
  }
  return "?";
}

std::optional<Algorithm> parse_algorithm(std::string_view name) {
  if (name == "blocking") return Algorithm::Blocking;
  if (name == "left") return Algorithm::LeftLooking;
  if (name == "recursive") return Algorithm::Recursive;
  if (name == "tsqr") return Algorithm::Tsqr;
  if (name == "tiled") return Algorithm::Tiled;
  return std::nullopt;
}

namespace {

/// `who` ("qr::factorize" or "qr::resume") prefixes the messages.
void validate_devices(const QrProblem& p, const char* who) {
  ROCQR_CHECK(!p.devices.empty(), std::string(who) + ": no devices");
  for (sim::Device* d : p.devices) {
    ROCQR_CHECK(d != nullptr, std::string(who) + ": null device in the fleet");
  }
  if (p.algorithm != Algorithm::Tsqr) {
    ROCQR_CHECK(p.devices.size() == 1,
                std::string(who) + ": algorithm '" + to_string(p.algorithm) +
                    "' runs on exactly one device (got " +
                    std::to_string(p.devices.size()) + ")");
  }
}

void check_host_finite(sim::HostMutRef mat, const char* which) {
  for (index_t j = 0; j < mat.cols; ++j) {
    for (index_t i = 0; i < mat.rows; ++i) {
      const float v = mat.data[i + j * mat.ld];
      if (!std::isfinite(v)) {
        telemetry::MetricsRegistry::global()
            .counter("qr.nonfinite_detected")
            .increment();
        throw NumericalError(
            std::string("qr: non-finite value in ") + which + " at (" +
            std::to_string(i) + ", " + std::to_string(j) +
            ") after factorization (QrOptions::check_finite)");
      }
    }
  }
}

/// QrOptions::check_finite guard: scans the host outputs (R first — it is
/// small and where corruption concentrates — then Q) once the driver is done.
void maybe_check_finite(const QrProblem& problem) {
  if (!problem.options.check_finite) return;
  if (problem.r.data != nullptr) check_host_finite(problem.r, "R");
  if (problem.a.data != nullptr) check_host_finite(problem.a, "Q");
}

/// The one dispatch behind factorize and resume. `cp` is the checkpoint a
/// resume starts from (nullptr on a fresh run). resume has already restored
/// the host data and set options.resume_units, so only TSQR reads the
/// checkpoint: its stacked per-leaf R and the leaf partition it pins.
QrStats run_driver(const QrProblem& problem, const Checkpoint* cp) {
  switch (problem.algorithm) {
    case Algorithm::Blocking:
      return detail::run_blocking(*problem.devices.front(), problem.a,
                                  problem.r, problem.options);
    case Algorithm::LeftLooking:
    case Algorithm::Tiled: {
      // Solo runs of a node program are its one-job batch.
      const detail::BatchJob job{to_string(problem.algorithm), problem.a,
                                 problem.r, problem.options, ""};
      return detail::run_batch(*problem.devices.front(), {job}).front();
    }
    case Algorithm::Recursive:
      return detail::run_recursive(*problem.devices.front(), problem.a,
                                   problem.r, problem.options);
    case Algorithm::Tsqr: {
      const std::vector<float>* r_stack = nullptr;
      index_t leaves = 0;
      if (cp != nullptr) {
        // Past unit 0 the checkpoint's R is the stacked per-leaf workspace
        // of the completed leaves.
        if (problem.a.data != nullptr && cp->units_done > 0) r_stack = &cp->r;
        // Pin the checkpointed leaf partition so a shrunk fleet (migration
        // after device loss) replays the same row blocks. v1 checkpoints
        // carry no leaf count; mid-run ones still imply it through the
        // stacked-R workspace.
        leaves = cp->leaves;
        if (leaves == 0 && cp->units_done > 0 && !cp->r.empty()) {
          const size_t nn =
              static_cast<size_t>(cp->n) * static_cast<size_t>(cp->n);
          leaves = static_cast<index_t>(cp->r.size() / nn);
        }
      }
      return detail::run_tsqr(problem.devices, problem.a, problem.r,
                              problem.options, r_stack, leaves);
    }
  }
  throw InvalidArgument("qr::factorize: unknown algorithm");
}

} // namespace

QrStats factorize(const QrProblem& problem) {
  validate_devices(problem, "qr::factorize");
  const QrStats stats = run_driver(problem, nullptr);
  maybe_check_finite(problem);
  return stats;
}

QrStats resume(const QrProblem& problem, const Checkpoint& cp) {
  const std::optional<Algorithm> algorithm = parse_algorithm(cp.driver);
  ROCQR_CHECK(algorithm.has_value(),
              "qr::resume: unknown driver '" + cp.driver + "'");
  QrProblem p = problem;
  p.algorithm = *algorithm;
  validate_devices(p, "qr::resume");
  ROCQR_CHECK(p.a.rows == cp.m && p.a.cols == cp.n,
              "qr::resume: A shape does not match the checkpoint");
  ROCQR_CHECK(p.r.rows == cp.n && p.r.cols == cp.n,
              "qr::resume: R shape does not match the checkpoint");
  // The unit numbering is a function of the panel partition, so the resumed
  // run must replay the exact schedule the checkpoint was cut from.
  if (p.options.blocksize == 0) p.options.blocksize = cp.blocksize;
  ROCQR_CHECK(p.options.blocksize == cp.blocksize,
              "qr::resume: blocksize differs from the checkpointed run");
  if (p.a.data != nullptr) {
    ROCQR_CHECK(!cp.a.empty(),
                "qr::resume: Real-mode resume needs a checkpoint with host "
                "snapshots (this one is schedule-only)");
    restore_host(p.a, cp.a);
    // Past unit 0 a tsqr checkpoint's R is the stacked per-leaf workspace,
    // which run_driver hands to the driver instead.
    if (p.algorithm != Algorithm::Tsqr || cp.units_done == 0) {
      restore_host(p.r, cp.r);
    }
  }
  p.options.resume_units = cp.units_done;
  const QrStats stats = run_driver(p, &cp);
  maybe_check_finite(p);
  return stats;
}

} // namespace rocqr::qr
