// RAII ownership for device matrices: frees on scope exit, so drivers and
// engines cannot leak device memory when an allocation mid-sequence throws
// DeviceOutOfMemory. Move-only; release() hands the raw handle onward (the
// keep_c pattern).
#pragma once

#include <utility>

#include "common/telemetry.hpp"
#include "sim/device.hpp"

namespace rocqr::sim {

class ScopedMatrix {
 public:
  ScopedMatrix() = default;
  ScopedMatrix(Device& dev, index_t rows, index_t cols,
               StoragePrecision precision = StoragePrecision::FP32,
               OpName label = {})
      : dev_(&dev), matrix_(dev.allocate(rows, cols, precision, label)) {}

  /// Adopts an already-allocated matrix.
  ScopedMatrix(Device& dev, DeviceMatrix matrix)
      : dev_(&dev), matrix_(matrix) {}

  ScopedMatrix(const ScopedMatrix&) = delete;
  ScopedMatrix& operator=(const ScopedMatrix&) = delete;

  ScopedMatrix(ScopedMatrix&& other) noexcept
      : dev_(other.dev_), matrix_(other.matrix_) {
    other.dev_ = nullptr;
    other.matrix_ = DeviceMatrix();
  }
  ScopedMatrix& operator=(ScopedMatrix&& other) noexcept {
    if (this != &other) {
      reset();
      dev_ = other.dev_;
      matrix_ = other.matrix_;
      other.dev_ = nullptr;
      other.matrix_ = DeviceMatrix();
    }
    return *this;
  }

  ~ScopedMatrix() { reset(); }

  /// Frees the matrix now (no-op if empty or released).
  void reset() noexcept {
    if (dev_ != nullptr && matrix_.valid()) {
      try {
        dev_->free(matrix_);
      } catch (...) {
        // Destruction must not throw; a failed free here means the handle
        // was already invalidated elsewhere. Count it instead of swallowing
        // silently — engine tests assert `device_leaked_frees` stays zero
        // (tests/leak_check.hpp).
        telemetry::MetricsRegistry::global()
            .counter("device_leaked_frees")
            .increment();
      }
    }
    dev_ = nullptr;
    matrix_ = DeviceMatrix();
  }

  /// Gives up ownership and returns the raw handle (the keep_c pattern).
  DeviceMatrix release() {
    DeviceMatrix m = matrix_;
    dev_ = nullptr;
    matrix_ = DeviceMatrix();
    return m;
  }

  bool valid() const { return matrix_.valid(); }
  const DeviceMatrix& get() const { return matrix_; }
  DeviceMatrix& get() { return matrix_; }
  operator DeviceMatrixRef() const { return DeviceMatrixRef(matrix_); }

 private:
  Device* dev_ = nullptr;
  DeviceMatrix matrix_{};
};

} // namespace rocqr::sim
