// Panel-level checkpoint/restart for the OOC QR drivers (docs/FAULTS.md).
//
// A checkpoint captures the factorization state after a completed "unit" of
// work — a panel iteration in the blocking, left-looking and tiled drivers,
// a recursion leaf (panel or resident subtree) in the recursive driver, a
// leaf factorization in TSQR — plus a full snapshot of the host A
// (partially factored, Q columns in place) and R matrices in Real mode.
// Because Real-mode numerics execute eagerly and deterministically at
// enqueue (independent of the modeled clocks), a factorization resumed from
// a checkpoint reproduces the uninterrupted result bit for bit: the driver
// replays its schedule, skipping the units the checkpoint already covers,
// and continues on the restored host data.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::qr {

struct Checkpoint {
  /// The qr::to_string tag of the algorithm that wrote the checkpoint. A
  /// "tsqr" checkpoint's units are completed leaf factorizations, and past
  /// unit 0 its R payload is the stacked per-leaf R workspace.
  std::string driver;
  index_t m = 0;
  index_t n = 0;
  index_t blocksize = 0;
  /// Columns fully factored (Q on the host, R rows written).
  index_t columns_done = 0;
  /// Completed schedule units; resume skips exactly this many.
  index_t units_done = 0;
  /// "tsqr" only: leaf count of the run that wrote the checkpoint. Resume
  /// pins the leaf partition to this value even when the fleet has shrunk
  /// (dead device), so completed leaves keep their row blocks and the
  /// result stays bit-identical to an uninterrupted run at this layout.
  /// 0 = unpinned (pre-v2 checkpoints and non-tsqr drivers).
  index_t leaves = 0;
  /// Host snapshots, column-major ld == rows. Empty in Phantom mode (the
  /// schedule replay alone reproduces a phantom run).
  std::vector<float> a;
  std::vector<float> r;
};

/// Serializes `cp` as a text header ("rocqr-checkpoint v2", driver, dims,
/// leaf count, payload CRC32) followed by the raw float payload of A then R.
/// The CRC covers the payload bytes, so bit rot and truncation are detected
/// at read time (tmp-and-rename only protects against crash-mid-write).
void write_checkpoint(std::ostream& os, const Checkpoint& cp);

/// Inverse of write_checkpoint; throws rocqr::InvalidArgument on a malformed
/// stream, a driver tag qr::parse_algorithm does not know, or a payload CRC
/// mismatch. v1 checkpoints (no leaf count, no CRC) are still accepted with
/// leaves = 0 and no integrity check.
Checkpoint read_checkpoint(std::istream& is);

/// Destination for driver checkpoints. Implementations must copy what they
/// need: the driver reuses its snapshot buffers between writes.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual void write(const Checkpoint& cp) = 0;
};

/// Keeps the most recent checkpoint in memory (plus a write count) — the
/// kill-and-resume tests' sink.
class MemoryCheckpointSink : public CheckpointSink {
 public:
  void write(const Checkpoint& cp) override {
    last_ = cp;
    ++count_;
  }
  const Checkpoint& last() const { return last_; }
  bool has_checkpoint() const { return count_ > 0; }
  int count() const { return count_; }

 private:
  Checkpoint last_;
  int count_ = 0;
};

/// Serializes every checkpoint to `path`. Writes are atomic with respect to
/// crashes: the new checkpoint is serialized to `path + ".tmp"` and renamed
/// into place only once complete, so a failure mid-write (crash, injected
/// fault, full disk) leaves the previous good checkpoint untouched.
class FileCheckpointSink : public CheckpointSink {
 public:
  explicit FileCheckpointSink(std::string path) : path_(std::move(path)) {}
  void write(const Checkpoint& cp) override;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Reads the checkpoint stored at `path`.
Checkpoint load_checkpoint_file(const std::string& path);

/// Contiguous column-major copy of a host ref (ld == rows, the checkpoint
/// payload layout); empty for a phantom ref.
std::vector<float> snapshot_host(sim::HostMutRef src);

/// Inverse of snapshot_host: writes a payload back into `dst` (no-op for a
/// phantom ref). Throws rocqr::InvalidArgument when the payload does not
/// hold exactly dst.rows x dst.cols floats.
void restore_host(sim::HostMutRef dst, const std::vector<float>& src);

} // namespace rocqr::qr
