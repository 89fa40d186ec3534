#include "qr/checkpoint.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <ostream>

#include <cstdint>
#include <cstdio>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "qr/factorize.hpp"

namespace rocqr::qr {

namespace {

constexpr const char* kMagic = "rocqr-checkpoint v2";
constexpr const char* kMagicV1 = "rocqr-checkpoint v1";

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over raw bytes. Table built
/// once; this is the integrity check on the checkpoint float payload.
std::uint32_t crc32_update(std::uint32_t crc, const void* data, size_t len) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t payload_crc(const Checkpoint& cp) {
  std::uint32_t crc = 0;
  crc = crc32_update(crc, cp.a.data(), cp.a.size() * sizeof(float));
  crc = crc32_update(crc, cp.r.data(), cp.r.size() * sizeof(float));
  return crc;
}

void write_floats(std::ostream& os, const std::vector<float>& v) {
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(float)));
  }
}

std::vector<float> read_floats(std::istream& is, size_t count) {
  std::vector<float> v(count);
  if (count > 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
    ROCQR_CHECK(is.good(), "checkpoint: truncated float payload");
  }
  return v;
}

} // namespace

void write_checkpoint(std::ostream& os, const Checkpoint& cp) {
  os << kMagic << "\n"
     << cp.driver << "\n"
     << cp.m << " " << cp.n << " " << cp.blocksize << " " << cp.columns_done
     << " " << cp.units_done << " " << cp.leaves << " " << cp.a.size() << " "
     << cp.r.size() << " " << payload_crc(cp) << "\n";
  write_floats(os, cp.a);
  write_floats(os, cp.r);
  ROCQR_CHECK(os.good(), "checkpoint: write failed");
}

Checkpoint read_checkpoint(std::istream& is) {
  std::string magic;
  std::getline(is, magic);
  const bool v1 = magic == kMagicV1;
  ROCQR_CHECK(magic == kMagic || v1,
              "checkpoint: bad magic '" + magic + "' (expected '" +
                  std::string(kMagic) + "')");
  Checkpoint cp;
  std::getline(is, cp.driver);
  const std::optional<Algorithm> algorithm = parse_algorithm(cp.driver);
  ROCQR_CHECK(algorithm.has_value(),
              "checkpoint: unknown driver '" + cp.driver + "'");
  size_t a_count = 0;
  size_t r_count = 0;
  std::uint32_t stored_crc = 0;
  is >> cp.m >> cp.n >> cp.blocksize >> cp.columns_done >> cp.units_done;
  if (!v1) is >> cp.leaves;
  is >> a_count >> r_count;
  if (!v1) is >> stored_crc;
  ROCQR_CHECK(is.good(), "checkpoint: malformed header");
  ROCQR_CHECK(cp.m >= cp.n && cp.n >= 1 && cp.blocksize >= 1 &&
                  cp.columns_done >= 0 && cp.columns_done <= cp.n &&
                  cp.units_done >= 0 && cp.leaves >= 0,
              "checkpoint: header values out of range");
  const size_t mn = static_cast<size_t>(cp.m) * static_cast<size_t>(cp.n);
  const size_t nn = static_cast<size_t>(cp.n) * static_cast<size_t>(cp.n);
  if (*algorithm == Algorithm::Tsqr) {
    // The tsqr R payload is the stacked per-leaf workspace: k * n x n for
    // some leaf count k bounded by m / n (or the caller's single n x n R in
    // a unit-0 snapshot, which is the k == 1 case of the same rule).
    const size_t max_leaves =
        static_cast<size_t>(cp.m) / static_cast<size_t>(cp.n);
    ROCQR_CHECK((a_count == 0 && r_count == 0) ||
                    (a_count == mn && nn > 0 && r_count % nn == 0 &&
                     r_count / nn >= 1 && r_count / nn <= max_leaves),
                "checkpoint: tsqr payload sizes do not match the dimensions");
  } else {
    ROCQR_CHECK((a_count == 0 && r_count == 0) ||
                    (a_count == mn && r_count == nn),
                "checkpoint: payload sizes do not match the dimensions");
  }
  is.get(); // the newline terminating the header
  cp.a = read_floats(is, a_count);
  cp.r = read_floats(is, r_count);
  if (!v1) {
    const std::uint32_t actual = payload_crc(cp);
    if (actual != stored_crc) {
      throw InvalidArgument(
          "checkpoint: payload CRC mismatch (stored " +
          std::to_string(stored_crc) + ", computed " + std::to_string(actual) +
          ") — the checkpoint is corrupt or truncated; refusing to resume");
    }
  }
  return cp;
}

void FileCheckpointSink::write(const Checkpoint& cp) {
  // Serialize to a sidecar and rename into place: a crash or injected
  // fault mid-write must not destroy the previous good checkpoint (the
  // whole point of having one).
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    ROCQR_CHECK(os.is_open(),
                "checkpoint: cannot open '" + tmp + "' for writing");
    write_checkpoint(os, cp);
    os.flush();
    ROCQR_CHECK(os.good(), "checkpoint: write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: cannot rename '" + tmp + "' to '" +
                          path_ + "'");
  }
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ROCQR_CHECK(is.is_open(), "checkpoint: cannot open '" + path + "'");
  return read_checkpoint(is);
}

std::vector<float> snapshot_host(sim::HostMutRef src) {
  std::vector<float> out;
  if (src.data == nullptr) return out;
  out.resize(static_cast<size_t>(src.rows) * static_cast<size_t>(src.cols));
  for (index_t j = 0; j < src.cols; ++j) {
    for (index_t i = 0; i < src.rows; ++i) {
      out[static_cast<size_t>(i) + static_cast<size_t>(j) * src.rows] =
          src.data[i + j * src.ld];
    }
  }
  return out;
}

void restore_host(sim::HostMutRef dst, const std::vector<float>& src) {
  if (dst.data == nullptr) return;
  const size_t count =
      static_cast<size_t>(dst.rows) * static_cast<size_t>(dst.cols);
  ROCQR_CHECK(src.size() == count,
              "qr::restore_host: payload holds " + std::to_string(src.size()) +
                  " floats, expected " + format_shape(dst.rows, dst.cols) +
                  " = " + std::to_string(count));
  for (index_t j = 0; j < dst.cols; ++j) {
    for (index_t i = 0; i < dst.rows; ++i) {
      dst.data[i + j * dst.ld] =
          src[static_cast<size_t>(i) + static_cast<size_t>(j) * dst.rows];
    }
  }
}

} // namespace rocqr::qr
