#include "common/strings.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace rocqr {

std::string format_bytes(bytes_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (std::fabs(v) >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  if (u == 0) {
    std::snprintf(buf, sizeof buf, "%lld B", static_cast<long long>(bytes));
  } else {
    std::snprintf(buf, sizeof buf, "%.2f %s", v, units[u]);
  }
  return buf;
}

std::string format_seconds(double seconds) {
  char buf[64];
  const double abs = std::fabs(seconds);
  if (abs < 1e-6) {
    std::snprintf(buf, sizeof buf, "%.1f ns", seconds * 1e9);
  } else if (abs < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1f us", seconds * 1e6);
  } else if (abs < 1.0) {
    std::snprintf(buf, sizeof buf, "%.1f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f s", seconds);
  }
  return buf;
}

std::string format_flops_rate(double flops_per_second) {
  char buf[64];
  const double tf = flops_per_second / 1e12;
  if (tf >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.1f TFLOP/s", tf);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f GFLOP/s", flops_per_second / 1e9);
  }
  return buf;
}

std::string format_shape(index_t rows, index_t cols) {
  std::ostringstream os;
  os << rows << "x" << cols;
  return os.str();
}

std::string format_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::string pad_left(const std::string& s, int width) {
  const int pad = width - static_cast<int>(s.size());
  if (pad <= 0) return s;
  return std::string(static_cast<size_t>(pad), ' ') + s;
}

std::string pad_right(const std::string& s, int width) {
  const int pad = width - static_cast<int>(s.size());
  if (pad <= 0) return s;
  return s + std::string(static_cast<size_t>(pad), ' ');
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

} // namespace rocqr
