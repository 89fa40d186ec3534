// Small string/format helpers used by reports, traces and error messages.
#pragma once

#include <string>
#include <string_view>

#include "common/types.hpp"

namespace rocqr {

/// "1.50 GB", "640.0 MB", "12 B" — powers of 1024.
std::string format_bytes(bytes_t bytes);

/// "1408 ms", "12.93 s", "37.9 s" — picks a readable unit.
std::string format_seconds(double seconds);

/// "99.9 TFLOP/s" style rate.
std::string format_flops_rate(double flops_per_second);

/// "65536x131072" shape string.
std::string format_shape(index_t rows, index_t cols);

/// Fixed-point with `digits` decimals, e.g. format_fixed(3.14159, 2) = "3.14".
std::string format_fixed(double value, int digits);

/// Left-pads (or truncates never) a string to at least `width` columns.
std::string pad_left(const std::string& s, int width);

/// Right-pads a string to at least `width` columns.
std::string pad_right(const std::string& s, int width);

/// Appends `v` in decimal (std::to_string's digits) with no temporary.
void append_int(std::string& out, std::int64_t v);

/// The body of a JSON string literal holding `s`: '"' and '\' escaped,
/// newline and tab as \n and \t, every other byte below 0x20 as \u00XX.
/// Shared by the Chrome trace export and the serve fleet report.
std::string escape_json(std::string_view s);

} // namespace rocqr
