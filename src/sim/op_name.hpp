// The name of a device operation or the label of a device buffer: one
// trivially copyable value, so a name travels from the code that formats it
// to its trace event with no heap allocation.
//
// Up to 31 characters live inline in the 32-byte value (every name the
// drivers and engines produce fits; the longest in the schedule goldens is
// 25). A longer name is interned once in a process-lifetime table and the
// value holds a view of the table's copy, which is never freed.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

namespace rocqr::sim {

class OpName {
 public:
  /// Characters stored inline; a longer name is interned.
  static constexpr std::size_t kInlineCapacity = 31;

  OpName() = default;
  OpName(std::string_view text) { assign(text); }
  OpName(const char* text) : OpName(std::string_view(text)) {}
  OpName(const std::string& text) : OpName(std::string_view(text)) {}

  std::string_view view() const {
    if (size_ != kInterned) return {text_, size_};
    const char* data = nullptr;
    std::size_t size = 0;
    std::memcpy(&data, text_, sizeof(data));
    std::memcpy(&size, text_ + sizeof(data), sizeof(size));
    return {data, size};
  }
  std::string str() const { return std::string(view()); }
  operator std::string_view() const { return view(); }
  bool empty() const { return size_ == 0; }

  friend bool operator==(const OpName& a, std::string_view b) {
    return a.view() == b;
  }

 private:
  friend class OpNameFormatter;
  static constexpr unsigned char kInterned = 0xff;

  void assign(std::string_view text) {
    if (text.size() > kInlineCapacity) {
      intern(text);
      return;
    }
    if (!text.empty()) std::memcpy(text_, text.data(), text.size());
    size_ = static_cast<unsigned char>(text.size());
  }
  /// Points this name at the table's copy of `text`, adding it once.
  void intern(std::string_view text);

  char text_[kInlineCapacity] = {};
  unsigned char size_ = 0; ///< inline length, or kInterned
};

static_assert(std::is_trivially_copyable_v<OpName>);
static_assert(sizeof(OpName) == 32);

/// Writes the name's text, as `os << std::string` does.
std::ostream& operator<<(std::ostream& os, const OpName& name);

/// Formats text and integers back to back into an OpName: straight into its
/// inline storage while they fit, past 31 characters into a spill string
/// that finish() interns. Used through op_name().
class OpNameFormatter {
 public:
  void append(std::string_view text) {
    const std::size_t n = name_.size_;
    if (spill_.empty() && n + text.size() <= OpName::kInlineCapacity) {
      if (!text.empty()) std::memcpy(name_.text_ + n, text.data(), text.size());
      name_.size_ = static_cast<unsigned char>(n + text.size());
      return;
    }
    spill(text);
  }
  void append(std::int64_t v) {
    if (spill_.empty()) {
      char* const at = name_.text_ + name_.size_;
      const auto r =
          std::to_chars(at, name_.text_ + OpName::kInlineCapacity, v);
      if (r.ec == std::errc()) {
        name_.size_ = static_cast<unsigned char>(r.ptr - name_.text_);
        return;
      }
    }
    char buf[24];
    spill({buf, static_cast<std::size_t>(
                    std::to_chars(buf, buf + sizeof(buf), v).ptr - buf)});
  }
  OpName finish() const {
    return spill_.empty() ? name_ : OpName(std::string_view(spill_));
  }

 private:
  void spill(std::string_view text);

  OpName name_;
  std::string spill_; ///< the whole name once it outgrew name_
};

/// The name `parts` spell back to back: text (anything convertible to
/// std::string_view) or integers in decimal, so
/// op_name("h2d A[", 3, "]") is "h2d A[3]". Allocates nothing for a name of
/// up to 31 characters.
template <typename... Parts>
OpName op_name(const Parts&... parts) {
  OpNameFormatter f;
  const auto add = [&f](const auto& part) {
    using T = std::decay_t<decltype(part)>;
    if constexpr (std::is_integral_v<T>) {
      static_assert(!std::is_same_v<T, char> && !std::is_same_v<T, bool>,
                    "pass characters as text");
      f.append(static_cast<std::int64_t>(part));
    } else {
      f.append(std::string_view(part));
    }
  };
  (add(parts), ...);
  return f.finish();
}

} // namespace rocqr::sim
