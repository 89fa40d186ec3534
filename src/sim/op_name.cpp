#include "sim/op_name.hpp"

#include <functional>
#include <mutex>
#include <ostream>
#include <unordered_set>

namespace rocqr::sim {

namespace {

struct TextHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Every name longer than OpName::kInlineCapacity seen by the process, one
/// copy each. Set nodes never move, so a view of an entry stays valid.
struct InternTable {
  std::mutex mutex;
  std::unordered_set<std::string, TextHash, std::equal_to<>> names;

  /// Never destroyed: a name may be read by a static object's destructor.
  static InternTable& get() {
    static InternTable* table = new InternTable;
    return *table;
  }
};

} // namespace

void OpName::intern(std::string_view text) {
  InternTable& table = InternTable::get();
  const std::string* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(table.mutex);
    auto it = table.names.find(text);
    if (it == table.names.end()) it = table.names.emplace(text).first;
    entry = &*it;
  }
  const char* data = entry->data();
  const std::size_t size = entry->size();
  std::memcpy(text_, &data, sizeof(data));
  std::memcpy(text_ + sizeof(data), &size, sizeof(size));
  size_ = kInterned;
}

std::ostream& operator<<(std::ostream& os, const OpName& name) {
  return os << name.view();
}

void OpNameFormatter::spill(std::string_view text) {
  if (spill_.empty()) spill_.assign(name_.view());
  spill_ += text;
}

} // namespace rocqr::sim
