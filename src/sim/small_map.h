// A map for the handful of keys one mote tracks at a time: outstanding
// acked sends, partial incoming agents, sleeping agents and their queued
// reactions, AM handlers. Entries live in one vector searched linearly,
// so it suits only tables that stay a few entries long. Unlike
// std::unordered_map it has no bucket array and no per-entry node, and
// an empty map holds no storage: it allocates on the first insert and
// frees when its last entry goes, so a mote keeps nothing between
// bursts (DESIGN.md "Per-mote footprint").
//
// erase moves the last entry into the hole: iteration order is
// unspecified, and insert and erase invalidate pointers to entries.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

namespace agilla::sim {

template <typename K, typename V>
class SmallMap {
 public:
  using Entry = std::pair<K, V>;

  /// The value under `key`, or nullptr.
  [[nodiscard]] V* find(K key) {
    const auto it = locate(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// The value under `key`, default-constructed first if absent.
  V& operator[](K key) {
    if (V* value = find(key); value != nullptr) {
      return *value;
    }
    return entries_.emplace_back(key, V{}).second;
  }

  /// Removes `key`'s entry, if any.
  void erase(K key) {
    const auto it = locate(key);
    if (it == entries_.end()) {
      return;
    }
    if (it != entries_.end() - 1) {
      *it = std::move(entries_.back());
    }
    entries_.pop_back();
    if (entries_.empty()) {
      clear();
    }
  }

  void clear() { std::vector<Entry>().swap(entries_); }

  [[nodiscard]] auto begin() { return entries_.begin(); }
  [[nodiscard]] auto end() { return entries_.end(); }

 private:
  [[nodiscard]] auto locate(K key) {
    return std::find_if(
        entries_.begin(), entries_.end(),
        [key](const Entry& entry) { return entry.first == key; });
  }

  std::vector<Entry> entries_;
};

}  // namespace agilla::sim
