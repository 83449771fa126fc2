// A vector-backed FIFO for the short per-mote queues (engine ready and
// pending-reaction queues, replay and flood caches).
// Unlike std::deque, which allocates a 512-byte node plus its map even
// while empty, it allocates nothing until the first push: most of these
// queues sit empty on most motes (DESIGN.md "Per-mote footprint").
//
// Elements live in one vector behind a head index. pop_front advances the
// head; the consumed prefix is dropped once it is at least half of the
// vector (compaction moves no more elements than were popped since the
// last one), and an emptied queue clears outright. push_back and pop_front
// are therefore amortized O(1), and a drained queue keeps its capacity for
// the next burst.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace agilla::sim {

template <typename T>
class Fifo {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;

  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }

  [[nodiscard]] T& front() { return items_[head_]; }
  [[nodiscard]] const T& front() const { return items_[head_]; }

  void push_back(T value) { items_.push_back(std::move(value)); }

  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      clear();
    } else if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

  /// Removes every element equal to `value`, keeping the others' order.
  void erase(const T& value) {
    const auto first =
        items_.begin() + static_cast<std::ptrdiff_t>(head_);
    items_.erase(std::remove(first, items_.end(), value), items_.end());
    if (empty()) {
      clear();
    }
  }

  /// Front-to-back iteration over the queued elements.
  [[nodiscard]] const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  ///< index of the front element
};

}  // namespace agilla::sim
