#include "sim/event_queue.h"

#include <cassert>
#include <stdexcept>

namespace agilla::sim {

namespace {
/// A 4-ary heap: children of i are 4i+1 .. 4i+4. Half the depth of a
/// binary heap, and a node's children share one or two cache lines.
constexpr std::size_t kArity = 4;
}  // namespace

void EventHandle::cancel() {
  if (queue_ != nullptr) {
    queue_->cancel_slot(slot_, generation_);
  }
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->slot_pending(slot_, generation_);
}

EventHandle EventQueue::schedule(SimTime at, Callback cb) {
  return schedule(EventKey{at, kKernelStream, local_seq_++}, kKernelStream,
                  std::move(cb));
}

EventHandle EventQueue::schedule(const EventKey& key, StreamId target,
                                 Callback&& cb) {
  if ((key.stream >> kStreamBits) != 0 || (key.seq >> kSeqBits) != 0) {
    throw std::overflow_error(
        "EventQueue: stream or sequence past the packed key's range");
  }
  if (!cb) {
    throw std::invalid_argument("EventQueue: empty callback");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot_count_ % kPageSlots == 0) {
      pages_.push_back(std::make_unique<Slot[]>(kPageSlots));
    }
    slot = slot_count_++;
  }
  Slot& s = slot_at(slot);
  s.callback = std::move(cb);
  s.target = target;
  // Sift up from the new leaf.
  const Entry entry{key.time,
                    (std::uint64_t{key.stream} << kSeqBits) | key.seq, slot,
                    s.generation};
  std::size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
  ++live_;
  return EventHandle(this, slot, s.generation);
}

void EventQueue::pop_root() const {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  // Sift the former last entry down from the root. A full group of four
  // children is reduced as a tournament (two independent compares, then
  // one), which keeps the compares off each other's critical path.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) {
      break;
    }
    std::size_t best;
    if (first + kArity <= n) {
      const std::size_t left = before(heap_[first + 1], heap_[first])
                                   ? first + 1
                                   : first;
      const std::size_t right = before(heap_[first + 3], heap_[first + 2])
                                    ? first + 3
                                    : first + 2;
      best = before(heap_[right], heap_[left]) ? right : left;
    } else {
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        best = before(heap_[c], heap_[best]) ? c : best;
      }
    }
    if (!before(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::recycle(std::uint32_t slot) {
  slot_at(slot).generation++;
  free_slots_.push_back(slot);
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= slot_count_) {
    return;
  }
  Slot& s = slot_at(slot);
  if (s.generation != generation) {
    return;
  }
  // Release the closure and the slot now; the heap entry stays until it
  // surfaces, dead by its stale generation.
  s.callback.reset();
  recycle(slot);
  assert(live_ > 0);
  --live_;
}

bool EventQueue::slot_pending(std::uint32_t slot,
                              std::uint32_t generation) const {
  return slot < slot_count_ && slot_at(slot).generation == generation;
}

void EventQueue::prune_dead_head() const {
  while (!heap_.empty() && !live(heap_.front())) {
    pop_root();
  }
}

SimTime EventQueue::next_time() const {
  prune_dead_head();
  assert(!heap_.empty());
  return heap_.front().time;
}

const EventKey* EventQueue::peek_key() const {
  prune_dead_head();
  if (heap_.empty()) {
    return nullptr;
  }
  head_key_ = key_of(heap_.front());
  return &head_key_;
}

EventQueue::Fired EventQueue::pop() {
  prune_dead_head();
  assert(!heap_.empty());
  const Entry head = heap_.front();
  pop_root();
  Slot& s = slot_at(head.slot);
  assert(s.callback);
  const EventKey key = key_of(head);
  Fired fired{key.time, key, s.target, std::move(s.callback)};
  recycle(head.slot);
  assert(live_ > 0);
  --live_;
  return fired;
}

}  // namespace agilla::sim
