// The discrete-event core: a time-ordered queue of callbacks.
//
// Events are ordered by an intrinsic key (time, stream, seq): the stream is
// the logical context the event was scheduled FROM (kernel = 0, node n =
// n + 1) and seq is that stream's schedule counter at scheduling time. The
// key is a property of the event itself, not of which queue or thread it
// happens to sit in — this is what lets the sharded simulator (see
// sim/simulator.h) merge cross-shard events at epoch barriers and still
// execute in exactly the order a serial run would.
//
// Storage is a slab: each event's callback lives inline in a recycled
// slot (EventCallback holds its capture in the slot itself, never on the
// heap; slots sit in fixed pages that never move), and a 4-ary min-heap
// orders 24-byte (time, stream|seq, slot, generation) entries.
// EventHandles carry a (slot, generation) pair instead of a heap-allocated
// alive flag; a slot is recycled as soon as its event fires or is
// cancelled, and a handle or heap entry from an earlier generation is
// inert. Once the slot pool and the heap have grown to the run's peak,
// scheduling, cancelling and firing an event allocate nothing.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace agilla::sim {

/// Logical event stream: the ordering (and RNG) context of an event.
/// Stream 0 is the kernel (setup code, the main thread between runs, and
/// global events like the battery settle tick); node n uses stream n + 1.
using StreamId = std::uint32_t;

inline constexpr StreamId kKernelStream = 0;

[[nodiscard]] constexpr StreamId stream_of(NodeId id) {
  return static_cast<StreamId>(id.value) + 1;
}

/// Total order over events. Scheduled-from context and per-stream sequence
/// break timestamp ties, so the order is independent of heap internals,
/// shard count, and thread arrival.
struct EventKey {
  SimTime time = 0;
  StreamId stream = kKernelStream;
  std::uint64_t seq = 0;

  friend constexpr auto operator<=>(const EventKey&,
                                    const EventKey&) = default;
};

/// A move-only `void()` callable stored inline. The capture must fit
/// kCapacity bytes and move without throwing: any other callable does
/// not convert (the constructor is constrained), so it is rejected at
/// compile time instead of spilling to the heap. Moving a callback moves
/// its capture, so it never allocates either.
class EventCallback {
 public:
  /// The largest capture in the program: a radio delivery event (the
  /// network, one flat 64-byte Frame by value, the receiver and its
  /// role). sim/network.cpp asserts that it fills this capacity exactly.
  static constexpr std::size_t kCapacity = 80;
  static constexpr std::size_t kAlign = alignof(std::uint64_t);

  template <typename F>
  static constexpr bool kFits =
      sizeof(F) <= kCapacity && alignof(F) <= kAlign &&
      std::is_nothrow_move_constructible_v<F>;

  EventCallback() = default;

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, EventCallback> &&
             std::is_invocable_r_v<void, D&> && kFits<D>)
  EventCallback(F&& f) {  // implicit: lambdas convert at call sites
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  EventCallback(EventCallback&& other) noexcept { take(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  /// Destroys the held callable (its captures are released now).
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

 private:
  /// A trivially copyable capture (a delivery event's frame, most
  /// timers' `this`) has no relocate or destroy: moving it is a
  /// fixed-size copy of the storage, destroying it is nothing.
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into `to` and destroys the source.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr bool kTrivial = std::is_trivially_copyable_v<D> &&
                                   std::is_trivially_destructible_v<D>;

  template <typename D>
  static constexpr Ops kOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      kTrivial<D> ? nullptr
                  : +[](void* from, void* to) {
                      D* src = static_cast<D*>(from);
                      ::new (to) D(std::move(*src));
                      src->~D();
                    },
      kTrivial<D> ? nullptr
                  : +[](void* p) { static_cast<D*>(p)->~D(); }};

  void take(EventCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate != nullptr) {
        other.ops_->relocate(other.storage_, storage_);
      } else {
        std::memcpy(storage_, other.storage_, kCapacity);
      }
      ops_ = std::exchange(other.ops_, nullptr);
    }
  }

  /// Zeroed so a trivial relocation never copies indeterminate bytes.
  alignas(kAlign) unsigned char storage_[kCapacity] = {};
  const Ops* ops_ = nullptr;
};

class EventQueue;

/// Handle for cancelling a scheduled event. Internally (queue, slot,
/// generation): when the slot is recycled after the event fires or is
/// cancelled, the generation no longer matches and the handle is inert.
/// Handles must not outlive their queue.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Safe to call repeatedly and
  /// after the event fired (even if the slot has been reused since).
  void cancel();

  [[nodiscard]] bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  using Callback = EventCallback;

  /// The heap packs (stream, seq) into one 64-bit word: streams below
  /// 2^24 (16.7M motes) and per-stream sequences below 2^40. schedule()
  /// throws std::overflow_error for a key outside those ranges.
  static constexpr unsigned kSeqBits = 40;
  static constexpr unsigned kStreamBits = 64 - kSeqBits;

  /// Schedule `cb` at absolute time `at` on the kernel stream with a
  /// queue-local sequence (the standalone-queue API used by tests; the
  /// simulator always supplies full keys). Ties at the same timestamp
  /// break by insertion order.
  EventHandle schedule(SimTime at, Callback cb);

  /// Schedule `cb` with an explicit ordering key, to be executed in the
  /// context of `target` (the stream whose state/RNG the callback may
  /// touch). Keys must be unique per queue, and `cb` must hold a callable
  /// (std::invalid_argument otherwise).
  EventHandle schedule(const EventKey& key, StreamId target, Callback&& cb);

  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live (scheduled, not cancelled, not fired) events — exact,
  /// including events cancelled in the middle of the heap.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the next live event. Queue must not be empty.
  [[nodiscard]] SimTime next_time() const;

  /// Key of the next live event, or nullptr when empty. The pointer is
  /// valid until the next schedule/pop/cancel.
  [[nodiscard]] const EventKey* peek_key() const;

  /// Pop and return the next live event. Queue must not be empty.
  struct Fired {
    SimTime time = 0;
    EventKey key;
    StreamId target = kKernelStream;
    Callback callback;
  };
  Fired pop();

 private:
  friend class EventHandle;

  /// A scheduled event's callback and target. Firing or cancelling the
  /// event bumps the generation and frees the slot at once.
  struct Slot {
    Callback callback;
    StreamId target = kKernelStream;
    std::uint32_t generation = 0;
  };
  static_assert(sizeof(Slot) <= 96);
  /// One heap entry: the key with (stream, seq) packed into `order`, and
  /// the slot generation it was scheduled under. A cancelled event's
  /// entry stays in the heap until it surfaces; its stale generation
  /// marks it dead.
  struct Entry {
    SimTime time = 0;
    std::uint64_t order = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };
  static_assert(sizeof(Entry) <= 24);

  /// Strict key order: one 128-bit (time, order) compare, which compiles
  /// to a compare and a subtract-with-borrow, no branch.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    __extension__ using Key = unsigned __int128;
    return ((Key{a.time} << 64) | a.order) < ((Key{b.time} << 64) | b.order);
  }
  [[nodiscard]] static EventKey key_of(const Entry& e) {
    return EventKey{e.time, static_cast<StreamId>(e.order >> kSeqBits),
                    e.order & ((std::uint64_t{1} << kSeqBits) - 1)};
  }

  void cancel_slot(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool slot_pending(std::uint32_t slot,
                                  std::uint32_t generation) const;
  [[nodiscard]] Slot& slot_at(std::uint32_t slot) const {
    return pages_[slot / kPageSlots][slot % kPageSlots];
  }
  [[nodiscard]] bool live(const Entry& e) const {
    return slot_at(e.slot).generation == e.generation;
  }
  /// Drops the heap entries of cancelled events from the top.
  void prune_dead_head() const;
  /// Removes the root entry, refilling the hole from the last entry.
  void pop_root() const;
  /// Ends the slot's event: a new generation, and the slot is free.
  void recycle(std::uint32_t slot);

  mutable std::vector<Entry> heap_;

  /// Slots live in fixed pages that never move: growing the pool adds a
  /// page instead of reallocating and moving every pending callback, and
  /// the last page wastes at most 24 KiB.
  static constexpr std::uint32_t kPageSlots = 256;
  std::vector<std::unique_ptr<Slot[]>> pages_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  /// The unpacked key of the root, for peek_key().
  mutable EventKey head_key_;
  std::size_t live_ = 0;
  std::uint64_t local_seq_ = 0;
};

}  // namespace agilla::sim
