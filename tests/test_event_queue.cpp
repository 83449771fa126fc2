#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/rng.h"

namespace agilla::sim {
namespace {

// ------------------------------------------------- the inline callback

/// One byte more than a callback holds inline.
struct Oversized {
  std::array<unsigned char, EventCallback::kCapacity + 1> bytes{};
  void operator()() const {}
};
struct ExactlyFull {
  std::array<unsigned char, EventCallback::kCapacity> bytes{};
  void operator()() const {}
};
/// Moving it could throw, so relocating a slot could not be noexcept.
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(const ThrowingMove&) = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() const {}
};

static_assert(!std::is_constructible_v<EventQueue::Callback, Oversized>,
              "an oversized capture must be rejected at compile time");
static_assert(std::is_constructible_v<EventQueue::Callback, ExactlyFull>);
static_assert(!std::is_constructible_v<EventQueue::Callback, ThrowingMove>);
static_assert(!std::is_copy_constructible_v<EventQueue::Callback>);
static_assert(std::is_nothrow_move_constructible_v<EventQueue::Callback>);

TEST(EventCallback, MovesAndReleasesItsCapture) {
  auto token = std::make_shared<int>(7);
  int seen = 0;
  EventQueue::Callback a = [token, &seen] { seen = *token; };
  EXPECT_EQ(token.use_count(), 2);
  EventQueue::Callback b = std::move(a);
  EXPECT_FALSE(a);
  EXPECT_EQ(token.use_count(), 2) << "a move relocates, it never copies";
  b();
  EXPECT_EQ(seen, 7);
  b.reset();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, CancelReleasesTheCaptureAtOnce) {
  EventQueue q;
  auto token = std::make_shared<int>(1);
  EventHandle h = q.schedule(5, [token] {});
  q.schedule(9, [] {});
  EXPECT_EQ(token.use_count(), 2);
  h.cancel();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(q.pop().time, 9u);
}

TEST(EventQueue, RejectsKeysPastThePackedRange) {
  EventQueue q;
  const StreamId too_many_streams = StreamId{1} << EventQueue::kStreamBits;
  const std::uint64_t too_long_seq = std::uint64_t{1}
                                     << EventQueue::kSeqBits;
  EXPECT_THROW(q.schedule(EventKey{1, too_many_streams, 0}, 0, [] {}),
               std::overflow_error);
  EXPECT_THROW(q.schedule(EventKey{1, 0, too_long_seq}, 0, [] {}),
               std::overflow_error);
  EXPECT_TRUE(q.empty());
  // The largest representable key still orders correctly.
  q.schedule(EventKey{1, too_many_streams - 1, too_long_seq - 1}, 0, [] {});
  q.schedule(EventKey{1, too_many_streams - 1, too_long_seq - 2}, 0, [] {});
  EXPECT_EQ(q.pop().key.seq, too_long_seq - 2);
  const EventQueue::Fired last = q.pop();
  EXPECT_EQ(last.key.stream, too_many_streams - 1);
  EXPECT_EQ(last.key.seq, too_long_seq - 1);
}

TEST(EventQueue, RejectsAnEmptyCallback) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1, EventQueue::Callback{}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.pop().callback();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop().callback();
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, NextTimeReportsHead) {
  EventQueue q;
  q.schedule(42, [] {});
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 7u);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  bool fired = false;
  EventHandle handle = q.schedule(10, [&] { fired = true; });
  q.schedule(20, [] {});
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  int popped = 0;
  while (!q.empty()) {
    q.pop().callback();
    ++popped;
  }
  EXPECT_FALSE(fired);
  EXPECT_EQ(popped, 1);
}

TEST(EventQueue, CancelHeadUpdatesEmptyAndNextTime) {
  EventQueue q;
  EventHandle head = q.schedule(5, [] {});
  q.schedule(50, [] {});
  head.cancel();
  EXPECT_EQ(q.next_time(), 50u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelAllLeavesQueueEmpty) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 5; ++i) {
    handles.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
  }
  for (auto& h : handles) {
    h.cancel();
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  EventHandle h = q.schedule(1, [] {});
  q.pop().callback();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
  h.cancel();
}

TEST(EventQueue, PendingReflectsState) {
  EventQueue q;
  EventHandle h = q.schedule(1, [] {});
  EXPECT_TRUE(h.pending());
  q.pop();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

// ------------------------------------------ differential against a set

/// 100k seeded operations against a std::set<EventKey> reference: many
/// same-time ties across a few streams, pops, cancels of the head, of
/// random live events and of handles whose slot was recycled since. The
/// queue must pop exactly the reference's minimum every time, with the
/// callback scheduled under that key, and agree on size and head.
TEST(EventQueue, MatchesAnOrderedSetReferenceOver100kOperations) {
  constexpr int kOperations = 100'000;
  constexpr StreamId kStreams = 6;
  Rng rng(20251019);
  EventQueue q;
  std::set<EventKey> reference;
  std::map<EventKey, EventHandle> live;
  std::vector<EventHandle> retired;  // fired or cancelled
  std::array<std::uint64_t, kStreams> next_seq{};
  SimTime now = 0;
  EventKey fired_key;
  std::size_t pops = 0;
  std::size_t stale_cancels = 0;

  const auto retire = [&](const EventKey& key) {
    retired.push_back(live.at(key));
    live.erase(key);
    reference.erase(key);
  };
  for (int op = 0; op < kOperations; ++op) {
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 45 || reference.empty()) {
      // A narrow time window makes same-time ties across streams common.
      const auto stream = static_cast<StreamId>(rng.uniform(kStreams));
      const EventKey key{now + rng.uniform(4), stream, next_seq[stream]++};
      live[key] = q.schedule(key, stream,
                             [&fired_key, key] { fired_key = key; });
      reference.insert(key);
    } else if (roll < 75) {
      const EventKey expected = *reference.begin();
      EventQueue::Fired fired = q.pop();
      ASSERT_EQ(fired.key, expected) << "operation " << op;
      EXPECT_EQ(fired.time, expected.time);
      EXPECT_EQ(fired.target, expected.stream);
      fired.callback();
      ASSERT_EQ(fired_key, expected) << "the callback travels with its key";
      now = expected.time;
      retire(expected);
      ++pops;
    } else if (roll < 83) {
      const EventKey head = *reference.begin();
      live.at(head).cancel();
      retire(head);
    } else if (roll < 91) {
      auto it = reference.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.uniform(reference.size())));
      const EventKey key = *it;
      EventHandle handle = live.at(key);
      ASSERT_TRUE(handle.pending());
      handle.cancel();
      EXPECT_FALSE(handle.pending());
      retire(key);
    } else if (!retired.empty()) {
      // A stale handle: its slot has most likely been recycled by a live
      // event, which the cancel must leave alone.
      EventHandle stale = retired[rng.uniform(retired.size())];
      EXPECT_FALSE(stale.pending());
      stale.cancel();
      ++stale_cancels;
    }
    ASSERT_EQ(q.size(), reference.size()) << "operation " << op;
    const EventKey* head = q.peek_key();
    if (reference.empty()) {
      ASSERT_EQ(head, nullptr);
    } else {
      ASSERT_NE(head, nullptr);
      ASSERT_EQ(*head, *reference.begin()) << "operation " << op;
    }
  }
  while (!reference.empty()) {
    ASSERT_EQ(q.pop().key, *reference.begin());
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 20'000u);
  EXPECT_GT(stale_cancels, 5'000u);
}

}  // namespace
}  // namespace agilla::sim
