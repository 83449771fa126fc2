// sim::Fifo, the per-mote queue behind the radio TX queue, the engine's
// ready queue and the replay/flood caches: FIFO order survives the
// head-index compaction, and move-only payloads survive it intact. (That
// an empty Fifo allocates nothing is checked in test_footprint, which
// counts allocations.)
#include "sim/fifo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/network.h"
#include "sim/rng.h"

namespace agilla::sim {
namespace {

std::vector<int> contents(const Fifo<int>& fifo) {
  return {fifo.begin(), fifo.end()};
}

TEST(Fifo, KeepsOrderAcrossCompaction) {
  Fifo<int> fifo;
  for (int i = 0; i < 10; ++i) {
    fifo.push_back(i);
  }
  // Popping past half the vector compacts it; order must not change.
  for (int expected = 0; expected < 6; ++expected) {
    ASSERT_EQ(fifo.front(), expected);
    fifo.pop_front();
  }
  for (int i = 10; i < 14; ++i) {
    fifo.push_back(i);
  }
  EXPECT_EQ(contents(fifo), (std::vector<int>{6, 7, 8, 9, 10, 11, 12, 13}));
  EXPECT_EQ(fifo.size(), 8u);
}

TEST(Fifo, InterleavedPushPopMatchesDeque) {
  Fifo<int> fifo;
  std::deque<int> reference;
  Rng rng(7);
  int next = 0;
  for (int step = 0; step < 5000; ++step) {
    // Biased toward pushes for the first half, pops for the second, so
    // the queue both grows long and drains.
    const bool push = rng.uniform(100) < (step < 2500 ? 60u : 40u);
    if (push || reference.empty()) {
      fifo.push_back(next);
      reference.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(fifo.front(), reference.front());
      fifo.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(fifo.size(), reference.size());
    ASSERT_EQ(fifo.empty(), reference.empty());
  }
  EXPECT_EQ(contents(fifo),
            std::vector<int>(reference.begin(), reference.end()));
}

TEST(Fifo, ClearEmptiesAndStaysUsable) {
  Fifo<int> fifo;
  fifo.push_back(1);
  fifo.push_back(2);
  fifo.pop_front();
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.size(), 0u);
  EXPECT_EQ(fifo.begin(), fifo.end());
  fifo.push_back(3);
  EXPECT_EQ(contents(fifo), std::vector<int>{3});
}

TEST(Fifo, IteratesFrontToBack) {
  Fifo<int> fifo;
  for (int i = 0; i < 5; ++i) {
    fifo.push_back(i);
  }
  fifo.pop_front();
  EXPECT_EQ(contents(fifo), (std::vector<int>{1, 2, 3, 4}));
}

TEST(Fifo, EraseByValueKeepsTheRestInOrder) {
  Fifo<int> fifo;
  for (const int v : {1, 2, 3, 2, 4}) {
    fifo.push_back(v);
  }
  fifo.pop_front();  // the erase must not resurrect a popped element
  fifo.erase(2);
  EXPECT_EQ(contents(fifo), (std::vector<int>{3, 4}));
  fifo.erase(1);  // already popped: nothing to remove
  EXPECT_EQ(contents(fifo), (std::vector<int>{3, 4}));
  fifo.erase(3);
  fifo.erase(4);
  EXPECT_TRUE(fifo.empty());
  fifo.push_back(5);
  EXPECT_EQ(fifo.front(), 5);
}

TEST(Fifo, KeepsFlatFramesInOrder) {
  Fifo<Frame> fifo;
  for (std::uint8_t i = 0; i < 6; ++i) {
    Frame frame;
    frame.src = NodeId{i};
    frame.payload = std::vector<std::uint8_t>(40, i);
    fifo.push_back(std::move(frame));
  }
  for (std::uint8_t i = 0; i < 6; ++i) {
    const Frame frame = std::move(fifo.front());
    fifo.pop_front();
    EXPECT_EQ(frame.src, NodeId{i});
    EXPECT_EQ(frame.payload,
              FramePayload(std::vector<std::uint8_t>(40, i)));
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(Fifo, HoldsMoveOnlyElements) {
  Fifo<std::unique_ptr<int>> fifo;
  for (int i = 0; i < 8; ++i) {
    fifo.push_back(std::make_unique<int>(i));
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(fifo.front(), nullptr);
    EXPECT_EQ(*fifo.front(), i);
    fifo.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

}  // namespace
}  // namespace agilla::sim
