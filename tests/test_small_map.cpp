// sim::SmallMap, the flat per-mote table behind the link layer's acked
// sends, the migration manager's partial arrivals, the remote-op
// requests and the engine's sleep timers and queued reactions: it keeps
// std::unordered_map's semantics for those uses. (That an emptied map
// frees its storage is checked in test_footprint, which counts
// allocations.)
#include "sim/small_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace agilla::sim {
namespace {

using Entries = std::vector<std::pair<std::uint16_t, int>>;

Entries sorted(SmallMap<std::uint16_t, int>& map) {
  Entries out(map.begin(), map.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SmallMap, FindsInsertsAndReplaces) {
  SmallMap<std::uint16_t, int> map;
  EXPECT_EQ(map.find(3), nullptr);
  map[3] = 30;
  map[5] = 50;
  map[3] = 31;  // an insert under a present key replaces its value
  EXPECT_EQ(sorted(map), (Entries{{3, 31}, {5, 50}}));
  EXPECT_EQ(map[7], 0);  // absent: value-initialised, then present
  EXPECT_EQ(sorted(map), (Entries{{3, 31}, {5, 50}, {7, 0}}));
}

TEST(SmallMap, EraseKeepsTheOtherEntries) {
  SmallMap<std::uint16_t, int> map;
  for (std::uint16_t key = 0; key < 5; ++key) {
    map[key] = key * 10;
  }
  map.erase(1);  // from the middle
  map.erase(9);  // absent: no-op
  map.erase(4);  // the last entry
  EXPECT_EQ(sorted(map), (Entries{{0, 0}, {2, 20}, {3, 30}}));
  EXPECT_EQ(map.find(1), nullptr);
  map.clear();
  EXPECT_EQ(map.begin(), map.end());
}

TEST(SmallMap, HoldsMoveOnlyValues) {
  SmallMap<std::uint16_t, std::unique_ptr<int>> map;
  map[1] = std::make_unique<int>(1);
  map[2] = std::make_unique<int>(2);
  map.erase(1);  // moves entry 2 into the hole
  ASSERT_NE(map.find(2), nullptr);
  EXPECT_EQ(**map.find(2), 2);
}

}  // namespace
}  // namespace agilla::sim
