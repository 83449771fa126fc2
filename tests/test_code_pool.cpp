#include "core/code_pool.h"

#include <gtest/gtest.h>

namespace agilla::core {
namespace {

TEST(CodePool, DefaultMatchesPaper) {
  CodePool pool;
  EXPECT_EQ(pool.total_blocks(), 20u);
  EXPECT_EQ(pool.capacity_bytes(), 440u);  // paper Sec. 3.2
  EXPECT_EQ(CodePool::kBlockSize, 22u);
}

TEST(CodePool, MinimalBlocksAllocated) {
  CodePool pool;
  EXPECT_TRUE(pool.reserve(1));
  EXPECT_EQ(pool.used_blocks(), 1u);
  ASSERT_TRUE(pool.reserve(22));
  EXPECT_EQ(pool.used_blocks(), 2u);
  ASSERT_TRUE(pool.reserve(23));
  EXPECT_EQ(pool.used_blocks(), 4u);
}

TEST(CodePool, BlocksNeededHelper) {
  EXPECT_EQ(CodePool::blocks_needed(1), 1u);
  EXPECT_EQ(CodePool::blocks_needed(22), 1u);
  EXPECT_EQ(CodePool::blocks_needed(23), 2u);
  EXPECT_EQ(CodePool::blocks_needed(440), 20u);
}

TEST(CodePool, ExhaustionRejectsStore) {
  CodePool pool(2);
  EXPECT_TRUE(pool.reserve(44));
  EXPECT_FALSE(pool.reserve(1));
  EXPECT_EQ(pool.used_blocks(), 2u);  // a refused reserve takes nothing
}

TEST(CodePool, OversizedRejected) {
  CodePool pool;
  EXPECT_FALSE(pool.reserve(441));
  EXPECT_FALSE(pool.reserve(0));
  EXPECT_EQ(pool.used_blocks(), 0u);
}

TEST(CodePool, ReleaseRecyclesBlocks) {
  CodePool pool(3);
  ASSERT_TRUE(pool.reserve(44));  // 2 blocks
  EXPECT_EQ(pool.free_blocks(), 1u);
  pool.release(44);
  EXPECT_EQ(pool.free_blocks(), 3u);
  EXPECT_TRUE(pool.reserve(60));  // 3 blocks now fit
}

TEST(CodePool, InterleavedAllocationsIndependent) {
  CodePool pool;
  ASSERT_TRUE(pool.reserve(30));  // 2 blocks
  ASSERT_TRUE(pool.reserve(50));  // 3 blocks
  pool.release(30);
  // The other reservation keeps its blocks after the first is returned.
  EXPECT_EQ(pool.used_blocks(), 3u);
  pool.release(50);
  EXPECT_EQ(pool.used_blocks(), 0u);
}

TEST(CodePool, FragmentedPoolStillUsable) {
  CodePool pool(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.reserve(22));
  }
  pool.release(22);
  pool.release(22);  // two single blocks come back
  EXPECT_TRUE(pool.reserve(44));  // a 2-block image fits in them
  EXPECT_EQ(pool.free_blocks(), 0u);
}

TEST(CodePool, ExactCapacityFits) {
  CodePool pool;
  ASSERT_TRUE(pool.reserve(440));
  EXPECT_EQ(pool.free_blocks(), 0u);
  EXPECT_FALSE(pool.reserve(1));
}

}  // namespace
}  // namespace agilla::core
