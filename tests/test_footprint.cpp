// Per-mote host footprint guard (DESIGN.md "Per-mote footprint"). This
// binary replaces the global operator new/delete with a counting pair that
// tracks the bytes the program requested and still holds, and the blocks
// holding them, then measures what a default 16x16 deployment keeps live
// once built (warm-up included) and once its agents have spread.
// Requested bytes, not allocator pages, so the figure is the same in
// Release and sanitizer builds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "agilla_test_helpers.h"
#include "api/deployment.h"
#include "sim/fifo.h"
#include "sim/small_map.h"

namespace {

std::atomic<long long> g_live_bytes{0};
std::atomic<long long> g_live_blocks{0};
/// Live blocks by requested size, for sizes below kSizedBlocks.
constexpr std::size_t kSizedBlocks = 1024;
std::atomic<long long> g_live_blocks_of[kSizedBlocks]{};

void count_block(std::size_t size, long long delta) {
  g_live_bytes.fetch_add(static_cast<long long>(size) * delta,
                         std::memory_order_relaxed);
  g_live_blocks.fetch_add(delta, std::memory_order_relaxed);
  if (size < kSizedBlocks) {
    g_live_blocks_of[size].fetch_add(delta, std::memory_order_relaxed);
  }
}

/// Room in front of each block for its requested size; keeps the
/// default new alignment.
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

void* counted_alloc(std::size_t size) {
  auto* block = static_cast<unsigned char*>(std::malloc(kHeader + size));
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  *reinterpret_cast<std::size_t*>(block) = size;
  count_block(size, 1);
  return block + kHeader;
}

void counted_free(void* ptr) noexcept {
  if (ptr == nullptr) {
    return;
  }
  unsigned char* block = static_cast<unsigned char*>(ptr) - kHeader;
  count_block(*reinterpret_cast<std::size_t*>(block), -1);
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete[](void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}

namespace agilla {
namespace {

long long live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

long long live_blocks() {
  return g_live_blocks.load(std::memory_order_relaxed);
}

long long live_blocks_of(std::size_t size) {
  return g_live_blocks_of[size].load(std::memory_order_relaxed);
}

constexpr long long kMotes = 16 * 16;

/// The paper's motes have 4 KiB of RAM. A default built mote holds
/// 2,672 B (DESIGN.md "Per-mote footprint"); the bound is that figure
/// rounded up to 256 B, and stays within the paper's 4 KiB.
constexpr long long kMaxBytesPerMote = 2816;
static_assert(kMaxBytesPerMote <= 4096);
/// The middleware is one block with its layers inline, wired by direct
/// calls; the rest are the tuple store and its first small buffer (each
/// neighbour discovery puts and takes a tuple), the agent and neighbour
/// tables, the dispatcher and the radio's small blocks: 7.05 per mote,
/// rounded up.
constexpr long long kMaxBlocksPerMote = 8;
/// FIREDETECTOR on every mote and the FIRETRACKER swarm, 30 virtual s
/// after injection: 4,585 B per mote, rounded up to 256 B.
constexpr long long kMaxWarmBytesPerMote = 4608;

TEST(Footprint, DefaultMeshStaysUnderBudgetPerMote) {
  const long long bytes_before = live_bytes();
  const long long blocks_before = live_blocks();
  const auto mesh = api::SimulationBuilder().grid(16, 16).build();
  const long long per_mote = (live_bytes() - bytes_before) / kMotes;
  const long long blocks = live_blocks() - blocks_before;
  std::printf("live heap per mote after build: %lld bytes, %.2f blocks\n",
              per_mote, static_cast<double>(blocks) / kMotes);
  RecordProperty("bytes_per_mote", static_cast<int>(per_mote));
  EXPECT_LE(per_mote, kMaxBytesPerMote);
  EXPECT_LE(blocks, kMaxBlocksPerMote * kMotes);
}

TEST(Footprint, WarmFireMeshStaysUnderBudgetPerMote) {
  const long long before = live_bytes();
  const auto mesh = testing::spread_fire_agents(1, 30 * sim::kSecond);
  const long long per_mote = (live_bytes() - before) / kMotes;
  std::printf("live heap per mote with the fire agents: %lld bytes\n",
              per_mote);
  RecordProperty("warm_bytes_per_mote", static_cast<int>(per_mote));
  EXPECT_LE(per_mote, kMaxWarmBytesPerMote);
}

TEST(Footprint, AgentFreeMeshHoldsNoProfileOrFullStoreBlock) {
  // The blocks a mote allocates only once it uses them: the engine's
  // opcode profile (first admitted agent) and the tuple store's buffer
  // (first tuple, grown as needed).
  constexpr std::size_t kProfileBlock =
      (core::kDefinedOpcodes + 1) * sizeof(core::OpcodeProfile);
  constexpr std::size_t kStoreBlock = 600;
  static_assert(kProfileBlock < kSizedBlocks);
  const long long profiles_before = live_blocks_of(kProfileBlock);
  const long long stores_before = live_blocks_of(kStoreBlock);
  const auto mesh = api::SimulationBuilder().grid(16, 16).build();
  mesh->run_for(10 * sim::kSecond);
  ASSERT_EQ(mesh->agent_count(), 0u);
  EXPECT_EQ(live_blocks_of(kProfileBlock) - profiles_before, 0);
  EXPECT_EQ(live_blocks_of(kStoreBlock) - stores_before, 0);
}

TEST(Footprint, EmptyFifoAllocatesNothing) {
  const long long before = live_bytes();
  sim::Fifo<std::uint64_t> fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.begin(), fifo.end());
  fifo.clear();
  fifo.erase(7);
  EXPECT_EQ(live_bytes(), before);
  fifo.push_back(1);
  EXPECT_GT(live_bytes(), before);
}

TEST(Footprint, EmptiedSmallMapHoldsNothing) {
  const long long before = live_bytes();
  sim::SmallMap<std::uint8_t, std::uint64_t> map;
  EXPECT_EQ(map.find(1), nullptr);
  map.erase(1);
  EXPECT_EQ(live_bytes(), before);
  map[1] = 10;
  map[2] = 20;
  EXPECT_GT(live_bytes(), before);
  map.erase(1);
  map.erase(2);
  EXPECT_EQ(live_bytes(), before);  // the last erase frees the storage
}

}  // namespace
}  // namespace agilla
