// Per-mote host footprint guard (DESIGN.md "Per-mote footprint"). This
// binary replaces the global operator new/delete with a counting pair that
// tracks the bytes the program requested and still holds, then measures
// what a default 16x16 deployment keeps live once built (warm-up
// included). Requested bytes, not allocator pages, so the figure is the
// same in Release and sanitizer builds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "api/deployment.h"
#include "sim/fifo.h"

namespace {

std::atomic<long long> g_live_bytes{0};

/// Room in front of each block for its requested size; keeps the
/// default new alignment.
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

void* counted_alloc(std::size_t size) {
  auto* block = static_cast<unsigned char*>(std::malloc(kHeader + size));
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  *reinterpret_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<long long>(size),
                         std::memory_order_relaxed);
  return block + kHeader;
}

void counted_free(void* ptr) noexcept {
  if (ptr == nullptr) {
    return;
  }
  unsigned char* block = static_cast<unsigned char*>(ptr) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<long long>(*reinterpret_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
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

/// The paper's motes have 4 KiB of RAM; the host-side model of one may
/// take twice that. A default mote holds about 6 KB (DESIGN.md
/// "Per-mote footprint").
constexpr long long kMaxBytesPerMote = 8 * 1024;

TEST(Footprint, DefaultMeshStaysUnderBudgetPerMote) {
  constexpr std::size_t kSide = 16;
  const long long before = live_bytes();
  const auto mesh = api::SimulationBuilder().grid(kSide, kSide).build();
  const long long per_mote =
      (live_bytes() - before) / static_cast<long long>(kSide * kSide);
  std::printf("live heap per mote after build: %lld bytes\n", per_mote);
  RecordProperty("bytes_per_mote", static_cast<int>(per_mote));
  EXPECT_LE(per_mote, kMaxBytesPerMote);
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

}  // namespace
}  // namespace agilla
