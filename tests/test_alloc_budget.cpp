// Steady-state allocation budget of the event path (DESIGN.md "Sharded
// event engine"). This binary replaces the global operator new with one
// that counts calls, runs a deployment past its warm-up, and divides the
// allocations of the measured virtual seconds by the events run_for
// executed in them. Two deployments:
//  * a 32x32 network_lifetime-shaped mesh (battery attached, the fire
//    world, the tracker and detector agents): beacons, radio frames,
//    deliveries and timers must not touch the heap, since frames carry
//    their payload inline and event callbacks live inside the queue's
//    slots;
//  * a 16x16 agent_dense-shaped mesh (a compute loop plus a tuple writer
//    or rdp reader on every mote): the VM's operand stack, its tuple
//    operands and the store's hit path must not touch the heap either.
// A third case bounds migration per completed hop rather than per event:
// a strong-move ping-pong on a lossless 2x1 mesh.
// The count is exact and deterministic, so the bound holds on any host
// and in sanitizer builds alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "api/deployment.h"
#include "core/agent_library.h"
#include "core/assembler.h"
#include "sim/environment.h"

namespace {

std::atomic<long long> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* block = std::malloc(size == 0 ? 1 : size);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  return block;
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
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace agilla {
namespace {

/// What is left per event is the agents' work (tuple ops, migration
/// buffers) and the occasional growth of a queue or table; the radio and
/// the event queue contribute nothing.
constexpr double kMaxAllocationsPerEvent = 0.25;

constexpr std::size_t kSide = 32;
constexpr int kWarmupSeconds = 10;
constexpr int kMeasuredSeconds = 20;

long long allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Allocations per event over `seconds` virtual seconds of `sim`.
double allocations_per_event(sim::Simulator& sim, int seconds,
                             std::size_t min_events) {
  std::size_t events = 0;
  const long long before = allocations();
  for (int s = 0; s < seconds; ++s) {
    events += sim.run_for(sim::kSecond);
  }
  const long long allocated = allocations() - before;
  EXPECT_GT(events, min_events) << "the mesh should be busy";
  const double per_event =
      static_cast<double>(allocated) / static_cast<double>(events);
  std::printf("alloc budget: %lld allocations over %zu events = %.4f per "
              "event (bound %.2f)\n",
              allocated, events, per_event, kMaxAllocationsPerEvent);
  return per_event;
}

/// The lifetime benchmark's world on a 32x32 mesh: ignition at the far
/// corner 15 s after injection, a fire detector flood and a tracker.
std::unique_ptr<api::Deployment> build_lifetime_mesh() {
  api::SimulationBuilder builder;
  builder.grid(kSide, kSide).seed(7).set("battery_mj", 4000.0);
  auto mesh = builder.build();
  const sim::SimTime inject_time = mesh->simulator().now();
  const double side = static_cast<double>(kSide);
  const double diagonal = std::hypot(side - 1.0, side - 1.0);
  mesh->environment().set_field(
      sim::SensorType::kTemperature,
      std::make_unique<sim::FireField>(sim::FireField::Options{
          .ignition_point = {side, side},
          .ignition_time = inject_time + 15 * sim::kSecond,
          .extinction_time = 0,
          .spread_speed = 0.8 * diagonal / 85.0,
          .peak = 500.0,
          .ambient = 25.0,
          .edge_decay = 0.45,
          .ring_width = 1.6,
          .burned_over = 40.0}));
  core::BaseStation base = mesh->base();
  base.inject(core::agents::fire_tracker(180, 16));
  base.inject(core::agents::fire_detector({1, 1}, 200, 32, 32));
  return mesh;
}

TEST(AllocBudget, LifetimeMeshSteadyStateAllocatesAlmostNothingPerEvent) {
  auto mesh = build_lifetime_mesh();
  sim::Simulator& sim = mesh->simulator();
  for (int s = 0; s < kWarmupSeconds; ++s) {
    sim.run_for(sim::kSecond);
  }
  EXPECT_LE(allocations_per_event(sim, kMeasuredSeconds, 100'000),
            kMaxAllocationsPerEvent);
  EXPECT_TRUE(mesh->death_log().empty());
}

// The agent_dense benchmark's agents: an endless arithmetic loop, and a
// tuple agent that either churns its own tuple with out/inp or probes 20
// stored fillers with rdp, half of the probes missing.
constexpr const char* kComputeLoop = R"(
BEGIN   pushc 0
        setvar 0
LOOP    getvar 0
        inc
        pushcl 1000
        mod
        copy
        setvar 0
        pushc 7
        mul
        pushc 3
        add
        pop
        rjump LOOP
)";

constexpr const char* kTupleWriter = R"(
BEGIN   pushc 0
        setvar 0
LOOP    pushn wr
        getvar 0
        pushc 2
        out
        pushn wr
        getvar 0
        pushc 2
        inp
        pop
        pop
        getvar 0
        inc
        pushcl 1000
        mod
        setvar 0
        rjump LOOP
)";

constexpr const char* kTupleReader = R"(
BEGIN   pushc 0
        setvar 0
FILL    pushn fil
        getvar 0
        pushc 2
        out
        getvar 0
        inc
        copy
        setvar 0
        pushc 20
        ceq
        rjumpc PROBE
        rjump FILL
PROBE   pushc 0
        setvar 0
LOOP    pushn fil
        getvar 0
        pushc 2
        rdp
        rjumpc HIT
        rjump NEXT
HIT     pop
        pop
NEXT    getvar 0
        inc
        pushc 40
        mod
        setvar 0
        rjump LOOP
)";

TEST(AllocBudget, AgentDenseMeshTupleOpsAllocateAlmostNothingPerEvent) {
  const auto compute = core::assemble_or_die(kComputeLoop);
  const auto writer = core::assemble_or_die(kTupleWriter);
  const auto reader = core::assemble_or_die(kTupleReader);
  api::SimulationBuilder builder;
  builder.grid(16, 16).seed(7).warmup(2 * sim::kSecond);
  auto mesh = builder.build();
  for (std::size_t i = 0; i < mesh->mote_count(); ++i) {
    core::AgillaMiddleware& mote = mesh->mote(i);
    ASSERT_TRUE(mote.inject(compute).has_value());
    ASSERT_TRUE(mote.inject(i % 2 == 1 ? writer : reader).has_value());
  }
  sim::Simulator& sim = mesh->simulator();
  sim.run_for(2 * sim::kSecond);
  EXPECT_LE(allocations_per_event(sim, 5, 10'000), kMaxAllocationsPerEvent);
  std::size_t alive = 0;
  for (std::size_t i = 0; i < mesh->mote_count(); ++i) {
    alive += mesh->mote(i).engine().agents().size();
  }
  EXPECT_EQ(alive, 2 * mesh->mote_count()) << "every agent should survive";
}

// An agent with two stack values, two heap slots and one reaction that
// strong-moves back and forth between the two motes of a 2x1 mesh.
constexpr const char* kPingPong = R"(
BEGIN   pushc 5
        setvar 0
        pushn abc
        setvar 7
        pushn pin
        pusht NUMBER
        pushc 2
        pushc HAND
        regrxn
        pushc 1
        pushloc 1 1
LOOP    pushloc 2 1
        smove
        pushloc 1 1
        smove
        rjump LOOP
HAND    jumps
)";

/// A hop moves one image: the sender encodes each message from it and the
/// receiver assembles the arrivals into its own. What a hop still
/// allocates is that image's code and reaction list on each side, the
/// outgoing transfer, the incoming entry, the installed agent and the link
/// layer's pending-ack table (two growths, freed when it empties): 9.0
/// per hop.
constexpr double kMaxAllocationsPerHop = 9.25;

TEST(AllocBudget, StrongMovePingPongAllocatesAFewBlocksPerHop) {
  api::SimulationBuilder builder;
  builder.grid(2, 1).seed(7).packet_loss(0.0).warmup(2 * sim::kSecond);
  auto mesh = builder.build();
  ASSERT_TRUE(mesh->mote(0).inject(core::assemble_or_die(kPingPong)));
  sim::Simulator& sim = mesh->simulator();
  const auto hops = [&mesh] {
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < mesh->mote_count(); ++i) {
      completed += mesh->mote(i).migration().stats().hops_completed;
    }
    return completed;
  };
  sim.run_for(2 * sim::kSecond);
  const std::uint64_t hops_before = hops();
  const long long before = allocations();
  sim.run_for(20 * sim::kSecond);
  const long long allocated = allocations() - before;
  const std::uint64_t completed = hops() - hops_before;
  ASSERT_GT(completed, 20u) << "the agent should keep moving";
  const double per_hop =
      static_cast<double>(allocated) / static_cast<double>(completed);
  std::printf("alloc budget: %lld allocations over %llu hops = %.2f per "
              "hop (bound %.2f)\n",
              allocated, static_cast<unsigned long long>(completed), per_hop,
              kMaxAllocationsPerHop);
  EXPECT_LE(per_hop, kMaxAllocationsPerHop);
  for (std::size_t i = 0; i < mesh->mote_count(); ++i) {
    EXPECT_EQ(mesh->mote(i).migration().stats().hop_failures, 0u);
  }
}

}  // namespace
}  // namespace agilla
