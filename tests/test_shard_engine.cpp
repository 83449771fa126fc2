// Sharded event engine (DESIGN.md "Sharded event engine"): shard-count
// outcome invariance, cross-shard ordering at the lookahead boundary,
// churn across shard borders, the observer record stream's serial order
// at any shard count, programs shared by clones across shard borders, and
// the slab queue's handle semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "agilla_test_helpers.h"
#include "api/deployment.h"
#include "core/assembler.h"
#include "core/vm_dispatch.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace agilla {
namespace {

using sim::EventHandle;
using sim::EventQueue;
using sim::NodeId;
using sim::SimTime;
using sim::Simulator;

// ------------------------------------------------ slab handle semantics

TEST(EventSlab, SizeCountsLiveEntriesExactly) {
  EventQueue q;
  EventHandle h1 = q.schedule(10, [] {});
  EventHandle h2 = q.schedule(20, [] {});
  q.schedule(30, [] {});
  EXPECT_EQ(q.size(), 3u);
  h2.cancel();
  EXPECT_EQ(q.size(), 2u);  // dead heap entry no longer counted
  h2.cancel();              // idempotent
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().time, 10u);
  EXPECT_EQ(q.pop().time, 30u);  // cancelled entry skipped
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  h1.cancel();  // cancel-after-fire is inert
  EXPECT_TRUE(q.empty());
}

TEST(EventSlab, StaleHandleCannotCancelSlotReuser) {
  Simulator sim;
  bool first = false;
  bool second = false;
  EventHandle h = sim.schedule_in(10, [&] { first = true; });
  sim.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(h.pending());
  h.cancel();  // after fire: no-op
  // The slot is recycled under a new generation; the stale handle must
  // neither report the new event as its own nor be able to cancel it.
  EventHandle h2 = sim.schedule_in(10, [&] { second = true; });
  EXPECT_FALSE(h.pending());
  h.cancel();
  EXPECT_TRUE(h2.pending());
  sim.run();
  EXPECT_TRUE(second);
}

TEST(EventSlab, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

// ------------------------------- cross-shard ordering at the lookahead

// Events landing at exactly t + lookahead from two different shards must
// interleave by the intrinsic key (time, origin stream, seq) — the order
// the serial engine produces — not by worker arrival.
std::vector<int> run_boundary_schedule(std::size_t shards) {
  constexpr SimTime kLook = 1000;
  Simulator sim(42);
  sim.ensure_node_streams(2);
  if (shards > 1) {
    sim.configure_shards(2, {0, 1}, kLook);
  }
  std::vector<int> node1_log;  // shard 1 drains serially: no race
  // Kernel event at the same instant: must run at the barrier, before
  // every same-time node event (kernel stream orders lowest).
  sim.schedule_at(kLook, [&] { node1_log.push_back(1); });
  sim.schedule_at(0, NodeId{0}, [&] {
    // Cross-shard schedules at exactly now + lookahead: the closest
    // virtual distance the conservative window admits.
    sim.schedule_at(sim.now() + kLook, NodeId{1},
                    [&] { node1_log.push_back(100); });
    sim.schedule_at(sim.now() + kLook, NodeId{1},
                    [&] { node1_log.push_back(101); });
  });
  sim.schedule_at(0, NodeId{1}, [&] {
    sim.schedule_at(sim.now() + kLook, NodeId{1},
                    [&] { node1_log.push_back(200); });
  });
  sim.run();
  return node1_log;
}

TEST(ShardEngine, CrossShardOrderingAtLookaheadBoundary) {
  const std::vector<int> serial = run_boundary_schedule(1);
  const std::vector<int> sharded = run_boundary_schedule(2);
  // Kernel first, then node 0's cross-shard events (origin stream 1, in
  // seq order), then node 1's own event (origin stream 2).
  EXPECT_EQ(serial, (std::vector<int>{1, 100, 101, 200}));
  EXPECT_EQ(sharded, serial);
}

TEST(ShardEngine, ShardOfFollowsConfiguredMap) {
  Simulator sim;
  sim.ensure_node_streams(4);
  sim.configure_shards(2, {0, 0, 1, 1}, 500);
  EXPECT_EQ(sim.shard_count(), 2u);
  EXPECT_EQ(sim.lookahead(), 500u);
  EXPECT_EQ(sim.shard_of(NodeId{0}), 0u);
  EXPECT_EQ(sim.shard_of(NodeId{3}), 1u);
}

// ------------------------------------ flat frames across shard outboxes

/// What a receiver saw: arrival time, header and every payload byte.
struct Heard {
  SimTime at = 0;
  NodeId src;
  NodeId dst;
  sim::AmType am = sim::AmType::kAck;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const Heard&, const Heard&) = default;
};

/// An 8x2 strip of bare radios: every node sends six frames (broadcasts
/// and unicasts to its right-hand neighbour, payloads from 0 to the full
/// 48 bytes, every byte a function of sender and index) from its own
/// stream, and every receiver logs what it heard. Each delivery event
/// carries its own copy of the frame, so frames crossing a strip border
/// ride the outbox by value; the sender's buffer is gone by then.
std::vector<std::vector<Heard>> run_flat_frames(std::size_t shards,
                                                std::size_t* crossed) {
  constexpr std::uint32_t kNodes = 16;
  Simulator sim(11);
  sim::Network net(sim);
  for (std::uint32_t x = 0; x < kNodes / 2; ++x) {
    net.add_node({static_cast<double>(x), 0.0});
    net.add_node({static_cast<double>(x), 1.0});
  }
  net.configure_shards(shards);
  std::vector<std::vector<Heard>> heard(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    net.set_receiver(NodeId{n}, [&, n](const sim::Frame& frame) {
      heard[n].push_back(Heard{sim.now(), frame.src, frame.dst, frame.am,
                               {frame.payload.begin(), frame.payload.end()}});
    });
  }
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    sim.schedule_at(n * 100, NodeId{n}, [&net, n] {
      for (std::uint32_t k = 0; k < 6; ++k) {
        sim::Frame frame;
        frame.src = NodeId{n};
        const bool unicast = k % 2 == 1 && n + 2 < kNodes;
        frame.dst = unicast ? NodeId{n + 2} : sim::kBroadcastNode;
        frame.am = unicast ? sim::AmType::kTsRequest : sim::AmType::kBeacon;
        const std::size_t length =
            k == 5 ? sim::kFramePayloadBytes : (n * 7 + k * 11) % 40;
        std::vector<std::uint8_t> bytes(length);
        for (std::size_t i = 0; i < length; ++i) {
          bytes[i] = static_cast<std::uint8_t>(n * 31 + k * 7 + i);
        }
        frame.payload = bytes;
        net.send(frame);
      }
    });
  }
  sim.run();
  *crossed = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (const Heard& h : heard[n]) {
      *crossed += sim.shard_of(h.src) != sim.shard_of(NodeId{n}) ? 1 : 0;
    }
  }
  return heard;
}

TEST(ShardEngine, FlatFramesCrossShardOutboxesByValue) {
  std::size_t crossed = 0;
  const auto serial = run_flat_frames(1, &crossed);
  EXPECT_EQ(crossed, 0u);
  std::size_t full_frames = 0;
  for (const auto& log : serial) {
    for (const Heard& h : log) {
      full_frames += h.payload.size() == sim::kFramePayloadBytes ? 1 : 0;
    }
  }
  EXPECT_GT(full_frames, 16u);
  for (const std::size_t shards : {2u, 4u}) {
    const auto sharded = run_flat_frames(shards, &crossed);
    EXPECT_GT(crossed, 0u) << shards << " shards";
    EXPECT_EQ(sharded, serial) << shards << " shards";
  }
}

// --------------------------------------- whole-deployment invariance

api::DeploymentOptions churn_mesh(std::size_t shards) {
  api::DeploymentOptions options;
  options.width = 6;
  options.height = 6;
  options.seed = 7;
  options.warmup = 2 * sim::kSecond;
  options.energy.battery_mj = 500.0;  // dies in tens of virtual seconds
  options.churn.crash_rate_per_node_s = 0.02;  // plus crash/reboot churn
  options.churn.reboot_after = 5 * sim::kSecond;
  options.sim_shards = shards;
  return options;
}

void expect_same_outcome(api::Deployment& a, api::Deployment& b) {
  const sim::NetworkStats sa = a.network().stats();
  const sim::NetworkStats sb = b.network().stats();
  EXPECT_EQ(sa.frames_sent, sb.frames_sent);
  EXPECT_EQ(sa.frames_delivered, sb.frames_delivered);
  EXPECT_EQ(sa.frames_lost, sb.frames_lost);
  EXPECT_EQ(sa.frames_unreachable, sb.frames_unreachable);
  EXPECT_EQ(sa.bytes_on_air, sb.bytes_on_air);
  EXPECT_EQ(sa.node_deaths, sb.node_deaths);
  EXPECT_EQ(sa.node_reboots, sb.node_reboots);
  EXPECT_EQ(sa.sent_by_type, sb.sent_by_type);

  const auto& deaths_a = a.death_log();
  const auto& deaths_b = b.death_log();
  ASSERT_EQ(deaths_a.size(), deaths_b.size());
  for (std::size_t i = 0; i < deaths_a.size(); ++i) {
    EXPECT_EQ(deaths_a[i].node, deaths_b[i].node);
    EXPECT_EQ(deaths_a[i].at, deaths_b[i].at);
    EXPECT_EQ(deaths_a[i].reason, deaths_b[i].reason);
  }
  EXPECT_EQ(a.reboot_count(), b.reboot_count());
  EXPECT_EQ(a.network().alive_count(), b.network().alive_count());
  // Per-node battery ledgers: every charge for a node happens in its own
  // stream in the same order whatever the shard count, so the doubles
  // must match bit for bit, not just approximately.
  for (std::size_t n = 0; n < a.network().node_count(); ++n) {
    const auto* battery_a = a.network().battery(NodeId{
        static_cast<std::uint32_t>(n)});
    const auto* battery_b = b.network().battery(NodeId{
        static_cast<std::uint32_t>(n)});
    ASSERT_EQ(battery_a == nullptr, battery_b == nullptr);
    if (battery_a != nullptr) {
      EXPECT_EQ(battery_a->remaining_mj(), battery_b->remaining_mj());
      EXPECT_EQ(battery_a->total_drained_mj(),
                battery_b->total_drained_mj());
    }
  }
}

TEST(ShardEngine, ChurnAndEnergyOutcomeInvariantAcrossShardCounts) {
  api::Deployment serial(churn_mesh(1));
  api::Deployment two(churn_mesh(2));
  api::Deployment four(churn_mesh(4));
  serial.run_for(60 * sim::kSecond);
  two.run_for(60 * sim::kSecond);
  four.run_for(60 * sim::kSecond);

  ASSERT_GT(serial.death_log().size(), 0u)
      << "test needs deaths to compare";
  ASSERT_GT(serial.reboot_count(), 0u) << "test needs reboots to compare";
  expect_same_outcome(serial, two);
  expect_same_outcome(serial, four);

  // The point of the churn leg: some of those kill/revive cycles hit
  // nodes owned by a non-primary shard, i.e. they ran on a worker.
  EXPECT_EQ(four.simulator().shard_count(), 4u);
  bool cross_shard_death = false;
  for (const auto& death : four.death_log()) {
    if (four.simulator().shard_of(death.node) > 0) {
      cross_shard_death = true;
    }
  }
  EXPECT_TRUE(cross_shard_death);
}

/// The churn mesh plus a wandering agent (tuple writes, sleeps, strong
/// moves to random neighbours), observed through the bus: every record as
/// delivered, instructions included, and an EventCounter subscribed after
/// the log.
struct ObservedRun {
  testing::EventLog log;
  api::EventCounter counter;
  std::unique_ptr<api::Deployment> mesh;

  explicit ObservedRun(std::size_t shards)
      : mesh(std::make_unique<api::Deployment>(
            churn_mesh(shards),
            std::vector<api::Observer*>{&log, &counter})) {
    // Widen the log's mask in place (it stays ahead of the counter).
    mesh->bus().subscribe(
        log, sim::kDefaultKinds | sim::mask_of(sim::EventKind::kInsn));
    mesh->mote(0).inject(core::assemble_or_die(
        "LOOP pushc 7\npushc 1\nout\npushc 4\nsleep\n"
        "randnbr\nsmove\njump LOOP\n"));
    mesh->run_for(60 * sim::kSecond);
  }

  /// FNV-1a over every field of every record, in delivery order.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 14695981039346656037ULL;
    for (const sim::Event& event : log.records) {
      for (const char c : testing::to_text(event) + "\n") {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
      }
    }
    return h;
  }
};

void expect_same_counts(const api::EventCounter& a,
                        const api::EventCounter& b) {
  EXPECT_EQ(a.agent_spawns, b.agent_spawns);
  EXPECT_EQ(a.agent_kills, b.agent_kills);
  EXPECT_EQ(a.agent_migrations, b.agent_migrations);
  EXPECT_EQ(a.agent_blocks, b.agent_blocks);
  EXPECT_EQ(a.agent_resumes, b.agent_resumes);
  EXPECT_EQ(a.tuple_ops, b.tuple_ops);
  EXPECT_EQ(a.frames_tx, b.frames_tx);
  EXPECT_EQ(a.frames_rx, b.frames_rx);
  EXPECT_EQ(a.beacons, b.beacons);
  EXPECT_EQ(a.nodes_down, b.nodes_down);
  EXPECT_EQ(a.nodes_up, b.nodes_up);
  EXPECT_EQ(a.battery_settles, b.battery_settles);
}

TEST(ShardEngine, ObserversSeeTheSerialRecordStreamAtAnyShardCount) {
  const ObservedRun serial(1);
  const ObservedRun two(2);
  const ObservedRun four(4);

  // Every kind of record is exercised, so the comparison covers them all.
  for (std::size_t k = 0; k < static_cast<std::size_t>(sim::EventKind::kCount);
       ++k) {
    EXPECT_GT(serial.log.count(static_cast<sim::EventKind>(k)), 0u)
        << "no record of kind " << k;
  }
  EXPECT_EQ(serial.log.records.size(), two.log.records.size());
  EXPECT_EQ(serial.log.records.size(), four.log.records.size());
  EXPECT_EQ(serial.digest(), two.digest());
  EXPECT_EQ(serial.digest(), four.digest());
  expect_same_counts(serial.counter, two.counter);
  expect_same_counts(serial.counter, four.counter);
  expect_same_outcome(*serial.mesh, *four.mesh);

  // The merge is really exercised: records came from worker shards.
  const sim::Simulator& sharded = four.mesh->simulator();
  EXPECT_TRUE(std::any_of(
      four.log.records.begin(), four.log.records.end(),
      [&](const sim::Event& e) {
        return e.node.valid() && sharded.shard_of(e.node) > 0;
      }));
}

/// Each mote's live agents and its engine's program counts, as text.
std::string program_state(api::Deployment& mesh) {
  std::string out;
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    const core::VmDispatcher::CacheStats& stats =
        mesh.mote(i).engine().dispatcher().cache_stats();
    out += std::to_string(mesh.mote(i).engine().agents().size()) + ":" +
           std::to_string(stats.programs_compiled) + "/" +
           std::to_string(stats.cache_hits) + " ";
  }
  return out;
}

/// Distinct programs held by live agents across the deployment.
std::size_t distinct_programs(api::Deployment& mesh) {
  std::set<const core::DecodedProgram*> programs;
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    for (const auto& agent : mesh.mote(i).engine().agents()) {
      programs.insert(agent->program().get());
    }
  }
  return programs.size();
}

TEST(ShardEngine, SharedProgramsInvariantAcrossShardCounts) {
  // Detector clones flood across every strip border and trackers clone
  // toward the fire, so at K>1 shard workers intern programs in the
  // deployment's table concurrently.
  const auto serial = testing::spread_fire_agents(1);
  const auto two = testing::spread_fire_agents(2);
  const auto four = testing::spread_fire_agents(4);
  expect_same_outcome(*serial, *two);
  expect_same_outcome(*serial, *four);
  EXPECT_EQ(program_state(*serial), program_state(*two));
  EXPECT_EQ(program_state(*serial), program_state(*four));
  EXPECT_EQ(distinct_programs(*serial), 2u);
  EXPECT_EQ(distinct_programs(*two), 2u);
  EXPECT_EQ(distinct_programs(*four), 2u);

  // Agents really run on every worker shard.
  std::set<std::uint32_t> shards_hosting;
  for (std::size_t i = 0; i < four->mote_count(); ++i) {
    if (four->mote(i).engine().agents().size() > 0) {
      shards_hosting.insert(
          four->simulator().shard_of(four->mote(i).node_id()));
    }
  }
  EXPECT_EQ(shards_hosting.size(), 4u);
}

}  // namespace
}  // namespace agilla
