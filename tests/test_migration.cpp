// Agent migration: smove/wmove/sclone/wclone over one and multiple hops,
// strong vs weak state transfer, failure handling and custody semantics.
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/agent_library.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

bool has_string_tuple(AgillaMiddleware& node, const std::string& tag) {
  return node.tuple_space()
      .rdp(ts::Template{ts::Value::string(tag)})
      .has_value();
}

bool has_mark(AgillaMiddleware& node, const std::string& tag) {
  return node.tuple_space()
      .rdp(ts::Template{ts::Value::string(tag),
                        ts::Value::type_wildcard(ts::ValueType::kLocation)})
      .has_value();
}

TEST(Migration, SMoveOneHop) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 2 1
      smove
      pushn arr
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(has_string_tuple(mesh.at(1), "arr"));
  EXPECT_FALSE(has_string_tuple(mesh.at(0), "arr"));
  EXPECT_EQ(mesh.at(0).engine().agents().size(), 0u);
  // The origin's code pool was freed after the move.
  EXPECT_EQ(mesh.at(0).code_pool().used_blocks(), 0u);
}

TEST(Migration, SMoveCarriesStackHeapAndId) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  const auto id = mesh.at(0).inject(assemble_or_die(R"(
      pushc 42
      setvar 0       // heap survives strong move
      pushc 7        // stack survives strong move
      pushloc 2 1
      smove
      getvar 0
      add            // 7 + 42
      aid
      swap
      pushc 2
      out            // <agent-id, 49>
      halt
  )"));
  ASSERT_TRUE(id.has_value());
  mesh.sim.run_for(3 * sim::kSecond);
  const auto t = mesh.at(1).tuple_space().rdp(ts::Template{
      ts::Value::agent_id(id->value), ts::Value::number(49)});
  EXPECT_TRUE(t.has_value());  // same id, same state: strong semantics
}

TEST(Migration, SMoveConditionOneOnArrival) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 2 1
      smove
      cpush
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  const auto t = mesh.at(1).tuple_space().rdp(
      ts::Template{ts::Value::number(1)});
  EXPECT_TRUE(t.has_value());
}

TEST(Migration, WMoveRestartsFromPcZero) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  // The agent marks every node where it (re)starts; weak moves restart at
  // BEGIN, so both nodes end up marked.
  mesh.at(0).inject(assemble_or_die(R"(
      BEGIN pushn mrk
            loc
            pushc 2
            out            // mark every node where we (re)start
            loc
            pushloc 2 1
            ceq
            rjumpc DONE    // reached the destination: stop
            pushloc 2 1
            wmove          // weak: restarts at BEGIN on the next node
      DONE  halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  // Mark exists on both nodes (restarted from the top at node 2).
  EXPECT_TRUE(has_mark(mesh.at(0), "mrk"));
  EXPECT_TRUE(has_mark(mesh.at(1), "mrk"));
}

TEST(Migration, WMoveToSelfOfAgentAtDestIsNoOp) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  // Moving to its own location: cond=1 and execution continues (no-op).
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 1 1
      smove
      cpush
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(2 * sim::kSecond);
  const auto t = mesh.at(0).tuple_space().rdp(
      ts::Template{ts::Value::number(1)});
  EXPECT_TRUE(t.has_value());
}

TEST(Migration, SCloneRunsOnBothNodes) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 2 1
      sclone
      pushn her
      loc
      pushc 2
      out          // both copies record where they are
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("her"),
                                    ts::Value::location({1, 1})})
                  .has_value());
  EXPECT_TRUE(mesh.at(1)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("her"),
                                    ts::Value::location({2, 1})})
                  .has_value());
}

TEST(Migration, CloneGetsFreshIdOriginalKeepsItsOwn) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  const auto original = mesh.at(0).inject(assemble_or_die(R"(
      pushloc 2 1
      sclone
      aid
      pushc 1
      out
      halt
  )"));
  ASSERT_TRUE(original.has_value());
  mesh.sim.run_for(3 * sim::kSecond);
  const auto at_origin = mesh.at(0).tuple_space().rdp(
      ts::Template{ts::Value::type_wildcard(ts::ValueType::kAgentId)});
  const auto at_dest = mesh.at(1).tuple_space().rdp(
      ts::Template{ts::Value::type_wildcard(ts::ValueType::kAgentId)});
  ASSERT_TRUE(at_origin.has_value());
  ASSERT_TRUE(at_dest.has_value());
  EXPECT_EQ(at_origin->field(0).as_agent_id(), original->value);
  EXPECT_NE(at_dest->field(0).as_agent_id(), original->value);
}

TEST(Migration, CloneConditionsDistinguishCopies) {
  // Clone at dest: condition 1. Original after success: condition 2.
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 2 1
      sclone
      cpush
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  const auto orig = mesh.at(0).tuple_space().rdp(
      ts::Template{ts::Value::number(2)});
  const auto clone = mesh.at(1).tuple_space().rdp(
      ts::Template{ts::Value::number(1)});
  EXPECT_TRUE(orig.has_value());
  EXPECT_TRUE(clone.has_value());
}

TEST(Migration, WCloneResetsState) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      BEGIN getvar 0
            pushc 1
            ceq
            rjumpc SECOND   // heap survived: weak semantics were violated
            loc
            pushloc 2 1
            ceq
            rjumpc DONE     // the clone, restarted at the destination
            pushc 1
            setvar 0
            pushloc 2 1
            wclone          // weak clone: restarts at BEGIN, fresh heap
      DONE  halt
      SECOND pushn bad
            pushc 1
            out             // only reachable if heap survived (it must not)
            halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_FALSE(has_string_tuple(mesh.at(1), "bad"));
  EXPECT_FALSE(has_string_tuple(mesh.at(0), "bad"));
}

TEST(Migration, MultiHopSMoveAcrossLine) {
  AgillaMesh mesh(MeshOptions{.width = 5, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 5 1
      smove
      pushn arr
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(6 * sim::kSecond);
  EXPECT_TRUE(has_string_tuple(mesh.at(4), "arr"));
  // Intermediate nodes hosted the agent only transiently.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(mesh.at(static_cast<std::size_t>(i)).engine().agents().size(), 0u);
  }
}

TEST(Migration, PaperFig8RoundTrip) {
  AgillaMesh mesh(MeshOptions{.width = 5, .height = 1});
  mesh.warm();
  mesh.at(0).inject(
      assemble_or_die(agents::smove_round_trip({5, 1}, {1, 1})));
  mesh.sim.run_for(10 * sim::kSecond);
  // Made it there and back, then halted; nothing remains anywhere.
  EXPECT_EQ(mesh.total_agents(), 0u);
  EXPECT_GE(mesh.at(0).engine().stats().agents_installed, 1u);
}

TEST(Migration, StrongMoveCarriesReactions) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushn key
      pushc 1
      pushc HIT
      regrxn
      pushloc 2 1
      smove
      wait
      HIT pop
      pushn oky
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  // Reaction moved with the agent: origin registry empty, dest has it.
  EXPECT_EQ(mesh.at(0).tuple_space().reactions().size(), 0u);
  ASSERT_EQ(mesh.at(1).tuple_space().reactions().size(), 1u);
  mesh.at(1).tuple_space().out(ts::Tuple{ts::Value::string("key")});
  mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_TRUE(has_string_tuple(mesh.at(1), "oky"));
}

TEST(Migration, NoRouteFailsWithConditionZero) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc -9 1
      smove
      cpush
      pushn cnd
      swap
      pushc 2
      out          // <"cnd", condition>
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  const auto t = mesh.at(0).tuple_space().rdp(ts::Template{
      ts::Value::string("cnd"), ts::Value::number(0)});
  EXPECT_TRUE(t.has_value());
  EXPECT_EQ(mesh.at(0).engine().stats().migrations_failed, 1u);
}

TEST(Migration, DeadNextHopResumesSenderWithConditionZero) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.warm();
  // Kill node 1 AFTER warmup so node 0 still believes it has a route.
  mesh.net.set_radio_enabled(mesh.topo.nodes[1], false);
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 3 1
      smove
      cpush
      pushn cnd
      swap
      pushc 2
      out
      halt
  )"));
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("cnd"),
                                    ts::Value::number(0)})
                  .has_value());
  // The agent was not lost: it still ran to completion at the origin.
  EXPECT_EQ(mesh.total_agents(), 0u);
}

TEST(Migration, ArrivalRejectedWhenAgentSlotsFull) {
  core::AgillaConfig config;
  config.engine.max_agents = 1;
  AgillaMesh mesh(MeshOptions{
      .width = 2, .height = 1, .config = config});
  mesh.warm();
  // Fill node 1's only slot with a sleeper.
  mesh.at(1).inject(
      assemble_or_die("LOOP pushcl 800\nsleep\nrjump LOOP"));
  mesh.sim.run_for(500 * sim::kMillisecond);
  mesh.at(0).inject(assemble_or_die(agents::move_once("smove", {2, 1})));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_EQ(mesh.at(1).engine().stats().agents_rejected, 1u);
  EXPECT_EQ(mesh.at(1).engine().agents().size(), 1u);  // just the sleeper
}

TEST(Migration, DropInFlightCancelsEveryIncomingAbortTimer) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  // Two partial transfers into node 1: each state message arms a 0.25 s
  // receiver-abort timer that waits for the rest of its agent.
  for (const std::uint16_t agent_id : {7, 8}) {
    AgentImage image;
    image.agent_id = agent_id;
    image.op = MigrationOp::kWMove;
    image.dest = {2, 1};
    image.code = assemble_or_die("pushc 1\npushc 1\nout\nhalt");
    ASSERT_GT(message_counts(image).total(), 1u);
    const MigrationMessage state =
        encode_message(image, /*transfer_id=*/0, /*index=*/0);
    mesh.at(0).link().send_acked(mesh.at(1).node_id(), state.am,
                                 state.payload, nullptr);
  }
  mesh.sim.run_for(100 * sim::kMillisecond);
  const std::size_t armed = mesh.sim.pending_events();
  mesh.at(1).migration().drop_in_flight();
  EXPECT_EQ(mesh.sim.pending_events(), armed - 2);
  mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_EQ(mesh.at(1).engine().agents().size(), 0u);
}

TEST(Migration, MigrationTimeIsHundredsOfMilliseconds) {
  // Paper Sec. 4: one-hop migration ~0.3 s at minimum cadence.
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  const sim::SimTime start = mesh.sim.now();
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 2 1
      smove
      pushn arr
      pushc 1
      out
      halt
  )"));
  // Find the arrival time by polling.
  sim::SimTime arrival = 0;
  for (int step = 0; step < 300; ++step) {
    mesh.sim.run_for(10 * sim::kMillisecond);
    if (has_string_tuple(mesh.at(1), "arr")) {
      arrival = mesh.sim.now();
      break;
    }
  }
  ASSERT_GT(arrival, 0u);
  const sim::SimTime elapsed = arrival - start;
  EXPECT_GT(elapsed, 80 * sim::kMillisecond);
  EXPECT_LT(elapsed, 600 * sim::kMillisecond);
}

}  // namespace
}  // namespace agilla::core
