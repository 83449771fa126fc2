#include "net/link_layer.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>

namespace agilla::net {
namespace {

/// Stands in for the mote that owns a link: hands each AM type to the
/// handler the test installed for it, and handles no other type.
struct Owner final : LinkLayer::Receiver {
  using Handler =
      std::function<bool(sim::NodeId, std::span<const std::uint8_t>)>;
  std::map<sim::AmType, Handler> handlers;

  bool on_link_message(sim::AmType am, sim::NodeId from,
                       std::span<const std::uint8_t> payload) override {
    const auto it = handlers.find(am);
    return it != handlers.end() && it->second(from, payload);
  }
};

struct LinkFixture {
  sim::Simulator sim{77};
  sim::Network net;
  sim::NodeId a;
  sim::NodeId b;
  Owner owner_a;
  Owner owner_b;
  std::unique_ptr<LinkLayer> link_a;
  std::unique_ptr<LinkLayer> link_b;

  explicit LinkFixture(double loss = 0.0) :
      net(sim, sim::ChannelLoss{.packet_loss = loss}) {
    a = net.add_node({1, 1});
    b = net.add_node({2, 1});
    link_a = std::make_unique<LinkLayer>(net, a, owner_a);
    link_b = std::make_unique<LinkLayer>(net, b, owner_b);
    link_a->attach();
    link_b->attach();
  }
};

TEST(LinkLayer, UnackedDeliveryStripsHeader) {
  LinkFixture f;
  std::vector<std::uint8_t> got;
  sim::NodeId from;
  f.owner_b.handlers[sim::AmType::kTsRequest] =
      [&](sim::NodeId src, std::span<const std::uint8_t> p) {
        from = src;
        got.assign(p.begin(), p.end());
        return true;
      };
  f.link_a->send_unacked(f.b, sim::AmType::kTsRequest, {10, 20, 30});
  f.sim.run();
  EXPECT_EQ(from, f.a);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{10, 20, 30}));
}

TEST(LinkLayer, AckedSendSucceedsOnCleanChannel) {
  LinkFixture f;
  f.owner_b.handlers[sim::AmType::kAgentState] =
      [](sim::NodeId, std::span<const std::uint8_t>) { return true; };
  bool delivered = false;
  bool called = false;
  f.link_a->send_acked(f.b, sim::AmType::kAgentState, {1}, [&](bool ok) {
    called = true;
    delivered = ok;
  });
  f.sim.run();
  EXPECT_TRUE(called);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(f.link_a->stats().send_failures, 0u);
  EXPECT_EQ(f.link_b->stats().acks_sent, 1u);
}

TEST(LinkLayer, AckedSendFailsToUnreachableNode) {
  LinkFixture f;
  const sim::NodeId far = f.net.add_node({9, 9});
  bool delivered = true;
  f.link_a->send_acked(far, sim::AmType::kAgentState, {1},
                       [&](bool ok) { delivered = ok; });
  f.sim.run();
  EXPECT_FALSE(delivered);
  // First try + 4 retransmissions (paper Sec. 3.2).
  EXPECT_EQ(f.link_a->stats().retransmissions, 4u);
  EXPECT_EQ(f.link_a->stats().send_failures, 1u);
}

TEST(LinkLayer, FailureTakesAboutHalfASecond) {
  // 5 attempts x 0.1 s ack timeout.
  LinkFixture f;
  const sim::NodeId far = f.net.add_node({9, 9});
  sim::SimTime failed_at = 0;
  f.link_a->send_acked(far, sim::AmType::kAgentState, {1},
                       [&](bool) { failed_at = f.sim.now(); });
  f.sim.run();
  EXPECT_GE(failed_at, 500 * sim::kMillisecond);
  EXPECT_LE(failed_at, 700 * sim::kMillisecond);
}

TEST(LinkLayer, RetransmitsUntilSuccessOnLossyChannel) {
  // 50% loss: nearly every transfer needs at least one retransmission but
  // 5 attempts nearly always get through.
  LinkFixture f(0.5);
  f.owner_b.handlers[sim::AmType::kAgentState] =
      [](sim::NodeId, std::span<const std::uint8_t>) { return true; };
  int ok = 0;
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    f.link_a->send_acked(f.b, sim::AmType::kAgentState, {1}, [&](bool s) {
      ++done;
      ok += s ? 1 : 0;
    });
    f.sim.run();
  }
  EXPECT_EQ(done, 40);
  // Per attempt both the data frame and the ack must survive (p ~ 0.25);
  // with 5 attempts ~76% of transfers succeed.
  EXPECT_GE(ok, 20);
  EXPECT_LE(ok, 38);
  EXPECT_GT(f.link_a->stats().retransmissions, 0u);
}

TEST(LinkLayer, DuplicateDataSuppressedButReAcked) {
  // Drop the first ack by disabling b's radio transmission... instead use a
  // lossy channel until a duplicate arrives; simpler: send the same frame
  // by simulating ack loss with 70% loss and count handler invocations vs
  // transmissions received.
  LinkFixture f(0.4);
  int handled = 0;
  f.owner_b.handlers[sim::AmType::kAgentState] =
      [&](sim::NodeId, std::span<const std::uint8_t>) {
        ++handled;
        return true;
      };
  for (int i = 0; i < 30; ++i) {
    f.link_a->send_acked(f.b, sim::AmType::kAgentState,
                         {static_cast<std::uint8_t>(i)}, nullptr);
    f.sim.run();
  }
  // Every sequence number is handled at most once even when the data frame
  // was retransmitted because an ACK (not the data) was lost; the repeats
  // show up as suppressed duplicates instead of double deliveries.
  EXPECT_LE(handled, 30);
  EXPECT_GT(f.link_b->stats().duplicates_dropped, 0u);
}

TEST(LinkLayer, ManyOutstandingAckedSends) {
  LinkFixture f;
  f.owner_b.handlers[sim::AmType::kAgentCode] =
      [](sim::NodeId, std::span<const std::uint8_t>) { return true; };
  int completions = 0;
  for (int i = 0; i < 10; ++i) {
    f.link_a->send_acked(f.b, sim::AmType::kAgentCode,
                         {static_cast<std::uint8_t>(i)},
                         [&](bool ok) { completions += ok ? 1 : 0; });
  }
  f.sim.run();
  EXPECT_EQ(completions, 10);
}

TEST(LinkLayer, HandlersDispatchByAmType) {
  LinkFixture f;
  int beacons = 0;
  int requests = 0;
  f.owner_b.handlers[sim::AmType::kBeacon] =
      [&](sim::NodeId, std::span<const std::uint8_t>) {
        ++beacons;
        return true;
      };
  f.owner_b.handlers[sim::AmType::kTsRequest] =
      [&](sim::NodeId, std::span<const std::uint8_t>) {
        ++requests;
        return true;
      };
  f.link_a->send_unacked(f.b, sim::AmType::kBeacon, {});
  f.link_a->send_unacked(f.b, sim::AmType::kTsRequest, {});
  f.sim.run();
  EXPECT_EQ(beacons, 1);
  EXPECT_EQ(requests, 1);
}

TEST(LinkLayer, BroadcastGoesUnacked) {
  LinkFixture f;
  int received = 0;
  f.owner_b.handlers[sim::AmType::kBeacon] =
      [&](sim::NodeId, std::span<const std::uint8_t>) {
        ++received;
        return true;
      };
  f.link_a->send_unacked(sim::kBroadcastNode, sim::AmType::kBeacon, {});
  f.sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.link_b->stats().acks_sent, 0u);
}

TEST(LinkLayer, SequenceWraparoundDoesNotSuppressNewMessages) {
  // Regression: an acked message whose 8-bit sequence number collides with
  // a stale dedup-cache entry (256 sends later) must still be DELIVERED —
  // a false "duplicate" here is silently re-acked and the payload lost,
  // which once cost a migrating agent its life (see DESIGN.md).
  LinkFixture f;
  int handled = 0;
  f.owner_b.handlers[sim::AmType::kAgentState] =
      [&](sim::NodeId, std::span<const std::uint8_t>) {
        ++handled;
        return true;
      };
  // Message with seq 0.
  f.link_a->send_acked(f.b, sim::AmType::kAgentState, {1}, nullptr);
  f.sim.run();
  ASSERT_EQ(handled, 1);
  // Advance the sender's sequence counter through a full wrap; the sends
  // also advance virtual time well past the dedup window.
  for (int i = 0; i < 255; ++i) {
    f.link_a->send_unacked(f.b, sim::AmType::kBeacon, {});
  }
  f.sim.run();
  // This message reuses seq 0. It must reach the handler and be acked.
  bool delivered = false;
  f.link_a->send_acked(f.b, sim::AmType::kAgentState, {2},
                       [&](bool ok) { delivered = ok; });
  f.sim.run();
  EXPECT_EQ(handled, 2);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(f.link_a->stats().send_failures, 0u);
}

TEST(LinkLayer, DuplicateWithinWindowStillSuppressed) {
  // The wraparound fix must not break genuine duplicate suppression.
  LinkFixture f(0.4);
  int handled = 0;
  f.owner_b.handlers[sim::AmType::kAgentState] =
      [&](sim::NodeId, std::span<const std::uint8_t>) {
        ++handled;
        return true;
      };
  for (int i = 0; i < 30; ++i) {
    f.link_a->send_acked(f.b, sim::AmType::kAgentState,
                         {static_cast<std::uint8_t>(i)}, nullptr);
    f.sim.run();
  }
  EXPECT_LE(handled, 30);
  EXPECT_GT(f.link_b->stats().duplicates_dropped, 0u);
}

TEST(LinkLayer,
     AckedFrameForAnAmTheOwnerDoesNotHandleIsNeitherDeliveredNorAcked) {
  LinkFixture f;
  int handled = 0;
  f.owner_b.handlers[sim::AmType::kAgentState] =
      [&](sim::NodeId, std::span<const std::uint8_t>) {
        ++handled;
        return true;
      };
  bool called = false;
  bool delivered = true;
  f.link_a->send_acked(f.b, sim::AmType::kAgentCode, {1}, [&](bool ok) {
    called = true;
    delivered = ok;
  });
  f.sim.run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(f.link_b->stats().acks_sent, 0u);
  EXPECT_TRUE(called);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(f.link_a->stats().send_failures, 1u);
}

TEST(LinkLayer, IgnoresAcksForUnknownSeqOrFromTheWrongSender) {
  LinkFixture f;
  const sim::NodeId c = f.net.add_node({1, 2});  // hears a, not b
  // b refuses every message, so it never acks on its own.
  f.owner_b.handlers[sim::AmType::kAgentState] =
      [](sim::NodeId, std::span<const std::uint8_t>) { return false; };
  int calls = 0;
  bool delivered = true;
  f.link_a->send_acked(f.b, sim::AmType::kAgentState, {1}, [&](bool ok) {
    ++calls;
    delivered = ok;
  });  // seq 0
  // The right seq from the wrong sender, and an unknown seq from b.
  f.net.send(sim::Frame{c, f.a, sim::AmType::kAck, {0}, {}});
  f.net.send(sim::Frame{f.b, f.a, sim::AmType::kAck, {9}, {}});
  f.sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(f.link_a->stats().retransmissions, 4u);
  EXPECT_EQ(f.link_a->stats().send_failures, 1u);

  // The right seq from the addressed node completes the send at once.
  f.link_a->send_acked(f.b, sim::AmType::kAgentState, {2}, [&](bool ok) {
    ++calls;
    delivered = ok;
  });  // seq 1
  f.net.send(sim::Frame{f.b, f.a, sim::AmType::kAck, {1}, {}});
  f.sim.run();
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(f.link_a->stats().retransmissions, 4u);
}

}  // namespace
}  // namespace agilla::net
