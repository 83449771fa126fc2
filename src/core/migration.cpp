#include "core/migration.h"

#include <cassert>
#include <utility>

#include "energy/energy_model.h"

namespace agilla::core {
namespace {

constexpr sim::AmType kMigrationTypes[] = {
    sim::AmType::kAgentState, sim::AmType::kAgentCode,
    sim::AmType::kAgentHeap, sim::AmType::kAgentStack,
    sim::AmType::kAgentReaction,
};

}  // namespace

MigrationManager::MigrationManager(sim::Network& network,
                                   net::LinkLayer& link,
                                   const net::GeoRouter& router,
                                   sim::Location self, Options options)
    : network_(network),
      link_(link),
      router_(router),
      self_(self),
      options_(options) {
  for (const sim::AmType am : kMigrationTypes) {
    link_.register_handler(
        am, [this, am](sim::NodeId from, std::span<const std::uint8_t> p) {
          return on_message(am, from, p);
        });
  }
}

void MigrationManager::deliver(AgentImage image, bool reached_dest) {
  if (reached_dest) {
    stats_.arrivals++;
  } else {
    stats_.custody_resumes++;
  }
  if (arrival_) {
    arrival_(std::move(image), reached_dest);
  }
}

void MigrationManager::send(AgentImage image, HopCompletion done) {
  stats_.transfers_started++;
  const auto decision = router_.decide(image.dest, sim::kAddressEpsilon);
  using Kind = net::GeoRouter::Decision::Kind;
  switch (decision.kind) {
    case Kind::kDeliverLocal: {
      deliver(std::move(image), true);
      if (done) {
        done(true);
      }
      return;
    }
    case Kind::kNoRoute: {
      stats_.no_route++;
      if (done) {
        done(false);
      } else {
        // A forwarded agent with no onward route resumes here.
        deliver(std::move(image), false);
      }
      return;
    }
    case Kind::kForward:
      break;
  }

  Outgoing transfer;
  transfer.messages = to_messages(image, next_transfer_id_++);
  transfer.hop = decision.next_hop;
  transfer.done = std::move(done);
  if (!transfer.done) {
    transfer.custody_image = std::move(image);
  }
  outgoing_.push_back(std::move(transfer));
  send_next(std::prev(outgoing_.end()));
}

void MigrationManager::drop_in_flight() {
  for (Outgoing& transfer : outgoing_) {
    transfer.done = nullptr;
    transfer.custody_image.reset();
  }
  for (auto& [agent_id, incoming] : incoming_) {
    incoming.abort_timer.cancel();
  }
  incoming_.clear();
}

void MigrationManager::send_next(std::list<Outgoing>::iterator it) {
  Outgoing& transfer = *it;
  if (transfer.next >= transfer.messages.size()) {
    // Every message acked: custody now belongs to the next hop.
    stats_.hops_completed++;
    auto done = std::move(transfer.done);
    outgoing_.erase(it);
    if (done) {
      done(true);
    }
    return;
  }
  const MigrationMessage& msg = transfer.messages[transfer.next];
  stats_.messages_sent++;
  if (battery_ != nullptr) {
    battery_->drain(energy::EnergyComponent::kCpu, energy::kMigrationMsgMj);
  }
  link_.send_acked(
      transfer.hop, msg.am, msg.payload, [this, it](bool delivered) {
        if (!delivered) {
          stats_.hop_failures++;
          auto done = std::move(it->done);
          auto custody = std::move(it->custody_image);
          outgoing_.erase(it);
          if (done) {
            done(false);
          } else if (custody.has_value()) {
            deliver(std::move(*custody), false);
          }
          return;
        }
        it->next++;
        send_next(it);
      });
}

bool MigrationManager::on_message(sim::AmType am, sim::NodeId /*from*/,
                                  std::span<const std::uint8_t> payload) {
  // Peek the agent id (first two bytes of every migration payload).
  net::Reader peek(payload);
  const std::uint16_t agent_id = peek.u16();
  const std::uint8_t transfer_id = peek.u8();
  if (!peek.ok()) {
    return false;
  }
  if (battery_ != nullptr) {
    battery_->drain(energy::EnergyComponent::kCpu, energy::kMigrationMsgMj);
  }

  if (Incoming* stale = incoming_.find(agent_id);
      stale != nullptr && stale->assembler.transfer_id() != transfer_id) {
    // A fresh transfer for the same agent supersedes a stale partial one
    // (e.g. the sender aborted and retried after our abort timer fired).
    stale->abort_timer.cancel();
    incoming_.erase(agent_id);
  }
  Incoming& incoming = incoming_[agent_id];

  if (!incoming.assembler.feed(am, payload)) {
    // Unacceptable (typically a mid-transfer message after we aborted the
    // partial state). Drop an assembler that never saw a state message so
    // a future retry starts clean, and withhold the ack.
    if (!incoming.assembler.has_state()) {
      incoming.abort_timer.cancel();
      incoming_.erase(agent_id);
    }
    return false;
  }

  incoming.abort_timer.cancel();
  if (incoming.assembler.complete()) {
    finish_incoming(agent_id);
    return true;
  }
  incoming.abort_timer = network_.simulator().schedule_in(
      options_.receiver_abort, [this, agent_id] { abort_incoming(agent_id); });
  return true;
}

void MigrationManager::abort_incoming(std::uint16_t agent_id) {
  incoming_.erase(agent_id);
}

void MigrationManager::finish_incoming(std::uint16_t agent_id) {
  Incoming* incoming = incoming_.find(agent_id);
  assert(incoming != nullptr);
  AgentImage image = incoming->assembler.take();
  incoming_.erase(agent_id);

  if (within(self_, image.dest, sim::kAddressEpsilon)) {
    deliver(std::move(image), true);
    return;
  }
  // Not the final destination: forward. A forwarding failure resumes the
  // agent here (custody semantics), via the nullptr-done path in send().
  send(std::move(image), nullptr);
}

}  // namespace agilla::core
