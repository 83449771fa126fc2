#include "net/link_layer.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace agilla::net {

LinkLayer::LinkLayer(sim::Network& network, sim::NodeId self)
    : LinkLayer(network, self, Options{}) {}

LinkLayer::LinkLayer(sim::Network& network, sim::NodeId self, Options options)
    : network_(network), self_(self), options_(options) {}

void LinkLayer::attach() {
  network_.set_receiver(self_,
                        [this](const sim::Frame& f) { on_frame(f); });
}

void LinkLayer::register_handler(sim::AmType am, Handler handler) {
  handlers_.set(am, std::move(handler));
}

std::vector<std::uint8_t> LinkLayer::frame_payload(
    std::uint8_t seq, bool wants_ack, sim::AmType am,
    std::span<const std::uint8_t> payload) const {
  std::vector<std::uint8_t> piggyback;
  if (piggyback_provider_ && am != sim::AmType::kBeacon &&
      LinkHeader::kWireSize + payload.size() + BeaconPayload::kWireSize <=
          kMaxPayloadBytes) {
    piggyback = piggyback_provider_();
  }
  Writer w;
  LinkHeader{seq, wants_ack, /*has_piggyback=*/!piggyback.empty()}.write(w);
  w.bytes(payload);
  w.bytes(piggyback);
  return w.take();
}

void LinkLayer::send_frame(sim::NodeId dst, sim::AmType am,
                           std::vector<std::uint8_t> payload) {
  std::optional<sim::SimTime> preamble;
  if (preamble_oracle_) {
    preamble = preamble_oracle_(dst);
  }
  network_.send(sim::Frame{self_, dst, am, std::move(payload), preamble});
}

void LinkLayer::send_unacked(sim::NodeId dst, sim::AmType am,
                             std::vector<std::uint8_t> payload) {
  send_frame(dst, am,
             frame_payload(next_seq_++, /*wants_ack=*/false, am, payload));
}

void LinkLayer::send_acked(sim::NodeId dst, sim::AmType am,
                           std::vector<std::uint8_t> payload,
                           SendCallback done) {
  const std::uint8_t seq = next_seq_++;
  Pending pending;
  pending.dst = dst;
  pending.am = am;
  pending.payload = frame_payload(seq, /*wants_ack=*/true, am, payload);
  pending.done = std::move(done);
  pending_[seq] = std::move(pending);
  transmit(seq);
}

void LinkLayer::transmit(std::uint8_t seq) {
  Pending* found = pending_.find(seq);
  assert(found != nullptr);
  Pending& p = *found;
  p.attempts++;
  if (p.attempts > 1) {
    stats_.retransmissions++;
  }
  send_frame(p.dst, p.am, p.payload);
  p.timer = network_.simulator().schedule_in(
      options_.ack_timeout, self_, [this, seq] { on_timeout(seq); });
}

void LinkLayer::on_timeout(std::uint8_t seq) {
  Pending* p = pending_.find(seq);
  if (p == nullptr) {
    return;
  }
  if (p->attempts <= options_.max_retries) {
    transmit(seq);
    return;
  }
  stats_.send_failures++;
  auto done = std::move(p->done);
  pending_.erase(seq);
  if (done) {
    done(false);
  }
}

void LinkLayer::send_ack(sim::NodeId to, std::uint8_t seq) {
  Writer w;
  AckPayload{seq}.write(w);
  stats_.acks_sent++;
  send_frame(to, sim::AmType::kAck, w.take());
}

bool* LinkLayer::find_duplicate(sim::NodeId from, std::uint8_t seq,
                                bool acked) {
  const sim::SimTime now = network_.simulator().now();
  const DedupEntry entry{from.value, seq, acked, now};
  const auto it = std::find_if(
      dedup_.begin(), dedup_.end(), [&entry](const DedupEntry& e) {
        return e.src == entry.src && e.seq == entry.seq;
      });
  if (it != dedup_.end()) {
    if (now - it->seen_at <= kDedupWindow) {
      it->seen_at = now;
      return &it->acked;
    }
    // Stale entry: the 8-bit sequence space wrapped. Treat as new.
    *it = entry;
    return nullptr;
  }
  if (dedup_.size() < kDedupCache) {
    dedup_.push_back(entry);
  } else if (!dedup_.empty()) {
    dedup_[dedup_next_] = entry;
    dedup_next_ = (dedup_next_ + 1) % dedup_.size();
  }
  return nullptr;
}

void LinkLayer::on_ack(const sim::Frame& frame) {
  Reader r(frame.payload);
  const AckPayload ack = AckPayload::read(r);
  if (!r.ok()) {
    return;
  }
  Pending* p = pending_.find(ack.acked_seq);
  if (p == nullptr || p->dst != frame.src) {
    return;  // stale or foreign ack
  }
  p->timer.cancel();
  auto done = std::move(p->done);
  pending_.erase(ack.acked_seq);
  if (done) {
    done(true);
  }
}

void LinkLayer::on_frame(const sim::Frame& frame) {
  if (frame.am == sim::AmType::kAck) {
    on_ack(frame);
    return;
  }
  Reader r(frame.payload);
  const LinkHeader header = LinkHeader::read(r);
  if (!r.ok()) {
    return;
  }
  std::span<const std::uint8_t> inner(
      frame.payload.data() + LinkHeader::kWireSize,
      frame.payload.size() - LinkHeader::kWireSize);
  if (header.has_piggyback) {
    if (inner.size() < BeaconPayload::kWireSize) {
      return;  // malformed: flagged but truncated
    }
    // Split off the trailing beacon and feed it to the neighbour table
    // first, so the frame's own handler sees the refreshed entry.
    const auto piggyback = inner.last(BeaconPayload::kWireSize);
    inner = inner.first(inner.size() - BeaconPayload::kWireSize);
    if (piggyback_sink_) {
      piggyback_sink_(frame.src, piggyback);
    }
  }
  if (!header.wants_ack) {
    handlers_.dispatch(frame.am, frame.src, inner);
    return;
  }

  // Acked path: duplicates are re-acked (if the original was accepted) but
  // not re-delivered; fresh frames are acked only when the handler accepts.
  if (bool* acked = find_duplicate(frame.src, header.seq, false);
      acked != nullptr) {
    stats_.duplicates_dropped++;
    if (*acked) {
      send_ack(frame.src, header.seq);
    }
    return;
  }
  const bool accepted = handlers_.dispatch(frame.am, frame.src, inner);
  if (accepted) {
    send_ack(frame.src, header.seq);
  }
  // Update the remembered entry's acked flag.
  if (bool* acked = find_duplicate(frame.src, header.seq, accepted);
      acked != nullptr) {
    *acked = accepted;
  }
}

}  // namespace agilla::net
