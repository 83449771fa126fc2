// Per-client session state of the gateway service: its own
// GatewayConsole (so command ids and subscriptions are per-client), a
// bounded outbound queue with explicit drop accounting, and a resume
// token that survives disconnects — a client that reconnects with the
// token picks its queued backlog back up.
//
// Backpressure policy: streamed events are droppable (a slow client
// loses events, counted per session and service-wide), correlated
// responses — welcome, replies, async results, pong, byeack — are not
// (the queue may exceed its cap by control traffic, which is bounded by
// the client's own outstanding requests).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "core/gateway.h"
#include "svc/transport.h"
#include "svc/wire.h"

namespace agilla::svc {

class Session {
 public:
  Session(std::uint32_t id, std::uint64_t token, core::BaseStation base,
          std::size_t queue_cap);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] std::uint64_t token() const { return token_; }
  [[nodiscard]] std::string token_hex() const;

  [[nodiscard]] core::GatewayConsole& console() { return console_; }

  // ------------------------------------------------------------ binding
  [[nodiscard]] bool bound() const { return bound_; }
  [[nodiscard]] ConnId conn() const { return conn_; }
  void bind(ConnId conn) {
    bound_ = true;
    conn_ = conn;
  }
  void unbind() { bound_ = false; }

  // ------------------------------------------------------ outbound queue
  /// Queues one response frame. Droppable messages (events) are refused
  /// once the queue is at capacity — the drop is counted and false
  /// returned; control messages always enqueue.
  bool enqueue(wire::Message message, bool droppable);

  [[nodiscard]] std::deque<wire::Message>& outbox() { return outbox_; }
  [[nodiscard]] std::size_t queue_cap() const { return queue_cap_; }

  // ------------------------------------------- subscription correlation
  /// Remembers which subscribe request opened the stream for `kind`, so
  /// kEvent frames can echo that id.
  void set_subscribe_id(const std::string& kind, std::uint32_t id) {
    subscribe_ids_[kind] = id;
  }
  void clear_subscribe_id(const std::string& kind) {
    subscribe_ids_.erase(kind);
  }
  void clear_subscribe_ids() { subscribe_ids_.clear(); }
  [[nodiscard]] std::uint32_t subscribe_id(const std::string& kind) const {
    const auto it = subscribe_ids_.find(kind);
    return it == subscribe_ids_.end() ? 0 : it->second;
  }

  /// Events this session refused at capacity (what `pong` reports).
  [[nodiscard]] std::uint64_t events_dropped() const {
    return events_dropped_;
  }

 private:
  std::uint32_t id_;
  std::uint64_t token_;
  /// Value-semantic handle onto the gateway mote; the console references
  /// it, so it must be declared first.
  core::BaseStation base_;
  core::GatewayConsole console_;
  std::deque<wire::Message> outbox_;
  std::size_t queue_cap_;
  std::map<std::string, std::uint32_t> subscribe_ids_;
  bool bound_ = false;
  ConnId conn_ = 0;
  std::uint64_t events_dropped_ = 0;
};

}  // namespace agilla::svc
