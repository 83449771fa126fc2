#include "svc/transport.h"

namespace agilla::svc {

Transport::~Transport() = default;

// ------------------------------------------------------------- loopback

LoopbackTransport::Client LoopbackTransport::connect() {
  const ConnId id = next_id_++;
  endpoints_.emplace(id, Endpoint{});
  pending_.push_back(TransportEvent{TransportEvent::Kind::kConnect, id, {}});
  return Client(this, id);
}

std::deque<TransportEvent> LoopbackTransport::poll() {
  // Hand over the whole queue: traffic enqueued while the caller handles
  // this batch (e.g. a test reacting synchronously) waits for the next
  // poll — the same one-batch-per-poll shape the TCP transport has.
  std::deque<TransportEvent> batch;
  batch.swap(pending_);
  return batch;
}

void LoopbackTransport::send(ConnId conn, const std::uint8_t* data,
                             std::size_t size) {
  const auto it = endpoints_.find(conn);
  if (it == endpoints_.end() || !it->second.open) {
    return;
  }
  it->second.to_client.insert(it->second.to_client.end(), data,
                              data + size);
}

void LoopbackTransport::close(ConnId conn) {
  const auto it = endpoints_.find(conn);
  if (it != endpoints_.end()) {
    it->second.open = false;
  }
}

void LoopbackTransport::Client::send(
    const std::vector<std::uint8_t>& bytes) {
  if (transport_ == nullptr || closed()) {
    return;
  }
  transport_->pending_.push_back(
      TransportEvent{TransportEvent::Kind::kData, id_, bytes});
}

std::vector<std::uint8_t> LoopbackTransport::Client::drain() {
  if (transport_ == nullptr) {
    return {};
  }
  const auto it = transport_->endpoints_.find(id_);
  if (it == transport_->endpoints_.end()) {
    return {};
  }
  return std::move(it->second.to_client);
}

void LoopbackTransport::Client::disconnect() {
  if (transport_ == nullptr || closed()) {
    return;
  }
  transport_->endpoints_[id_].open = false;
  transport_->pending_.push_back(
      TransportEvent{TransportEvent::Kind::kDisconnect, id_, {}});
}

bool LoopbackTransport::Client::closed() const {
  if (transport_ == nullptr) {
    return true;
  }
  const auto it = transport_->endpoints_.find(id_);
  return it == transport_->endpoints_.end() || !it->second.open;
}

}  // namespace agilla::svc
