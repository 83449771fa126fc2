// The transport seam of the gateway service: how client byte streams
// reach the (single-threaded) service and how encoded responses travel
// back. Two implementations:
//
//   - LoopbackTransport (here): a deterministic in-process pipe pair per
//     client. No sockets, no threads — every test, the loadgen's
//     deterministic mode, and every CI determinism gate run on it.
//   - TcpTransport (svc/tcp_transport.h): a real poll()-driven TCP
//     server on its own thread.
//
// Threading contract (DESIGN.md "Gateway service"): poll() is only ever
// called from the simulation thread, and it is the ONLY way connect /
// data / disconnect reach the service — a threaded transport merely
// queues events; it never calls into the service. send()/close() are
// called from the simulation thread too; a threaded transport hands the
// bytes to its I/O thread under its own lock. The sim thread therefore
// stays the sole mutator of all session and mesh state.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace agilla::svc {

using ConnId = std::uint64_t;

/// One connection event, queued by a transport until the service polls.
struct TransportEvent {
  enum class Kind : std::uint8_t { kConnect, kData, kDisconnect };
  Kind kind = Kind::kConnect;
  ConnId conn = 0;
  std::vector<std::uint8_t> bytes;  ///< kData only
};

class Transport {
 public:
  virtual ~Transport();

  /// Hands over every queued connect/data/disconnect event, in arrival
  /// order, on the calling (simulation) thread. Traffic that arrives
  /// while the caller handles the batch waits for the next poll().
  /// A deque, not a vector: with vector queues the 1,000-client
  /// bench/suite gateway_1k run peaked 0.24 MiB higher.
  [[nodiscard]] virtual std::deque<TransportEvent> poll() = 0;

  /// Queues bytes toward the client. No-op on a closed connection.
  virtual void send(ConnId conn, const std::uint8_t* data,
                    std::size_t size) = 0;

  /// Server-side close. The peer sees EOF; no disconnect event is
  /// delivered back to the service (it initiated the close).
  virtual void close(ConnId conn) = 0;
};

/// Deterministic in-process transport. The driving thread plays both
/// sides: client handles push bytes in, poll() hands them to the
/// service, the service's send() lands in the client's inbox, and the
/// client drains it — all in program order, so a fixed client script
/// yields byte-identical transcripts on every run.
class LoopbackTransport final : public Transport {
 public:
  /// Lightweight client endpoint handle (copyable; the transport owns
  /// the state and must outlive every handle).
  class Client {
   public:
    Client() = default;

    void send(const std::vector<std::uint8_t>& bytes);
    /// Moves out everything the server has sent since the last drain.
    [[nodiscard]] std::vector<std::uint8_t> drain();
    /// Client-initiated disconnect (the session stays resumable).
    void disconnect();
    [[nodiscard]] bool closed() const;
    [[nodiscard]] ConnId id() const { return id_; }

   private:
    friend class LoopbackTransport;
    Client(LoopbackTransport* transport, ConnId id)
        : transport_(transport), id_(id) {}

    LoopbackTransport* transport_ = nullptr;
    ConnId id_ = 0;
  };

  /// Opens a new connection; the service learns of it at the next poll().
  [[nodiscard]] Client connect();

  [[nodiscard]] std::deque<TransportEvent> poll() override;
  void send(ConnId conn, const std::uint8_t* data,
            std::size_t size) override;
  void close(ConnId conn) override;

 private:
  struct Endpoint {
    std::vector<std::uint8_t> to_client;  ///< server -> client inbox
    bool open = true;
  };

  std::unordered_map<ConnId, Endpoint> endpoints_;
  std::deque<TransportEvent> pending_;
  ConnId next_id_ = 1;
};

}  // namespace agilla::svc
