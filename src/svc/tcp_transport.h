// Real TCP implementation of the transport seam: a listen socket plus a
// poll(2) loop on a dedicated I/O thread. The thread only moves bytes —
// accepted connections, read chunks, and EOFs are queued as events the
// simulation thread collects via poll(); outbound bytes are appended to
// per-connection write buffers under the same lock and flushed by the
// I/O thread. The service (and with it every mesh mutation) never runs
// off the simulation thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/transport.h"

namespace agilla::svc {

class TcpTransport final : public Transport {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port()
    int backlog = 128;
  };

  explicit TcpTransport(Options options);
  ~TcpTransport() override;

  /// Binds, listens, and starts the I/O thread. False (with *error set)
  /// on any socket failure.
  bool start(std::string* error);

  /// Stops the I/O thread and closes every socket. Idempotent.
  void stop();

  /// The bound port (resolves 0 to the kernel-chosen ephemeral port).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] std::deque<TransportEvent> poll() override;
  void send(ConnId conn, const std::uint8_t* data,
            std::size_t size) override;
  void close(ConnId conn) override;

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> write_buf;
    bool close_when_flushed = false;
  };

  void io_loop();
  void wake();

  Options options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread io_thread_;
  std::atomic<bool> running_{false};

  std::mutex mutex_;
  std::deque<TransportEvent> events_;
  std::unordered_map<ConnId, Conn> conns_;
  ConnId next_id_ = 1;
};

}  // namespace agilla::svc
