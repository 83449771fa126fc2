// GatewayService — the networked front of the paper's base-station
// gateway (Sec. 3.1's "RMI server that allows anyone on the Internet to
// remotely access the sensor network"), rebuilt on the deterministic
// simulation: a session multiplexer that speaks the svc::wire protocol
// over any Transport and drives an api::Deployment through per-session
// GatewayConsoles.
//
// Threading contract: the service runs entirely on the simulation
// thread. pump() — transport poll, message handling, outbox flush — is
// the only entry point, and the embedder calls it between run_for()
// slices. Transports may move bytes on their own threads, but every
// mesh mutation (inject, rout, subscribe) happens here, on the sim
// thread, keeping the determinism contract intact.
//
// Protocol (wire.h has the frame layout):
//   client: hello [token]   -> welcome "session=<id> token=<hex>
//                               resumed=<0|1>" | error (fatal)
//           command <line>  -> reply <text>, later asyncresult for
//                               remote ops (id = the command frame's id)
//           subscribe <kind>   -> reply, then event frames (id = the
//                               subscribe frame's id) until unsubscribe
//           unsubscribe [<kind>] -> reply
//           ping            -> pong "drops=<n>" (liveness + drop probe)
//           bye             -> byeack, connection closed, session freed
// Any malformed frame or out-of-protocol message is connection-fatal:
// error frame, close. The session (if any) stays resumable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "api/deployment.h"
#include "svc/session.h"
#include "svc/transport.h"
#include "svc/wire.h"

namespace agilla::svc {

struct ServiceOptions {
  std::size_t max_sessions = 1024;
  /// Per-session outbound queue cap (droppable events beyond it are
  /// counted and discarded).
  std::size_t queue_cap = 1024;
  /// Mixed into the deployment seed to derive session resume tokens
  /// deterministically.
  std::uint64_t token_seed = 0;
};

struct ServiceStats {
  std::uint64_t connections = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_resumed = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t resume_failures = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t commands = 0;
  std::uint64_t subscribes = 0;
  std::uint64_t pings = 0;
  std::uint64_t async_results = 0;
  std::uint64_t events_sent = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t protocol_errors = 0;
};

class GatewayService {
 public:
  GatewayService(api::Deployment& deployment, Transport& transport,
                 ServiceOptions options = {});
  ~GatewayService();

  GatewayService(const GatewayService&) = delete;
  GatewayService& operator=(const GatewayService&) = delete;

  /// One service turn, on the simulation thread: collect transport
  /// events, handle every complete frame, flush session outboxes.
  void pump();

  /// Graceful drain: byeack to every live connection, flush, close,
  /// free all sessions. pump() becomes a no-op afterwards.
  void shutdown();

  [[nodiscard]] const ServiceStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t session_count() const {
    return sessions_.size();
  }
  [[nodiscard]] std::size_t bound_session_count() const;

  /// Deterministic metrics snapshot (stable key order, virtual-time
  /// stamped) — what gatewayd flushes on shutdown.
  [[nodiscard]] std::string metrics_json() const;

 private:
  struct ConnState {
    wire::FrameReader reader;
    Session* session = nullptr;  ///< null until hello
  };

  void on_connect(ConnId conn);
  void on_data(ConnId conn, const std::uint8_t* data, std::size_t size);
  void on_disconnect(ConnId conn);
  void handle_message(ConnId conn, ConnState& state, wire::Message message);
  void handle_hello(ConnId conn, ConnState& state,
                    const wire::Message& message);
  /// Connection-fatal: counts, sends an error frame, closes.
  void fail_conn(ConnId conn, std::uint32_t request_id,
                 const std::string& text);
  void close_session(Session* session);
  void flush();
  /// Encodes and hands one frame to the transport immediately.
  void send_now(ConnId conn, const wire::Message& message);
  [[nodiscard]] std::uint64_t token_for(std::uint32_t session_id) const;
  [[nodiscard]] std::uint64_t now() const;

  api::Deployment& deployment_;
  Transport& transport_;
  ServiceOptions options_;
  std::map<ConnId, ConnState> conns_;
  /// Keyed by session id — ordered, so flush order is deterministic.
  std::map<std::uint32_t, std::unique_ptr<Session>> sessions_;
  std::map<std::uint64_t, std::uint32_t> sessions_by_token_;
  std::uint32_t next_session_id_ = 1;
  ServiceStats stats_;
  bool shut_down_ = false;
};

}  // namespace agilla::svc
