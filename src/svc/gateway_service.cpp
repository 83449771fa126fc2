#include "svc/gateway_service.h"

#include <cstdlib>
#include <utility>

#include "harness/json_writer.h"

namespace agilla::svc {
namespace {

/// SplitMix64 — the same mixer the simulator's RNG seeding uses; good
/// enough to make resume tokens non-guessable-by-accident while staying
/// a pure function of (deployment seed, token seed, session id).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool parse_token(const std::string& hex, std::uint64_t* out) {
  if (hex.empty() || hex.size() > 16) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(hex.c_str(), &end, 16);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = static_cast<std::uint64_t>(value);
  return true;
}

}  // namespace

GatewayService::GatewayService(api::Deployment& deployment,
                               Transport& transport, ServiceOptions options)
    : deployment_(deployment), transport_(transport), options_(options) {}

GatewayService::~GatewayService() = default;

std::uint64_t GatewayService::now() const {
  return static_cast<std::uint64_t>(deployment_.simulator().now());
}

std::uint64_t GatewayService::token_for(std::uint32_t session_id) const {
  return splitmix64(deployment_.options().seed ^ options_.token_seed ^
                    (0x5e55104eULL << 32) ^ session_id);
}

std::size_t GatewayService::bound_session_count() const {
  std::size_t n = 0;
  for (const auto& [id, session] : sessions_) {
    if (session->bound()) {
      ++n;
    }
  }
  return n;
}

void GatewayService::pump() {
  if (shut_down_) {
    return;
  }
  for (const TransportEvent& event : transport_.poll()) {
    switch (event.kind) {
      case TransportEvent::Kind::kConnect:
        on_connect(event.conn);
        break;
      case TransportEvent::Kind::kData:
        on_data(event.conn, event.bytes.data(), event.bytes.size());
        break;
      case TransportEvent::Kind::kDisconnect:
        on_disconnect(event.conn);
        break;
    }
  }
  flush();
}

void GatewayService::shutdown() {
  if (shut_down_) {
    return;
  }
  for (auto& [id, session] : sessions_) {
    if (session->bound()) {
      session->enqueue(wire::Message{wire::MsgType::kByeAck, 0, now(),
                                     "server shutdown"},
                       false);
    }
  }
  flush();
  for (auto& [conn, state] : conns_) {
    transport_.close(conn);
  }
  stats_.sessions_closed += sessions_.size();
  conns_.clear();
  sessions_by_token_.clear();
  sessions_.clear();  // console dtors unsubscribe from the bus
  shut_down_ = true;
}

void GatewayService::on_connect(ConnId conn) {
  ++stats_.connections;
  conns_[conn];  // default ConnState: fresh reader, no session
}

void GatewayService::on_data(ConnId conn, const std::uint8_t* data,
                             std::size_t size) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  stats_.bytes_in += size;
  it->second.reader.feed(data, size);
  // handle_message can erase the connection (protocol error, bye), so
  // re-find it every iteration instead of holding the iterator.
  for (;;) {
    it = conns_.find(conn);
    if (it == conns_.end()) {
      return;
    }
    wire::Message message;
    const auto status = it->second.reader.next(&message);
    if (status == wire::FrameReader::Status::kNeedMore) {
      return;
    }
    if (status == wire::FrameReader::Status::kError) {
      fail_conn(conn, 0, it->second.reader.error());
      return;
    }
    ++stats_.frames_in;
    handle_message(conn, it->second, std::move(message));
  }
}

void GatewayService::on_disconnect(ConnId conn) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  if (it->second.session != nullptr) {
    it->second.session->unbind();  // stays resumable by token
  }
  conns_.erase(it);
}

void GatewayService::handle_message(ConnId conn, ConnState& state,
                                    wire::Message message) {
  if (!wire::is_client_type(message.type)) {
    fail_conn(conn, message.request_id,
              std::string("unexpected message type ") +
                  wire::to_string(message.type));
    return;
  }
  if (message.type == wire::MsgType::kHello) {
    handle_hello(conn, state, message);
    return;
  }
  Session* session = state.session;
  if (session == nullptr) {
    fail_conn(conn, message.request_id, "hello required before " +
                                            std::string(wire::to_string(
                                                message.type)));
    return;
  }
  switch (message.type) {
    case wire::MsgType::kCommand: {
      ++stats_.commands;
      const std::string reply =
          session->console().execute(message.payload, message.request_id);
      session->enqueue(wire::Message{wire::MsgType::kReply,
                                     message.request_id, now(), reply},
                       false);
      break;
    }
    case wire::MsgType::kSubscribe: {
      ++stats_.subscribes;
      const std::string reply = session->console().execute(
          "subscribe " + message.payload, message.request_id);
      if (reply.rfind("ok", 0) == 0) {
        session->set_subscribe_id(message.payload, message.request_id);
      }
      session->enqueue(wire::Message{wire::MsgType::kReply,
                                     message.request_id, now(), reply},
                       false);
      break;
    }
    case wire::MsgType::kUnsubscribe: {
      const std::string line = message.payload.empty()
                                   ? std::string("unsubscribe")
                                   : "unsubscribe " + message.payload;
      const std::string reply =
          session->console().execute(line, message.request_id);
      if (reply.rfind("ok", 0) == 0) {
        if (message.payload.empty()) {
          session->clear_subscribe_ids();
        } else {
          session->clear_subscribe_id(message.payload);
        }
      }
      session->enqueue(wire::Message{wire::MsgType::kReply,
                                     message.request_id, now(), reply},
                       false);
      break;
    }
    case wire::MsgType::kPing: {
      ++stats_.pings;
      session->enqueue(
          wire::Message{wire::MsgType::kPong, message.request_id, now(),
                        "drops=" + std::to_string(session->events_dropped())},
          false);
      break;
    }
    case wire::MsgType::kBye: {
      session->enqueue(wire::Message{wire::MsgType::kByeAck,
                                     message.request_id, now(), "bye"},
                       false);
      // Flush this session's backlog (byeack last), then close.
      while (!session->outbox().empty()) {
        send_now(conn, session->outbox().front());
        session->outbox().pop_front();
      }
      transport_.close(conn);
      state.session = nullptr;
      conns_.erase(conn);
      close_session(session);
      break;
    }
    default:
      fail_conn(conn, message.request_id, "unhandled message type");
      break;
  }
}

void GatewayService::handle_hello(ConnId conn, ConnState& state,
                                  const wire::Message& message) {
  if (state.session != nullptr) {
    fail_conn(conn, message.request_id, "hello on a bound connection");
    return;
  }
  if (!message.payload.empty()) {
    // Resume: payload is the hex token welcome handed out.
    std::uint64_t token = 0;
    if (!parse_token(message.payload, &token)) {
      ++stats_.resume_failures;
      fail_conn(conn, message.request_id, "malformed session token");
      return;
    }
    const auto it = sessions_by_token_.find(token);
    if (it == sessions_by_token_.end()) {
      ++stats_.resume_failures;
      fail_conn(conn, message.request_id, "unknown session token");
      return;
    }
    Session& session = *sessions_.at(it->second);
    if (session.bound()) {
      ++stats_.resume_failures;
      fail_conn(conn, message.request_id, "session already bound");
      return;
    }
    session.bind(conn);
    state.session = &session;
    ++stats_.sessions_resumed;
    // Straight to the wire, not the outbox: the backlog queued while the
    // session was unbound flushes right after, and the welcome must
    // precede it so the client knows the resume took before replaying.
    send_now(conn, wire::Message{wire::MsgType::kWelcome, message.request_id,
                                 now(),
                                 "session=" + std::to_string(session.id()) +
                                     " token=" + session.token_hex() +
                                     " resumed=1"});
    return;
  }
  if (sessions_.size() >= options_.max_sessions) {
    ++stats_.sessions_rejected;
    send_now(conn, wire::Message{wire::MsgType::kError, message.request_id,
                                 now(), "session limit reached"});
    transport_.close(conn);
    conns_.erase(conn);
    return;
  }
  const std::uint32_t id = next_session_id_++;
  const std::uint64_t token = token_for(id);
  auto owned = std::make_unique<Session>(id, token, deployment_.base(),
                                         options_.queue_cap);
  Session* session = owned.get();
  session->console().attach_bus(deployment_.bus());
  session->console().set_async_sink(
      [this, session](std::uint64_t cmd_id, bool ok, const std::string& text) {
        ++stats_.async_results;
        session->enqueue(wire::Message{wire::MsgType::kAsyncResult,
                                       static_cast<std::uint32_t>(cmd_id),
                                       now(), (ok ? "ok " : "err ") + text},
                         false);
      });
  session->console().set_event_sink(
      [this, session](const std::string& kind, const std::string& text,
                      sim::SimTime at) {
        wire::Message event{wire::MsgType::kEvent,
                            session->subscribe_id(kind), at,
                            kind + " " + text};
        if (session->enqueue(std::move(event), /*droppable=*/true)) {
          ++stats_.events_sent;
        } else {
          ++stats_.events_dropped;
        }
      });
  session->bind(conn);
  state.session = session;
  sessions_by_token_[token] = id;
  sessions_.emplace(id, std::move(owned));
  ++stats_.sessions_opened;
  session->enqueue(
      wire::Message{wire::MsgType::kWelcome, message.request_id, now(),
                    "session=" + std::to_string(id) +
                        " token=" + session->token_hex() + " resumed=0"},
      false);
}

void GatewayService::fail_conn(ConnId conn, std::uint32_t request_id,
                               const std::string& text) {
  ++stats_.protocol_errors;
  send_now(conn, wire::Message{wire::MsgType::kError, request_id, now(),
                               "error: " + text});
  transport_.close(conn);
  const auto it = conns_.find(conn);
  if (it != conns_.end()) {
    if (it->second.session != nullptr) {
      it->second.session->unbind();  // resumable despite the error
    }
    conns_.erase(it);
  }
}

void GatewayService::close_session(Session* session) {
  sessions_by_token_.erase(session->token());
  sessions_.erase(session->id());  // console dtor unsubscribes the bus
  ++stats_.sessions_closed;
}

void GatewayService::flush() {
  for (auto& [id, session] : sessions_) {
    if (!session->bound()) {
      continue;  // backlog waits for a resume
    }
    while (!session->outbox().empty()) {
      send_now(session->conn(), session->outbox().front());
      session->outbox().pop_front();
    }
  }
}

void GatewayService::send_now(ConnId conn, const wire::Message& message) {
  const std::vector<std::uint8_t> bytes = wire::encode(message);
  ++stats_.frames_out;
  stats_.bytes_out += bytes.size();
  transport_.send(conn, bytes.data(), bytes.size());
}

std::string GatewayService::metrics_json() const {
  harness::JsonWriter json(2);
  json.begin_object();
  json.key("vtime_us").value(now());
  json.key("sessions_live").value(
      static_cast<std::uint64_t>(sessions_.size()));
  json.key("sessions_bound").value(
      static_cast<std::uint64_t>(bound_session_count()));
  json.key("connections").value(stats_.connections);
  json.key("sessions_opened").value(stats_.sessions_opened);
  json.key("sessions_resumed").value(stats_.sessions_resumed);
  json.key("sessions_closed").value(stats_.sessions_closed);
  json.key("sessions_rejected").value(stats_.sessions_rejected);
  json.key("resume_failures").value(stats_.resume_failures);
  json.key("frames_in").value(stats_.frames_in);
  json.key("frames_out").value(stats_.frames_out);
  json.key("bytes_in").value(stats_.bytes_in);
  json.key("bytes_out").value(stats_.bytes_out);
  json.key("commands").value(stats_.commands);
  json.key("subscribes").value(stats_.subscribes);
  json.key("pings").value(stats_.pings);
  json.key("async_results").value(stats_.async_results);
  json.key("events_sent").value(stats_.events_sent);
  json.key("events_dropped").value(stats_.events_dropped);
  json.key("protocol_errors").value(stats_.protocol_errors);
  json.end_object();
  return json.str();
}

}  // namespace agilla::svc
