#include "core/remote_ts.h"

#include <cassert>
#include <utility>

#include "net/packet.h"

namespace agilla::core {
namespace {

// Request payload:  request_id(2) op(1) tuple-or-template
// Reply payload:    request_id(2) status(1) [tuple]
constexpr std::uint8_t kStatusFail = 0;
constexpr std::uint8_t kStatusOk = 1;
// Both carry at most one tuple or template, so every request and reply
// fits one geo-routed frame.
static_assert(3 + ts::kMaxTupleWireBytes <= net::GeoRouter::kMaxInnerBytes);

}  // namespace

const char* to_string(RemoteOp op) {
  switch (op) {
    case RemoteOp::kOut:
      return "rout";
    case RemoteOp::kInp:
      return "rinp";
    case RemoteOp::kRdp:
      return "rrdp";
  }
  return "unknown";
}

RemoteTsManager::RemoteTsManager(sim::Simulator& sim, net::GeoRouter& router,
                                 ts::TupleSpace& local, sim::Location self,
                                 Options options)
    : sim_(sim),
      router_(router),
      local_(local),
      self_(self),
      options_(options) {}

std::uint64_t RemoteTsManager::replay_key(sim::Location origin,
                                          std::uint16_t request_id) {
  const auto x =
      static_cast<std::uint16_t>(net::encode_coordinate(origin.x));
  const auto y =
      static_cast<std::uint16_t>(net::encode_coordinate(origin.y));
  return (static_cast<std::uint64_t>(x) << 32) |
         (static_cast<std::uint64_t>(y) << 16) | request_id;
}

void RemoteTsManager::request_out(sim::Location dest, const ts::Tuple& tuple,
                                  Completion done) {
  const std::uint16_t id = next_request_id_++;
  net::Writer w;
  w.u16(id);
  w.u8(static_cast<std::uint8_t>(RemoteOp::kOut));
  tuple.encode(w);
  dispatch(id, dest, w.payload(), std::move(done));
}

void RemoteTsManager::request_probe(RemoteOp op, sim::Location dest,
                                    const ts::Template& templ,
                                    Completion done) {
  assert(op == RemoteOp::kInp || op == RemoteOp::kRdp);
  const std::uint16_t id = next_request_id_++;
  net::Writer w;
  w.u16(id);
  w.u8(static_cast<std::uint8_t>(op));
  templ.encode(w);
  dispatch(id, dest, w.payload(), std::move(done));
}

void RemoteTsManager::dispatch(std::uint16_t request_id, sim::Location dest,
                               const sim::FramePayload& request,
                               Completion done) {
  Pending pending;
  pending.dest = dest;
  pending.request = request;
  pending.done = std::move(done);
  pending_[request_id] = std::move(pending);
  stats_.requests_sent++;
  transmit(request_id);
}

void RemoteTsManager::transmit(std::uint16_t request_id) {
  auto it = pending_.find(request_id);
  assert(it != pending_.end());
  Pending& p = it->second;
  // Arm the reply timer BEFORE sending: a request addressed to this very
  // node is served by the geo router's synchronous local delivery, so the
  // reply handler can erase the pending entry (cancelling this timer)
  // inside send() — `p` must not be touched once send() returns.
  p.timer = sim_.schedule_in(options_.reply_timeout,
                             [this, request_id] { on_timeout(request_id); });
  router_.send(p.dest, sim::kAddressEpsilon, sim::AmType::kTsRequest,
               p.request, self_);
}

void RemoteTsManager::on_timeout(std::uint16_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;
  }
  Pending& p = it->second;
  if (p.attempts <= kMaxRetries) {
    p.attempts++;
    stats_.retransmissions++;
    transmit(request_id);
    return;
  }
  stats_.timeouts++;
  auto done = std::move(p.done);
  pending_.erase(it);
  if (done) {
    done(false, std::nullopt);
  }
}

void RemoteTsManager::on_request(const net::GeoHeader& header,
                                 std::span<const std::uint8_t> payload) {
  net::Reader r(payload);
  const std::uint16_t request_id = r.u16();
  const auto op = static_cast<RemoteOp>(r.u8());
  if (!r.ok()) {
    return;
  }

  // Serve retransmitted requests from the replay cache so destructive ops
  // stay effectively-once.
  const std::uint64_t key = replay_key(header.origin, request_id);
  for (const CachedReply& cached : replay_) {
    if (cached.key == key) {
      router_.send(header.origin, sim::kAddressEpsilon, sim::AmType::kTsReply,
                   cached.reply, self_);
      return;
    }
  }

  net::Writer reply;
  reply.u16(request_id);
  switch (op) {
    case RemoteOp::kOut: {
      const auto tuple = ts::Tuple::decode(r);
      const bool ok = tuple.has_value() && local_.out(*tuple);
      reply.u8(ok ? kStatusOk : kStatusFail);
      break;
    }
    case RemoteOp::kInp:
    case RemoteOp::kRdp: {
      const auto templ = ts::Template::decode(r);
      std::optional<ts::Tuple> found;
      if (templ.has_value()) {
        // Compile the just-decoded template once before probing the store.
        const ts::CompiledTemplate compiled(*templ);
        found = (op == RemoteOp::kInp) ? local_.inp(compiled)
                                       : local_.rdp(compiled);
      }
      if (found.has_value()) {
        reply.u8(kStatusOk);
        found->encode(reply);
      } else {
        reply.u8(kStatusFail);
      }
      break;
    }
    default:
      return;
  }

  stats_.requests_served++;
  replay_.push_back(CachedReply{key, reply.payload()});
  while (replay_.size() > kReplayCache) {
    replay_.pop_front();
  }
  router_.send(header.origin, sim::kAddressEpsilon, sim::AmType::kTsReply,
               reply.payload(), self_);
}

void RemoteTsManager::on_reply(const net::GeoHeader& /*header*/,
                               std::span<const std::uint8_t> payload) {
  net::Reader r(payload);
  const std::uint16_t request_id = r.u16();
  const std::uint8_t status = r.u8();
  if (!r.ok()) {
    return;
  }
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;  // duplicate or stale reply
  }
  std::optional<ts::Tuple> result;
  if (status == kStatusOk && r.remaining() > 0) {
    result = ts::Tuple::decode(r);
  }
  it->second.timer.cancel();
  auto done = std::move(it->second.done);
  pending_.erase(it);
  stats_.completions++;
  if (done) {
    done(status == kStatusOk, std::move(result));
  }
}

}  // namespace agilla::core
