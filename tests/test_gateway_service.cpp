// The gateway service subsystem (src/svc/): wire codec hardening,
// session lifecycle (backpressure, token resume), and deterministic
// multi-client end-to-end runs over the loopback transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "api/deployment.h"
#include "svc/gateway_service.h"
#include "svc/transport.h"
#include "svc/wire.h"

namespace agilla::svc {
namespace {

// ------------------------------------------------------------ wire codec

std::vector<wire::Message> decode_all(const std::vector<std::uint8_t>& bytes,
                                      bool* error = nullptr) {
  wire::FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  std::vector<wire::Message> messages;
  for (;;) {
    wire::Message m;
    const auto status = reader.next(&m);
    if (status == wire::FrameReader::Status::kMessage) {
      messages.push_back(std::move(m));
      continue;
    }
    if (error != nullptr) {
      *error = status == wire::FrameReader::Status::kError;
    }
    return messages;
  }
}

TEST(WireCodec, RoundTripsEveryMessageType) {
  const wire::MsgType kTypes[] = {
      wire::MsgType::kHello,       wire::MsgType::kCommand,
      wire::MsgType::kSubscribe,   wire::MsgType::kUnsubscribe,
      wire::MsgType::kPing,        wire::MsgType::kBye,
      wire::MsgType::kWelcome,     wire::MsgType::kReply,
      wire::MsgType::kAsyncResult, wire::MsgType::kEvent,
      wire::MsgType::kError,       wire::MsgType::kPong,
      wire::MsgType::kByeAck,
  };
  std::vector<std::uint8_t> stream;
  std::uint32_t id = 100;
  for (const auto type : kTypes) {
    const wire::Message m{type, id, 77'000'000 + id,
                          "payload for " + std::string(wire::to_string(type))};
    const auto bytes = wire::encode(m);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    ++id;
  }
  bool error = false;
  const auto decoded = decode_all(stream, &error);
  EXPECT_FALSE(error);
  ASSERT_EQ(decoded.size(), std::size(kTypes));
  id = 100;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].type, kTypes[i]);
    EXPECT_EQ(decoded[i].request_id, id);
    EXPECT_EQ(decoded[i].vtime, 77'000'000ull + id);
    EXPECT_EQ(decoded[i].payload,
              "payload for " + std::string(wire::to_string(kTypes[i])));
    ++id;
  }
}

TEST(WireCodec, EmptyPayloadAndChunkedDelivery) {
  const auto bytes =
      wire::encode(wire::Message{wire::MsgType::kPing, 9, 0, ""});
  // Feed one byte at a time: every prefix must be kNeedMore, never an
  // error, and the message must pop out exactly once at the end.
  wire::FrameReader reader;
  wire::Message m;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    reader.feed(&bytes[i], 1);
    EXPECT_EQ(reader.next(&m), wire::FrameReader::Status::kNeedMore)
        << "prefix length " << (i + 1);
  }
  reader.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(reader.next(&m), wire::FrameReader::Status::kMessage);
  EXPECT_EQ(m.type, wire::MsgType::kPing);
  EXPECT_TRUE(m.payload.empty());
  EXPECT_EQ(reader.next(&m), wire::FrameReader::Status::kNeedMore);
}

TEST(WireCodec, TruncationFuzzNeverErrsOrFabricates) {
  const auto bytes = wire::encode(wire::Message{
      wire::MsgType::kCommand, 7, 123456, "rout 3 1 str:cmd num:7"});
  // Every strict prefix of a valid frame is incomplete, not malformed.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    wire::FrameReader reader;
    reader.feed(bytes.data(), cut);
    wire::Message m;
    EXPECT_EQ(reader.next(&m), wire::FrameReader::Status::kNeedMore)
        << "truncated at " << cut;
  }
}

TEST(WireCodec, MutationFuzzRejectsCorruptHeaders) {
  const auto pristine = wire::encode(wire::Message{
      wire::MsgType::kCommand, 7, 123456, "status"});
  // Flip every byte of the length prefix and header through all 255
  // wrong values: the reader must either reject the frame or (for bytes
  // that only change id/vtime/payload) still produce exactly one
  // message — it must never crash, hang, or over-read.
  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < wire::kHeaderBytes + 4; ++pos) {
    for (int delta = 1; delta < 256; ++delta) {
      auto bytes = pristine;
      bytes[pos] = static_cast<std::uint8_t>(bytes[pos] + delta);
      wire::FrameReader reader;
      reader.feed(bytes.data(), bytes.size());
      wire::Message m;
      const auto status = reader.next(&m);
      if (status == wire::FrameReader::Status::kError) {
        ++rejected;
        // A poisoned reader stays poisoned even with more input.
        reader.feed(pristine.data(), pristine.size());
        EXPECT_EQ(reader.next(&m), wire::FrameReader::Status::kError);
      }
    }
  }
  // Magic (2 bytes), version, and type corruptions must all reject:
  // 255 wrong values each for 4 single-byte fields is the floor.
  EXPECT_GE(rejected, 4u * 255u - 30u);

  // Oversize declared length is rejected outright, not buffered.
  auto oversize = pristine;
  const std::uint32_t bad_len = wire::kHeaderBytes + wire::kMaxPayload + 1;
  oversize[0] = static_cast<std::uint8_t>(bad_len);
  oversize[1] = static_cast<std::uint8_t>(bad_len >> 8);
  oversize[2] = static_cast<std::uint8_t>(bad_len >> 16);
  oversize[3] = static_cast<std::uint8_t>(bad_len >> 24);
  wire::FrameReader reader;
  reader.feed(oversize.data(), oversize.size());
  wire::Message m;
  EXPECT_EQ(reader.next(&m), wire::FrameReader::Status::kError);
  EXPECT_FALSE(reader.error().empty());
}

// ------------------------------------------------- service over loopback

sim::Event settle(sim::SimTime at) {
  return sim::Event(sim::EventKind::kBatterySettle, at);
}

/// A deployment + loopback transport + service, plus a protocol-speaking
/// test client: send typed requests, pump, and collect typed responses.
/// A `width` x 3 mesh; 4 columns give each of 4 shards its own strip.
api::SimulationBuilder grid(std::size_t width, std::uint64_t seed = 1,
                            std::size_t shards = 1) {
  api::SimulationBuilder builder;
  builder.grid(width, 3).seed(seed);
  builder.set("sim_shards", static_cast<double>(shards));
  return builder;
}

struct ServiceFixture {
  explicit ServiceFixture(ServiceOptions options = {},
                          const api::SimulationBuilder& mesh = grid(3))
      : deployment(mesh.build()), service(*deployment, transport, options) {}

  struct TestClient {
    LoopbackTransport::Client io;
    wire::FrameReader reader;
    std::vector<wire::Message> inbox;
    std::uint32_t next_id = 1;
  };

  TestClient connect() { return TestClient{transport.connect(), {}, {}, 1}; }

  void send(TestClient& client, wire::MsgType type,
            const std::string& payload) {
    client.io.send(wire::encode(
        wire::Message{type, client.next_id++, 0, payload}));
  }

  /// Pumps the service and drains the client; returns frames received
  /// this round (they are also appended to the client's inbox).
  std::vector<wire::Message> exchange(TestClient& client) {
    service.pump();
    const auto bytes = client.io.drain();
    client.reader.feed(bytes.data(), bytes.size());
    std::vector<wire::Message> fresh;
    wire::Message m;
    while (client.reader.next(&m) == wire::FrameReader::Status::kMessage) {
      fresh.push_back(m);
      client.inbox.push_back(std::move(m));
    }
    return fresh;
  }

  std::unique_ptr<api::Deployment> deployment;
  LoopbackTransport transport;
  GatewayService service;
};

TEST(GatewayService, HelloOpensSessionAndCommandsWork) {
  ServiceFixture f;
  auto client = f.connect();
  f.send(client, wire::MsgType::kHello, "");
  auto frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kWelcome);
  EXPECT_NE(frames[0].payload.find("session=1"), std::string::npos);
  EXPECT_NE(frames[0].payload.find("resumed=0"), std::string::npos);
  EXPECT_NE(frames[0].payload.find("token="), std::string::npos);

  f.send(client, wire::MsgType::kCommand, "status");
  frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kReply);
  EXPECT_EQ(frames[0].request_id, 2u);
  EXPECT_NE(frames[0].payload.find("agents"), std::string::npos);

  f.send(client, wire::MsgType::kPing, "");
  frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kPong);
  EXPECT_EQ(frames[0].payload, "drops=0");

  f.send(client, wire::MsgType::kBye, "");
  frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kByeAck);
  EXPECT_EQ(f.service.session_count(), 0u);
  EXPECT_EQ(f.service.stats().sessions_closed, 1u);
}

TEST(GatewayService, CommandBeforeHelloIsConnectionFatal) {
  ServiceFixture f;
  auto client = f.connect();
  f.send(client, wire::MsgType::kCommand, "status");
  const auto frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kError);
  EXPECT_NE(frames[0].payload.find("hello required"), std::string::npos);
  EXPECT_TRUE(client.io.closed());
  EXPECT_EQ(f.service.stats().protocol_errors, 1u);
}

TEST(GatewayService, MalformedBytesAreConnectionFatal) {
  ServiceFixture f;
  auto client = f.connect();
  // A complete 16-byte frame (empty payload) whose magic is wrong.
  std::vector<std::uint8_t> garbage(4 + wire::kHeaderBytes, 0x00);
  garbage[0] = 0x10;
  garbage[4] = 'X';
  garbage[5] = 'Y';
  client.io.send(garbage);
  const auto frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kError);
  EXPECT_TRUE(client.io.closed());
  EXPECT_EQ(f.service.stats().protocol_errors, 1u);
}

TEST(GatewayService, RemoteOpDeliversAsyncResultWithCommandId) {
  ServiceFixture f;
  auto client = f.connect();
  f.send(client, wire::MsgType::kHello, "");
  f.exchange(client);
  f.send(client, wire::MsgType::kCommand, "rout 2 1 str:cmd num:7");
  auto frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kReply);
  EXPECT_NE(frames[0].payload.find("dispatched"), std::string::npos);
  const std::uint32_t cmd_id = frames[0].request_id;

  // Drive the mesh until the remote op completes and lands on the wire.
  wire::Message async{};
  for (int i = 0; i < 200 && async.type != wire::MsgType::kAsyncResult;
       ++i) {
    f.deployment->run_for(50 * sim::kMillisecond);
    for (const auto& m : f.exchange(client)) {
      if (m.type == wire::MsgType::kAsyncResult) {
        async = m;
      }
    }
  }
  ASSERT_EQ(async.type, wire::MsgType::kAsyncResult);
  EXPECT_EQ(async.request_id, cmd_id);
  EXPECT_EQ(async.payload.rfind("ok ", 0), 0u) << async.payload;
  EXPECT_GT(async.vtime, 0u);
}

TEST(GatewayService, SubscribeStreamsEventsWithSubscribeId) {
  ServiceFixture f;
  auto client = f.connect();
  f.send(client, wire::MsgType::kHello, "");
  f.exchange(client);
  f.send(client, wire::MsgType::kSubscribe, "tuple");
  auto frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kReply);
  EXPECT_NE(frames[0].payload.find("ok"), std::string::npos);
  const std::uint32_t sub_id = frames[0].request_id;

  // A tuple op anywhere in the mesh reaches the subscribed session.
  sim::Event tuple_op(sim::EventKind::kTupleOp, 5, sim::NodeId{4});
  net::Writer w;
  ts::Tuple{ts::Value::number(3)}.encode(w);
  tuple_op.tuple_len = static_cast<std::uint8_t>(w.size());
  std::copy(w.data().begin(), w.data().end(), tuple_op.tuple.begin());
  f.deployment->bus().publish(tuple_op);
  frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kEvent);
  EXPECT_EQ(frames[0].request_id, sub_id);
  EXPECT_EQ(frames[0].payload, "tuple out t=5 node=4 <3>");
  EXPECT_EQ(frames[0].vtime, 5u) << "events carry the record's time";

  f.send(client, wire::MsgType::kUnsubscribe, "tuple");
  frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  tuple_op.at = 9;
  f.deployment->bus().publish(tuple_op);
  EXPECT_TRUE(f.exchange(client).empty());
}

TEST(GatewayService, BackpressureDropsEventsNeverReplies) {
  ServiceOptions options;
  options.queue_cap = 4;
  ServiceFixture f(options);
  auto client = f.connect();
  f.send(client, wire::MsgType::kHello, "");
  f.exchange(client);
  f.send(client, wire::MsgType::kSubscribe, "battery");
  f.exchange(client);

  // Flood 32 events without letting the service flush in between: the
  // outbox caps at 4; the rest are counted drops, not errors.
  for (std::uint64_t i = 0; i < 32; ++i) {
    f.deployment->bus().publish(settle(i));
  }
  const auto frames = f.exchange(client);
  EXPECT_EQ(frames.size(), 4u);
  for (const auto& m : frames) {
    EXPECT_EQ(m.type, wire::MsgType::kEvent);
  }
  EXPECT_EQ(f.service.stats().events_dropped, 28u);

  // Control traffic is exempt from the cap: a ping still answers (and
  // reports the session's drop count to the client).
  f.send(client, wire::MsgType::kPing, "");
  const auto pong = f.exchange(client);
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0].type, wire::MsgType::kPong);
  EXPECT_EQ(pong[0].payload, "drops=28");
}

TEST(GatewayService, ReconnectResumesSessionAndBacklog) {
  ServiceFixture f;
  auto client = f.connect();
  f.send(client, wire::MsgType::kHello, "");
  auto frames = f.exchange(client);
  ASSERT_EQ(frames.size(), 1u);
  const std::string welcome = frames[0].payload;
  const auto tok = welcome.find("token=");
  ASSERT_NE(tok, std::string::npos);
  const std::string token =
      welcome.substr(tok + 6, welcome.find(' ', tok) - (tok + 6));
  f.send(client, wire::MsgType::kSubscribe, "battery");
  f.exchange(client);

  // Drop the connection; events published while unbound are queued, not
  // lost, and the session survives.
  client.io.disconnect();
  f.service.pump();
  EXPECT_EQ(f.service.session_count(), 1u);
  EXPECT_EQ(f.service.bound_session_count(), 0u);
  f.deployment->bus().publish(settle(41));
  f.deployment->bus().publish(settle(42));

  // Resume by token on a fresh connection: welcome says resumed=1 and
  // the queued backlog flushes in order.
  auto resumed = f.connect();
  resumed.io.send(wire::encode(
      wire::Message{wire::MsgType::kHello, 50, 0, token}));
  f.service.pump();
  const auto bytes = resumed.io.drain();
  resumed.reader.feed(bytes.data(), bytes.size());
  std::vector<wire::Message> got;
  wire::Message m;
  while (resumed.reader.next(&m) == wire::FrameReader::Status::kMessage) {
    got.push_back(std::move(m));
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].type, wire::MsgType::kWelcome);
  EXPECT_NE(got[0].payload.find("resumed=1"), std::string::npos);
  EXPECT_EQ(got[1].type, wire::MsgType::kEvent);
  EXPECT_NE(got[1].payload.find("t=41"), std::string::npos);
  EXPECT_EQ(got[2].type, wire::MsgType::kEvent);
  EXPECT_NE(got[2].payload.find("t=42"), std::string::npos);
  EXPECT_EQ(f.service.stats().sessions_resumed, 1u);

  // A bogus token is refused without touching the live session.
  auto intruder = f.connect();
  intruder.io.send(wire::encode(
      wire::Message{wire::MsgType::kHello, 60, 0, "00000000deadbeef"}));
  f.service.pump();
  const auto ibytes = intruder.io.drain();
  intruder.reader.feed(ibytes.data(), ibytes.size());
  ASSERT_EQ(intruder.reader.next(&m), wire::FrameReader::Status::kMessage);
  EXPECT_EQ(m.type, wire::MsgType::kError);
  EXPECT_EQ(f.service.stats().resume_failures, 1u);
  EXPECT_EQ(f.service.session_count(), 1u);
}

TEST(GatewayService, SessionLimitRejectsTheOverflowClient) {
  ServiceOptions options;
  options.max_sessions = 2;
  ServiceFixture f(options);
  auto a = f.connect();
  auto b = f.connect();
  auto c = f.connect();
  f.send(a, wire::MsgType::kHello, "");
  f.send(b, wire::MsgType::kHello, "");
  f.send(c, wire::MsgType::kHello, "");
  f.service.pump();
  EXPECT_EQ(f.service.session_count(), 2u);
  EXPECT_EQ(f.service.stats().sessions_rejected, 1u);
  const auto frames = f.exchange(c);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::MsgType::kError);
  EXPECT_NE(frames[0].payload.find("session limit"), std::string::npos);
  EXPECT_TRUE(c.io.closed());
}

TEST(GatewayService, ShutdownDrainsEverySession) {
  ServiceFixture f;
  auto a = f.connect();
  auto b = f.connect();
  f.send(a, wire::MsgType::kHello, "");
  f.send(b, wire::MsgType::kHello, "");
  f.exchange(a);
  f.exchange(b);
  f.service.shutdown();
  for (auto* client : {&a, &b}) {
    const auto bytes = client->io.drain();
    client->reader.feed(bytes.data(), bytes.size());
    wire::Message m;
    ASSERT_EQ(client->reader.next(&m),
              wire::FrameReader::Status::kMessage);
    EXPECT_EQ(m.type, wire::MsgType::kByeAck);
    EXPECT_EQ(m.payload, "server shutdown");
    EXPECT_TRUE(client->io.closed());
  }
  EXPECT_EQ(f.service.session_count(), 0u);
  EXPECT_EQ(f.service.stats().sessions_closed, 2u);
  const std::string metrics = f.service.metrics_json();
  EXPECT_NE(metrics.find("\"sessions_closed\""), std::string::npos)
      << metrics;
}

// ------------------------------------------- deterministic multi-client

/// Runs a fixed 6-client script (commands, subscriptions, a mid-script
/// reconnect) and returns every client's full transcript, serialized.
std::vector<std::string> run_scripted_session(std::uint64_t seed,
                                              std::size_t shards = 1) {
  ServiceFixture f({}, grid(4, seed, shards));
  EXPECT_EQ(f.deployment->simulator().shard_count(), shards);
  constexpr std::size_t kClients = 6;
  std::vector<ServiceFixture::TestClient> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(f.connect());
    f.send(clients[i], wire::MsgType::kHello, "");
  }
  for (auto& client : clients) {
    f.exchange(client);
  }
  // Everybody subscribes to tuple traffic; client 0 drives remote outs
  // and also streams frames, so its async results interleave with the
  // frame records of the very events that complete them.
  for (auto& client : clients) {
    f.send(client, wire::MsgType::kSubscribe, "tuple");
  }
  f.send(clients[0], wire::MsgType::kSubscribe, "frame");
  for (std::size_t round = 0; round < 4; ++round) {
    f.send(clients[0], wire::MsgType::kCommand,
           "rout 2 2 str:rnd num:" + std::to_string(round));
    for (std::size_t i = 1; i < kClients; ++i) {
      f.send(clients[i], wire::MsgType::kCommand, "status");
    }
    for (std::size_t step = 0; step < 20; ++step) {
      f.deployment->run_for(50 * sim::kMillisecond);
      for (auto& client : clients) {
        f.exchange(client);
      }
    }
    // Client 3 drops and resumes by token each round.
    if (round == 1) {
      const std::string& welcome = clients[3].inbox.front().payload;
      const auto tok = welcome.find("token=");
      const std::string token = welcome.substr(
          tok + 6, welcome.find(' ', tok) - (tok + 6));
      clients[3].io.disconnect();
      f.service.pump();
      clients[3].io = f.transport.connect();
      clients[3].io.send(wire::encode(
          wire::Message{wire::MsgType::kHello, 999, 0, token}));
      for (auto& client : clients) {
        f.exchange(client);
      }
    }
  }
  std::vector<std::string> transcripts;
  for (auto& client : clients) {
    std::string transcript;
    for (const auto& m : client.inbox) {
      transcript += std::string(wire::to_string(m.type)) + "|" +
                    std::to_string(m.request_id) + "|" +
                    std::to_string(m.vtime) + "|" + m.payload + "\n";
    }
    transcripts.push_back(std::move(transcript));
  }
  return transcripts;
}

TEST(GatewayService, MultiClientTranscriptsAreByteIdenticalAcrossRuns) {
  const auto first = run_scripted_session(7);
  const auto second = run_scripted_session(7);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "client " << i;
    EXPECT_FALSE(first[i].empty());
  }
  // And the runs actually exercised the mesh: someone saw tuple events.
  bool any_event = false;
  for (const auto& t : first) {
    any_event = any_event || t.find("event|") != std::string::npos;
  }
  EXPECT_TRUE(any_event);
  // A different seed yields a different interleaving (the transcripts
  // are a function of the seed, not accidental constants).
  const auto other = run_scripted_session(8);
  bool any_difference = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    any_difference = any_difference || first[i] != other[i];
  }
  EXPECT_TRUE(any_difference);
  // The sharded engine serves the same script byte-identically: event
  // frames arrive in serial order, stamped with their record's time.
  const auto sharded = run_scripted_session(7, 4);
  ASSERT_EQ(sharded.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(sharded[i], first[i]) << "client " << i << " at 4 shards";
  }
}

}  // namespace
}  // namespace agilla::svc
