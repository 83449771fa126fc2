// gateway_1k: 1000 closed-loop protocol clients (one outstanding request
// per session, as the protocol requires) on the in-process
// LoopbackTransport, against a lossless 16x16 mesh behind the
// GatewayService. No sockets are involved. One service turn = every client steps, one
// pump(), one 2 ms virtual slice; 640 scripted ops per client per rep.
// This is the only workload that uses svc, and it calls run_for in tiny
// slices, so per-call overhead shows.
//
// The script is a pure function of (seed, client, op):
//  - status and ping probes;
//  - gateway-local `rout/rrdp/rinp 1 1 num:<client> num:<op>` triples
//    (the grid origin is (1,1)): the rinp removes what the rout wrote two
//    turns earlier, so about 2/64 of the clients hold a tuple at a time
//    and the 600 B store never fills;
//  - 1 client in 16 subscribes to tuple events (the push path);
//  - 1 client in 32 injects one agent, staggered so the gateway's four
//    agent slots never fill;
//  - 1 client in 64 sends a remote rout/rrdp/rinp triple to an in-grid
//    mote 1-10 hops away, and waits for each async result.
// agilla_loadgen's script is not reused: at --ops 64, 20,872 of its
// 20,973 remote-op results fail, because some destinations have x=0 or
// y=0 (off the grid) and all remote ops leave from one mote, whose
// unbounded TX queue collapses.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "api/deployment.h"
#include "svc/gateway_service.h"
#include "svc/transport.h"
#include "svc/wire.h"
#include "suite.h"

namespace bench {
namespace {

using namespace agilla;
namespace wire = agilla::svc::wire;

constexpr sim::SimTime kSlice = 2 * sim::kMillisecond;
constexpr std::uint64_t kPhases = 64;
/// Reply latency is sampled on every 8th client (a client's latency does
/// not depend on its index); per-command spans on every 125th.
constexpr std::size_t kLatencyEvery = 8;
constexpr std::size_t kSpanEvery = 125;

struct Op {
  wire::MsgType type = wire::MsgType::kPing;
  std::string payload;
  std::uint32_t asyncs = 0;  ///< async results the command will produce
};

/// Op `k` of client `i` (of `ops`), for `seed`.
Op script(std::uint64_t seed, std::size_t i, std::size_t k, std::size_t ops) {
  if (k == 0 && i % 16 == 0) {
    return Op{wire::MsgType::kSubscribe, "tuple", 0};
  }
  const std::size_t rounds = std::max<std::size_t>(ops / kPhases, 1);
  const std::uint64_t phase = (i + k + seed) % kPhases;
  char line[96];
  // A triple starts at `base` and occupies phases p0, p0+1, p0+2.
  const auto triple = [&](std::uint64_t p0) -> std::optional<std::size_t> {
    if (phase < p0 || phase > p0 + 2 || k < phase - p0) {
      return std::nullopt;
    }
    const std::size_t base = k - static_cast<std::size_t>(phase - p0);
    if (base < 1 || base + 2 >= ops) {
      return std::nullopt;
    }
    return base;
  };
  static constexpr const char* kVerbs[] = {"rout", "rrdp", "rinp"};
  if (const auto base = triple(0)) {
    std::snprintf(line, sizeof(line), "%s 1 1 num:%zu num:%zu",
                  kVerbs[phase], i, *base % 30000);
    return Op{wire::MsgType::kCommand, line, 1};
  }
  if (const auto base = triple(20);
      base && i % 64 == 9 && *base / kPhases == (i / 64 + 1) % rounds) {
    const std::uint64_t x = 2 + (i / 64 + seed) % 5;
    const std::uint64_t y = 2 + (i / 64 * 3 + seed / 5) % 5;
    std::snprintf(line, sizeof(line), "%s %llu %llu num:%zu num:%zu",
                  kVerbs[phase - 20], static_cast<unsigned long long>(x),
                  static_cast<unsigned long long>(y), i, *base % 30000);
    return Op{wire::MsgType::kCommand, line, 1};
  }
  if (phase == 10 && i % 32 == 5 && k / kPhases == (i / 32) % rounds) {
    return Op{wire::MsgType::kCommand,
              "inject asm pushc 3; pushc 4; add; pop; halt", 0};
  }
  if (phase % 2 == 1) {
    return Op{wire::MsgType::kCommand, "status", 0};
  }
  return Op{wire::MsgType::kPing, "", 0};
}

struct Client {
  enum class State : std::uint8_t { kWelcome, kRun, kBye, kDone, kFailed };

  svc::LoopbackTransport::Client io;
  wire::FrameReader reader;
  State state = State::kWelcome;
  std::size_t next_op = 0;
  std::uint32_t next_request = 1;
  std::uint32_t awaiting = 0;  ///< request id whose reply is due; 0 = none
  std::uint32_t last_command = 0;
  std::uint32_t asyncs = 0;    ///< async results still due
  Tick sent_at = 0;
  Digest transcript;
};

/// Outcome tallies of one rep, over all clients.
struct Tally {
  std::uint64_t commands = 0;
  std::uint64_t replies = 0;
  std::uint64_t replies_error = 0;
  std::uint64_t async_ok = 0;
  std::uint64_t async_failed = 0;
  std::uint64_t events = 0;
  std::uint64_t protocol_errors = 0;
};

class Gateway final : public Workload {
 public:
  explicit Gateway(const Config& config)
      : seed_(config.seed),
        clients_n_(config.smoke ? 64 : 1000),
        ops_(config.smoke ? 128 : 640) {}

  const char* op_unit() const override { return "command"; }
  double tail_percentile() const override { return 99.0; }

  double setup_only() override {
    const Tick start = now_tick();
    build();
    const double seconds = tick_to_sec(now_tick() - start);
    world_.reset();
    return seconds;
  }

  RepResult run_rep() override {
    RepResult rep;
    const Tick setup_start = now_tick();
    build();
    rep.setup_s = tick_to_sec(now_tick() - setup_start);

    World& w = *world_;
    sim::Simulator& sim = w.mesh->simulator();
    Tally tally;
    std::uint64_t events = 0;
    std::uint64_t turns = 0;
    std::uint64_t pending_max = 0;
    const std::uint64_t max_turns = 64 * ops_ + 100000;
    const bool traced = trace::enabled();
    const std::uint64_t insns_before = vm_instructions(*w.mesh);
    const Tick start = now_tick();
    {
      const trace::Scope measure("measure");
      std::size_t settled = 0;
      while (settled < w.clients.size() && turns < max_turns) {
        const trace::Scope turn("svc.turn");
        settled = 0;
        {
          const trace::Scope span("svc.clients");
          for (std::size_t i = 0; i < w.clients.size(); ++i) {
            Client& c = w.clients[i];
            receive(c, i, tally, rep.op_ns, traced);
            send_next(c, i, tally, traced);
            settled += c.state == Client::State::kDone ||
                               c.state == Client::State::kFailed
                           ? 1
                           : 0;
          }
        }
        {
          const trace::Scope span("svc.pump");
          w.service->pump();
        }
        {
          const trace::Scope span("sim.run_for");
          events += sim.run_for(kSlice);
        }
        pending_max =
            std::max<std::uint64_t>(pending_max, sim.pending_events());
        ++turns;
        rep.progress.emplace_back(now_tick() - start, tally.replies);
      }
    }
    rep.measured = now_tick() - start;

    std::uint64_t unfinished = 0;
    Digest transcripts;  // every session's transcript, then the counters
    for (const Client& c : w.clients) {
      unfinished += c.state == Client::State::kDone ? 0 : 1;
      transcripts.add(c.transcript.value());
    }
    rep.ops = tally.commands;
    rep.attempted = tally.commands;
    rep.failed = tally.replies_error + tally.async_failed +
                 tally.protocol_errors + unfinished;

    const svc::ServiceStats& stats = w.service->stats();
    rep.counts["sim.events"] = events;
    rep.counts["sim.run_for_calls"] = turns;
    rep.counts["sim.pending_events_max"] = pending_max;
    rep.counts["svc.pump_calls"] = turns;
    rep.counts["svc.frames_in"] = stats.frames_in;
    rep.counts["svc.frames_out"] = stats.frames_out;
    rep.counts["svc.bytes_out"] = stats.bytes_out;
    rep.counts["svc.events_sent"] = stats.events_sent;
    rep.counts["svc.events_dropped"] = stats.events_dropped;
    rep.counts["svc.async_results"] = stats.async_results;
    rep.counts["svc.client.replies_error"] = tally.replies_error;
    rep.counts["svc.client.async_ok"] = tally.async_ok;
    rep.counts["svc.client.async_failed"] = tally.async_failed;
    rep.counts["svc.client.events"] = tally.events;
    add_mesh_counts(*w.mesh, rep.counts);
    rep.counts["core.vm.instructions_measured"] =
        rep.counts["core.vm.instructions"] - insns_before;
    transcripts.add(digest_counts(rep.counts));
    rep.digest = transcripts.value();

    if (tally.protocol_errors != 0 || stats.protocol_errors != 0) {
      rep.errors.push_back("gateway_1k: protocol errors");
    }
    if (unfinished != 0) {
      rep.errors.push_back("gateway_1k: " + std::to_string(unfinished) +
                           " clients did not finish their script");
    }
    if (rep.failed * 100 > rep.attempted) {
      rep.errors.push_back("gateway_1k: more than 1% of commands failed");
    }
    world_.reset();
    return rep;
  }

 private:
  /// Declaration order is teardown order reversed: clients, then the
  /// service (its sessions hold bus observers), then transport and mesh.
  struct World {
    std::unique_ptr<api::Deployment> mesh;
    std::unique_ptr<svc::LoopbackTransport> transport;
    std::unique_ptr<svc::GatewayService> service;
    std::vector<Client> clients;
  };

  /// Mesh, service, and every client connected and welcomed.
  void build() {
    const trace::Scope span("setup");
    world_ = std::make_unique<World>();
    World& w = *world_;
    {
      const trace::Scope build_span("api.build");
      api::SimulationBuilder builder;
      // A lossless radio: remote ops are geo-routed without link acks, so
      // at the default 2% loss a multi-hop op fails all its retries a few
      // times per run, and this workload measures the service, not loss.
      builder.grid(16, 16).seed(seed_).packet_loss(0.0);
      w.mesh = builder.build();
    }
    const trace::Scope connect("svc.connect");
    w.transport = std::make_unique<svc::LoopbackTransport>();
    svc::ServiceOptions options;
    options.max_sessions = clients_n_ + 8;
    w.service = std::make_unique<svc::GatewayService>(*w.mesh, *w.transport,
                                                      options);
    w.clients.resize(clients_n_);
    for (Client& c : w.clients) {
      c.io = w.transport->connect();
      c.io.send(wire::encode(
          wire::Message{wire::MsgType::kHello, c.next_request++, 0, ""}));
    }
    Tally tally;
    std::vector<std::uint32_t> no_latencies;
    std::size_t welcomed = 0;
    for (int turn = 0; welcomed < w.clients.size() && turn < 1000; ++turn) {
      w.service->pump();
      w.mesh->simulator().run_for(kSlice);
      welcomed = 0;
      for (std::size_t i = 0; i < w.clients.size(); ++i) {
        receive(w.clients[i], i, tally, no_latencies, false);
        welcomed += w.clients[i].state == Client::State::kRun ? 1 : 0;
      }
    }
    if (welcomed != w.clients.size()) {
      throw std::runtime_error("gateway_1k: clients were not welcomed");
    }
  }

  /// Drains and handles every frame the server sent this client; reply
  /// latencies of sampled clients go to `latency_ns`.
  void receive(Client& c, std::size_t i, Tally& tally,
               std::vector<std::uint32_t>& latency_ns, bool traced) {
    Tick t0 = traced ? now_tick() : 0;
    const std::vector<std::uint8_t> bytes = c.io.drain();
    if (traced) {
      const Tick t1 = now_tick();
      trace::accumulate("svc.transport", t1 - t0);
      t0 = t1;
    }
    if (bytes.empty()) {
      return;
    }
    c.reader.feed(bytes.data(), bytes.size());
    wire::Message m;
    while (c.state != Client::State::kFailed) {
      const auto status = c.reader.next(&m);
      if (status == wire::FrameReader::Status::kNeedMore) {
        break;
      }
      if (status == wire::FrameReader::Status::kError) {
        fail(c, tally);
        break;
      }
      const auto type = static_cast<std::uint8_t>(m.type);
      c.transcript.add_bytes(&type, 1);
      c.transcript.add(m.request_id);
      c.transcript.add(m.vtime);
      c.transcript.add(m.payload);
      switch (m.type) {
        case wire::MsgType::kWelcome:
          c.state = Client::State::kRun;
          break;
        case wire::MsgType::kReply:
        case wire::MsgType::kPong:
          if (m.request_id != c.awaiting) {
            fail(c, tally);
            break;
          }
          c.awaiting = 0;
          ++tally.replies;
          if (m.payload.rfind("error", 0) == 0) {
            ++tally.replies_error;
          }
          if (i % kLatencyEvery == 0) {
            const Tick now = now_tick();
            latency_ns.push_back(op_sample(now - c.sent_at));
            if (traced && i % kSpanEvery == 0) {
              trace::record_async("svc.command", c.sent_at, now,
                                  static_cast<std::int64_t>(i),
                                  m.request_id);
            }
          }
          break;
        case wire::MsgType::kAsyncResult:
          if (m.request_id != c.last_command || c.asyncs == 0) {
            fail(c, tally);
            break;
          }
          --c.asyncs;
          if (m.payload.rfind("ok", 0) == 0) {
            ++tally.async_ok;
          } else {
            ++tally.async_failed;
          }
          break;
        case wire::MsgType::kEvent:
          ++tally.events;
          break;
        case wire::MsgType::kByeAck:
          c.state = c.state == Client::State::kBye ? Client::State::kDone
                                                   : Client::State::kFailed;
          break;
        default:
          fail(c, tally);
          break;
      }
    }
    if (traced) {
      trace::accumulate("svc.wire", now_tick() - t0);
    }
  }

  /// Sends the client's next scripted request (or bye) once it is idle.
  void send_next(Client& c, std::size_t i, Tally& tally, bool traced) {
    if (c.state != Client::State::kRun || c.awaiting != 0 || c.asyncs != 0) {
      return;
    }
    const std::uint32_t id = c.next_request++;
    Tick t0 = traced ? now_tick() : 0;
    std::vector<std::uint8_t> frame;
    if (c.next_op < ops_) {
      Op op = script(seed_, i, c.next_op++, ops_);
      frame = wire::encode(wire::Message{op.type, id, 0, std::move(op.payload)});
      c.awaiting = id;
      c.last_command = id;
      c.asyncs = op.asyncs;
      ++tally.commands;
    } else {
      frame = wire::encode(wire::Message{wire::MsgType::kBye, id, 0, ""});
      c.state = Client::State::kBye;
    }
    if (traced) {
      const Tick t1 = now_tick();
      trace::accumulate("svc.wire", t1 - t0);
      t0 = t1;
    }
    if (i % kLatencyEvery == 0) {
      c.sent_at = now_tick();
    }
    c.io.send(frame);
    if (traced) {
      trace::accumulate("svc.transport", now_tick() - t0);
    }
  }

  static void fail(Client& c, Tally& tally) {
    ++tally.protocol_errors;
    c.state = Client::State::kFailed;
  }

  std::uint64_t seed_;
  std::size_t clients_n_;
  std::size_t ops_;
  std::unique_ptr<World> world_;
};

}  // namespace

std::unique_ptr<Workload> make_gateway(const Config& config) {
  return std::make_unique<Gateway>(config);
}

}  // namespace bench
