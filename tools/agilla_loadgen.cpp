// agilla_loadgen: scripted load harness for the gateway service.
//
// Drives N protocol clients against one Agilla mesh and reports
// injection throughput, reply latency percentiles, backpressure drops,
// and reconnect success as deterministic JSON. Two modes:
//
//   - loopback (default): builds the deployment in-process and runs the
//     whole exchange on the deterministic LoopbackTransport — no
//     sockets, no threads. For a fixed --seed the per-session
//     transcripts and the metrics JSON are byte-identical across runs
//     (latencies are virtual-time microseconds).
//   - --connect HOST:PORT: real TCP clients against a running
//     agilla_gatewayd (latencies are wall-clock microseconds; only
//     protocol correctness is asserted, not byte determinism).
//
//   $ agilla_loadgen --clients 1000 --grid 16x16 --ops 24 --out m.json
//   $ agilla_loadgen --connect 127.0.0.1:7170 --clients 64 --smoke
//
// The client script is a pure function of (client index, op index):
// status/ping probes, remote tuple ops, agent injections for one cohort,
// event subscriptions for another, and a mid-script disconnect +
// token-resume for every 8th client. Exit status 0 iff every client
// finished its script with zero protocol errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/deployment.h"
#include "harness/json_writer.h"
#include "svc/gateway_service.h"
#include "svc/transport.h"
#include "svc/wire.h"

#include "cli_args.h"

using namespace agilla;
namespace wire = agilla::svc::wire;

namespace {

void print_usage() {
  std::printf(
      "usage: agilla_loadgen [options]\n"
      "  --clients N          concurrent protocol clients (default: 64)\n"
      "  --ops N              scripted ops per client (default: 16)\n"
      "  --loopback           in-process deterministic mode (default)\n"
      "  --connect HOST:PORT  drive a running agilla_gatewayd over TCP\n"
      "  --grid WxH           loopback mesh size (default: 8x8)\n"
      "  --seed S             loopback RNG seed (default: 1)\n"
      "  --queue-cap N        loopback per-session queue cap (default: "
      "1024)\n"
      "  --slice-ms M         loopback virtual ms per service turn "
      "(default: 2)\n"
      "  --out FILE           write the metrics JSON here (default: "
      "stdout)\n"
      "  --smoke              small defaults + PASS/FAIL line on stderr\n");
}

int fail_usage(const char* message) {
  std::fprintf(stderr, "agilla_loadgen: %s\n", message);
  return 2;
}

// ----------------------------------------------------------- client I/O

/// One client's byte pipe — loopback handle or TCP socket.
class ClientIo {
 public:
  virtual ~ClientIo() = default;
  virtual bool open() = 0;
  virtual void send(const std::vector<std::uint8_t>& bytes) = 0;
  virtual void drain(std::vector<std::uint8_t>* out) = 0;
  virtual void disconnect() = 0;
};

class LoopbackIo final : public ClientIo {
 public:
  explicit LoopbackIo(svc::LoopbackTransport& transport)
      : transport_(transport) {}

  bool open() override {
    client_ = transport_.connect();
    return true;
  }
  void send(const std::vector<std::uint8_t>& bytes) override {
    client_.send(bytes);
  }
  void drain(std::vector<std::uint8_t>* out) override {
    const auto bytes = client_.drain();
    out->insert(out->end(), bytes.begin(), bytes.end());
  }
  void disconnect() override { client_.disconnect(); }

 private:
  svc::LoopbackTransport& transport_;
  svc::LoopbackTransport::Client client_;
};

class TcpIo final : public ClientIo {
 public:
  TcpIo(std::string host, std::uint16_t port)
      : host_(std::move(host)), port_(port) {}
  ~TcpIo() override { disconnect(); }

  bool open() override {
    disconnect();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      disconnect();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    return true;
  }

  void send(const std::vector<std::uint8_t>& bytes) override {
    std::size_t sent = 0;
    while (fd_ >= 0 && sent < bytes.size()) {
      const ssize_t n =
          ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd_, POLLOUT, 0};
        ::poll(&pfd, 1, 100);
      } else if (errno != EINTR) {
        disconnect();
        return;
      }
    }
  }

  void drain(std::vector<std::uint8_t>* out) override {
    std::uint8_t buf[16 * 1024];
    while (fd_ >= 0) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n > 0) {
        out->insert(out->end(), buf, buf + n);
      } else if (n == 0) {
        disconnect();  // server EOF (e.g. after byeack)
        return;
      } else {
        if (errno != EINTR) {
          return;  // EAGAIN: nothing more right now
        }
      }
    }
  }

  void disconnect() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  std::string host_;
  std::uint16_t port_;
  int fd_ = -1;
};

// ------------------------------------------------------- client scripts

struct Op {
  wire::MsgType type = wire::MsgType::kCommand;
  std::string payload;
  bool remote = false;  ///< immediate "dispatched" reply + later asyncresult
  bool inject = false;  ///< counts toward injection throughput
};

/// The deterministic script: op j of client i, on a WxH mesh. Every 16th
/// client opens a tuple event stream first; every 32nd (offset 2) is an
/// injector; everyone else mixes status/ping probes with remote tuple
/// ops whose destinations walk the grid.
Op make_op(std::size_t i, std::size_t j, std::size_t w, std::size_t h) {
  if (j == 0 && i % 16 == 0) {
    return Op{wire::MsgType::kSubscribe, "tuple", false, false};
  }
  // The grid's origin is (1,1): destinations span x in [1,w], y in [1,h].
  const std::size_t x = (i + j) % w + 1;
  const std::size_t y = (i * 3 + j) % h + 1;
  const std::string dest =
      std::to_string(x) + " " + std::to_string(y);
  switch ((i + j) % 6) {
    case 0:
      return Op{wire::MsgType::kCommand, "status", false, false};
    case 1:
      return Op{wire::MsgType::kPing, "", false, false};
    case 2:
      if (i % 32 == 2) {
        return Op{wire::MsgType::kCommand, "inject asm halt", false, true};
      }
      return Op{wire::MsgType::kCommand, "rrdp " + dest + " ?num", true,
                false};
    case 3:
      return Op{wire::MsgType::kCommand,
                "rout " + dest + " str:lg num:" + std::to_string(j % 100),
                true, false};
    case 4:
      return Op{wire::MsgType::kCommand, "status", false, false};
    default:
      return Op{wire::MsgType::kPing, "", false, false};
  }
}

// ------------------------------------------------------------- a client

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t* hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t k = 0; k < size; ++k) {
    *hash = (*hash ^ bytes[k]) * kFnvPrime;
  }
}

struct Client {
  enum class State {
    kConnect,       ///< (re)open + send hello next step
    kAwaitWelcome,  ///< hello sent
    kRun,           ///< scripted ops
    kAwaitByeAck,
    kDone,
    kFailed,
  };

  std::size_t index = 0;
  std::unique_ptr<ClientIo> io;
  wire::FrameReader reader;
  State state = State::kConnect;
  std::string token;  ///< resume token from welcome
  std::size_t next_op = 0;
  std::size_t ops_total = 0;
  bool awaiting_reply = false;
  bool current_remote = false;
  bool current_inject = false;
  /// A remote op on the gateway's own node completes synchronously, so
  /// its asyncresult frame precedes the reply frame; remember it so the
  /// reply does not count a pending async that already arrived.
  bool async_arrived_early = false;
  std::uint32_t next_request = 1;
  std::uint32_t current_request = 0;
  std::size_t pending_async = 0;
  bool will_reconnect = false;
  bool reconnected = false;
  std::uint64_t send_stamp = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> async_sent;
  std::uint64_t transcript = kFnvOffset;
  std::uint64_t drops_reported = 0;  ///< from the last pong probe
  // Tallies (merged into the run metrics at the end).
  std::uint64_t commands = 0;
  std::uint64_t replies_ok = 0;
  std::uint64_t replies_error = 0;
  std::uint64_t injections = 0;
  std::uint64_t injections_ok = 0;
  std::uint64_t async_ok = 0;
  std::uint64_t async_failed = 0;
  std::uint64_t events = 0;
  std::uint64_t protocol_errors = 0;
};

struct RunMetrics {
  std::vector<std::uint64_t> reply_latency;
  std::vector<std::uint64_t> async_latency;
  std::uint64_t reconnects_attempted = 0;
  std::uint64_t reconnects_ok = 0;
};

std::uint64_t percentile(std::vector<std::uint64_t>& values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// Handles every complete frame the client has received; advances the
/// state machine. `now` is the latency clock (virtual µs on loopback).
void process_frames(Client& c, RunMetrics& metrics, std::uint64_t now) {
  std::vector<std::uint8_t> bytes;
  c.io->drain(&bytes);
  if (!bytes.empty()) {
    c.reader.feed(bytes.data(), bytes.size());
  }
  for (;;) {
    wire::Message m;
    const auto status = c.reader.next(&m);
    if (status == wire::FrameReader::Status::kNeedMore) {
      return;
    }
    if (status == wire::FrameReader::Status::kError) {
      ++c.protocol_errors;
      c.state = Client::State::kFailed;
      return;
    }
    // Per-session transcript: every server frame, fully (type, id,
    // vtime, payload) — byte determinism on loopback is asserted by
    // comparing these hashes across runs.
    const std::uint8_t type_byte = static_cast<std::uint8_t>(m.type);
    fnv_mix(&c.transcript, &type_byte, 1);
    fnv_mix(&c.transcript, &m.request_id, sizeof(m.request_id));
    fnv_mix(&c.transcript, &m.vtime, sizeof(m.vtime));
    fnv_mix(&c.transcript, m.payload.data(), m.payload.size());
    switch (m.type) {
      case wire::MsgType::kWelcome: {
        const auto tok = m.payload.find("token=");
        if (tok != std::string::npos) {
          const auto end = m.payload.find(' ', tok);
          c.token = m.payload.substr(tok + 6, end - (tok + 6));
        }
        if (m.payload.find("resumed=1") != std::string::npos) {
          ++metrics.reconnects_ok;
        }
        c.state = Client::State::kRun;
        break;
      }
      case wire::MsgType::kReply:
        metrics.reply_latency.push_back(now - c.send_stamp);
        c.awaiting_reply = false;
        if (m.payload.rfind("error", 0) == 0) {
          ++c.replies_error;
        } else {
          ++c.replies_ok;
          if (c.current_remote && !c.async_arrived_early) {
            ++c.pending_async;
            c.async_sent[m.request_id] = c.send_stamp;
          }
          if (c.current_inject && m.payload.rfind("ok", 0) == 0) {
            ++c.injections_ok;
          }
        }
        c.async_arrived_early = false;
        break;
      case wire::MsgType::kPong: {
        metrics.reply_latency.push_back(now - c.send_stamp);
        c.awaiting_reply = false;
        ++c.replies_ok;
        const auto eq = m.payload.find("drops=");
        if (eq != std::string::npos) {
          c.drops_reported = std::strtoull(
              m.payload.c_str() + eq + 6, nullptr, 10);
        }
        break;
      }
      case wire::MsgType::kAsyncResult: {
        const auto it = c.async_sent.find(m.request_id);
        if (it != c.async_sent.end()) {
          metrics.async_latency.push_back(m.vtime - it->second);
          c.async_sent.erase(it);
          if (c.pending_async > 0) {
            --c.pending_async;
          }
        } else if (c.awaiting_reply && m.request_id == c.current_request) {
          c.async_arrived_early = true;
        }
        if (m.payload.rfind("ok", 0) == 0) {
          ++c.async_ok;
        } else {
          ++c.async_failed;
        }
        break;
      }
      case wire::MsgType::kEvent:
        ++c.events;
        break;
      case wire::MsgType::kByeAck:
        if (c.state == Client::State::kAwaitByeAck ||
            c.state == Client::State::kRun) {
          c.state = Client::State::kDone;  // server shutdown counts too
        }
        return;
      case wire::MsgType::kError:
        ++c.protocol_errors;
        c.state = Client::State::kFailed;
        return;
      default:
        ++c.protocol_errors;
        c.state = Client::State::kFailed;
        return;
    }
  }
}

/// One scheduling step: send the next scripted request when idle.
void step_client(Client& c, RunMetrics& metrics, std::size_t w,
                 std::size_t h, std::uint64_t now) {
  if (c.state == Client::State::kDone ||
      c.state == Client::State::kFailed) {
    return;
  }
  if (c.state == Client::State::kConnect) {
    if (!c.io->open()) {
      c.state = Client::State::kFailed;
      return;
    }
    c.reader = wire::FrameReader();
    const std::uint32_t id = c.next_request++;
    c.io->send(wire::encode(
        wire::Message{wire::MsgType::kHello, id, 0, c.token}));
    c.send_stamp = now;
    c.state = Client::State::kAwaitWelcome;
    return;
  }
  process_frames(c, metrics, now);
  if (c.state != Client::State::kRun || c.awaiting_reply) {
    return;
  }
  // Mid-script reconnect drill: drop the connection and resume by token.
  if (c.will_reconnect && !c.reconnected && c.next_op >= c.ops_total / 2) {
    c.reconnected = true;
    ++metrics.reconnects_attempted;
    c.io->disconnect();
    c.state = Client::State::kConnect;
    return;
  }
  if (c.next_op < c.ops_total) {
    const Op op = make_op(c.index, c.next_op, w, h);
    ++c.next_op;
    const std::uint32_t id = c.next_request++;
    c.current_request = id;
    c.current_remote = op.remote;
    c.current_inject = op.inject;
    if (op.inject) {
      ++c.injections;
    }
    ++c.commands;
    c.send_stamp = now;
    c.awaiting_reply = true;
    c.io->send(wire::encode(wire::Message{op.type, id, 0, op.payload}));
    return;
  }
  if (c.pending_async == 0) {
    const std::uint32_t id = c.next_request++;
    c.io->send(
        wire::encode(wire::Message{wire::MsgType::kBye, id, 0, ""}));
    c.state = Client::State::kAwaitByeAck;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t clients_n = 64;
  std::size_t ops = 16;
  bool smoke = false;
  bool clients_set = false;
  bool ops_set = false;
  std::string connect_spec;
  std::size_t width = 8;
  std::size_t height = 8;
  std::uint64_t seed = 1;
  std::size_t queue_cap = 1024;
  sim::SimTime slice = 2 * sim::kMillisecond;
  std::string out_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--clients") {
      const auto n = tools::parse_u64(next());
      if (!n || *n == 0) {
        return fail_usage("--clients expects a positive number");
      }
      clients_n = *n;
      clients_set = true;
    } else if (arg == "--ops") {
      const auto n = tools::parse_u64(next());
      if (!n || *n == 0) {
        return fail_usage("--ops expects a positive number");
      }
      ops = *n;
      ops_set = true;
    } else if (arg == "--loopback") {
      connect_spec.clear();
    } else if (arg == "--connect") {
      const char* value = next();
      if (value == nullptr) {
        return fail_usage("--connect expects HOST:PORT");
      }
      connect_spec = value;
    } else if (arg == "--grid") {
      const char* value = next();
      if (value == nullptr ||
          std::sscanf(value, "%zux%zu", &width, &height) != 2 ||
          width == 0 || height == 0) {
        return fail_usage("--grid expects WxH");
      }
    } else if (arg == "--seed") {
      const auto n = tools::parse_u64(next());
      if (!n) {
        return fail_usage("--seed expects a number");
      }
      seed = *n;
    } else if (arg == "--queue-cap") {
      const auto n = tools::parse_u64(next());
      if (!n || *n == 0) {
        return fail_usage("--queue-cap expects a positive number");
      }
      queue_cap = *n;
    } else if (arg == "--slice-ms") {
      const auto n = tools::parse_u64(next());
      if (!n || *n == 0) {
        return fail_usage("--slice-ms expects a positive number");
      }
      slice = *n * sim::kMillisecond;
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr) {
        return fail_usage("--out expects a path");
      }
      out_file = value;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      print_usage();
      return fail_usage(("unknown option '" + arg + "'").c_str());
    }
  }
  if (smoke) {
    if (!clients_set) {
      clients_n = 64;
    }
    if (!ops_set) {
      ops = 8;
    }
  }
  const bool loopback = connect_spec.empty();
  std::string tcp_host;
  std::uint16_t tcp_port = 0;
  if (!loopback) {
    const auto colon = connect_spec.rfind(':');
    if (colon == std::string::npos) {
      return fail_usage("--connect expects HOST:PORT");
    }
    tcp_host = connect_spec.substr(0, colon);
    const auto port = tools::parse_u64(connect_spec.substr(colon + 1));
    if (!port || *port == 0 || *port > 65535) {
      return fail_usage("--connect port must be a number in [1, 65535]");
    }
    tcp_port = static_cast<std::uint16_t>(*port);
  }

  // Loopback world: deployment + service + transport, all in-process.
  std::unique_ptr<api::Deployment> deployment;
  std::unique_ptr<svc::LoopbackTransport> transport;
  std::unique_ptr<svc::GatewayService> service;
  if (loopback) {
    api::SimulationBuilder builder;
    builder.grid(width, height).seed(seed);
    deployment = builder.build();
    transport = std::make_unique<svc::LoopbackTransport>();
    svc::ServiceOptions options;
    options.max_sessions = std::max<std::size_t>(clients_n + 8, 1024);
    options.queue_cap = queue_cap;
    service = std::make_unique<svc::GatewayService>(*deployment,
                                                    *transport, options);
  }

  auto clock_now = [&]() -> std::uint64_t {
    if (loopback) {
      return deployment->simulator().now();
    }
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };

  std::vector<Client> clients(clients_n);
  for (std::size_t i = 0; i < clients_n; ++i) {
    Client& c = clients[i];
    c.index = i;
    c.ops_total = ops;
    c.will_reconnect = (i % 8 == 3) && ops >= 4;
    if (loopback) {
      c.io = std::make_unique<LoopbackIo>(*transport);
    } else {
      c.io = std::make_unique<TcpIo>(tcp_host, tcp_port);
    }
  }

  RunMetrics metrics;
  const std::uint64_t vtime_start = loopback ? clock_now() : 0;
  // Scheduling loop: every client gets one step, then the world turns
  // (service pump + one simulation slice on loopback; a short sleep on
  // TCP, where the daemon runs the world). Hard iteration cap so a
  // protocol bug cannot hang the harness.
  constexpr std::size_t kMaxIterations = 2'000'000;
  std::size_t iterations = 0;
  for (; iterations < kMaxIterations; ++iterations) {
    bool all_settled = true;
    for (Client& c : clients) {
      step_client(c, metrics, width, height, clock_now());
      if (c.state != Client::State::kDone &&
          c.state != Client::State::kFailed) {
        all_settled = false;
      }
    }
    if (all_settled) {
      break;
    }
    if (loopback) {
      service->pump();
      deployment->run_for(slice);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const std::uint64_t vtime_end = loopback ? clock_now() : 0;

  // ----------------------------------------------------------- tallies
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t commands = 0;
  std::uint64_t replies_ok = 0;
  std::uint64_t replies_error = 0;
  std::uint64_t injections = 0;
  std::uint64_t injections_ok = 0;
  std::uint64_t async_ok = 0;
  std::uint64_t async_failed = 0;
  std::uint64_t events = 0;
  std::uint64_t drops = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t combined = kFnvOffset;
  for (const Client& c : clients) {
    done += c.state == Client::State::kDone ? 1 : 0;
    failed += c.state == Client::State::kDone ? 0 : 1;
    commands += c.commands;
    replies_ok += c.replies_ok;
    replies_error += c.replies_error;
    injections += c.injections;
    injections_ok += c.injections_ok;
    async_ok += c.async_ok;
    async_failed += c.async_failed;
    events += c.events;
    drops += c.drops_reported;
    protocol_errors += c.protocol_errors;
    fnv_mix(&combined, &c.transcript, sizeof(c.transcript));
  }
  const double virtual_s =
      static_cast<double>(vtime_end - vtime_start) / 1e6;
  const double inject_rate =
      loopback && virtual_s > 0.0
          ? static_cast<double>(injections_ok) / virtual_s
          : 0.0;

  harness::JsonWriter json(2);
  json.begin_object();
  json.key("mode").value(loopback ? "loopback" : "tcp");
  json.key("clients").value(static_cast<std::uint64_t>(clients_n));
  json.key("ops_per_client").value(static_cast<std::uint64_t>(ops));
  if (loopback) {
    json.key("grid").value(std::to_string(width) + "x" +
                           std::to_string(height));
    json.key("seed").value(seed);
    json.key("virtual_seconds").value(virtual_s);
  }
  json.key("completed").value(done);
  json.key("failed").value(failed);
  json.key("iterations").value(static_cast<std::uint64_t>(iterations));
  json.key("commands").value(commands);
  json.key("replies_ok").value(replies_ok);
  json.key("replies_error").value(replies_error);
  json.key("injections").value(injections);
  json.key("injections_ok").value(injections_ok);
  json.key("injection_throughput_per_s").value(inject_rate);
  json.key("async_ok").value(async_ok);
  json.key("async_failed").value(async_failed);
  json.key("events_received").value(events);
  json.key("backpressure_drops").value(drops);
  json.key("reconnects_attempted").value(metrics.reconnects_attempted);
  json.key("reconnects_ok").value(metrics.reconnects_ok);
  json.key("reply_latency_us_p50")
      .value(percentile(metrics.reply_latency, 50));
  json.key("reply_latency_us_p95")
      .value(percentile(metrics.reply_latency, 95));
  json.key("reply_latency_us_p99")
      .value(percentile(metrics.reply_latency, 99));
  json.key("async_latency_us_p50")
      .value(percentile(metrics.async_latency, 50));
  json.key("async_latency_us_p95")
      .value(percentile(metrics.async_latency, 95));
  json.key("async_latency_us_p99")
      .value(percentile(metrics.async_latency, 99));
  json.key("protocol_errors").value(protocol_errors);
  if (loopback) {
    json.key("service_events_dropped")
        .value(service->stats().events_dropped);
    json.key("service_sessions_resumed")
        .value(service->stats().sessions_resumed);
    json.key("service_protocol_errors")
        .value(service->stats().protocol_errors);
    // Per-session transcript hashes: comparing this block across runs
    // asserts byte-identical session transcripts for a fixed seed.
    json.key("transcripts").begin_array();
    for (const Client& c : clients) {
      json.value(hash_hex(c.transcript));
    }
    json.end_array();
  }
  json.key("transcript_hash").value(hash_hex(combined));
  json.end_object();

  if (out_file.empty()) {
    std::printf("%s\n", json.str().c_str());
  } else {
    std::ofstream out(out_file);
    out << json.str() << "\n";
  }

  const bool ok = failed == 0 && protocol_errors == 0 &&
                  metrics.reconnects_ok == metrics.reconnects_attempted;
  if (smoke) {
    std::fprintf(stderr, "agilla_loadgen: %s (%llu clients, %llu ops)\n",
                 ok ? "PASS" : "FAIL",
                 static_cast<unsigned long long>(clients_n),
                 static_cast<unsigned long long>(ops));
  }
  return ok ? 0 : 1;
}
