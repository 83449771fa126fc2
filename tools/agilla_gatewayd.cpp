// agilla_gatewayd: the networked gateway daemon — the paper Sec. 3.1
// base-station server ("an RMI server that allows anyone on the Internet
// to remotely access the sensor network") rebuilt on the deterministic
// simulation. It hosts one Agilla mesh and serves the svc::wire protocol
// over TCP: any number of clients open sessions, inject agents, perform
// remote tuple space operations, and subscribe to event streams.
//
//   # 8x8 mesh on an ephemeral port, port written for scripts
//   $ agilla_gatewayd --grid 8x8 --listen 127.0.0.1:0 --port-file port.txt
//
// SIGINT/SIGTERM drain every session (byeack, flush), write the metrics
// JSON (--metrics FILE, default stdout), and exit 0.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "api/deployment.h"
#include "svc/gateway_service.h"
#include "svc/tcp_transport.h"

#include "cli_args.h"

using namespace agilla;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

void print_usage() {
  std::printf(
      "usage: agilla_gatewayd [options]\n"
      "  --grid WxH           mesh size (default: 8x8)\n"
      "  --seed S             RNG seed (default: 1)\n"
      "  --listen HOST:PORT   listen address; port 0 = ephemeral "
      "(default: 127.0.0.1:0)\n"
      "  --port-file FILE     write the resolved port here after bind\n"
      "  --max-sessions N     session limit (default: 1024)\n"
      "  --queue-cap N        per-session outbound queue cap (default: "
      "1024)\n"
      "  --slice-ms M         virtual ms simulated per service turn "
      "(default: 20)\n"
      "  --param NAME=V       registry knob, repeatable (see agilla_sim "
      "--list-knobs)\n"
      "  --metrics FILE       write the shutdown metrics JSON here "
      "(default: stdout)\n"
      "SIGINT/SIGTERM drain sessions, flush metrics, exit 0.\n");
}

int fail(const char* message) {
  std::fprintf(stderr, "agilla_gatewayd: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t width = 8;
  std::size_t height = 8;
  std::string listen_host = "127.0.0.1";
  int listen_port = 0;
  std::string port_file;
  std::string metrics_file;
  svc::ServiceOptions service_options;
  sim::SimTime slice = 20 * sim::kMillisecond;
  api::SimulationBuilder builder;
  builder.grid(width, height);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--grid") {
      const char* value = next();
      if (value == nullptr ||
          std::sscanf(value, "%zux%zu", &width, &height) != 2 ||
          width == 0 || height == 0) {
        return fail("--grid expects WxH");
      }
      builder.grid(width, height);
    } else if (arg == "--seed") {
      const auto seed = tools::parse_u64(next());
      if (!seed) {
        return fail("--seed expects a number");
      }
      builder.seed(*seed);
    } else if (arg == "--listen") {
      const char* value = next();
      if (value == nullptr) {
        return fail("--listen expects HOST:PORT");
      }
      const std::string spec = value;
      const auto colon = spec.rfind(':');
      if (colon == std::string::npos) {
        return fail("--listen expects HOST:PORT");
      }
      listen_host = spec.substr(0, colon);
      const auto port = tools::parse_u64(spec.substr(colon + 1));
      if (!port || *port > 65535) {
        return fail("--listen port must be a number in [0, 65535]");
      }
      listen_port = static_cast<int>(*port);
    } else if (arg == "--port-file") {
      const char* value = next();
      if (value == nullptr) {
        return fail("--port-file expects a path");
      }
      port_file = value;
    } else if (arg == "--metrics") {
      const char* value = next();
      if (value == nullptr) {
        return fail("--metrics expects a path");
      }
      metrics_file = value;
    } else if (arg == "--max-sessions") {
      const auto sessions = tools::parse_u64(next());
      if (!sessions || *sessions == 0) {
        return fail("--max-sessions expects a positive number");
      }
      service_options.max_sessions = *sessions;
    } else if (arg == "--queue-cap") {
      const auto cap = tools::parse_u64(next());
      if (!cap || *cap == 0) {
        return fail("--queue-cap expects a positive number");
      }
      service_options.queue_cap = *cap;
    } else if (arg == "--slice-ms") {
      const auto ms = tools::parse_u64(next());
      if (!ms || *ms == 0) {
        return fail("--slice-ms expects a positive number");
      }
      slice = *ms * sim::kMillisecond;
    } else if (arg == "--param") {
      const char* value = next();
      const char* eq = value == nullptr ? nullptr : std::strchr(value, '=');
      const auto number =
          eq == nullptr ? std::nullopt : tools::parse_finite(eq + 1);
      if (!number) {
        return fail("--param expects NAME=VALUE with a numeric VALUE");
      }
      try {
        builder.set(std::string(value, eq), *number);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "agilla_gatewayd: %s\n", e.what());
        return 2;
      }
    } else {
      print_usage();
      return fail(("unknown option '" + arg + "'").c_str());
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  auto deployment = builder.build();

  svc::TcpTransport transport(svc::TcpTransport::Options{
      listen_host, static_cast<std::uint16_t>(listen_port), 128});
  std::string error;
  if (!transport.start(&error)) {
    return fail(error.c_str());
  }
  std::fprintf(stderr, "agilla_gatewayd: %zux%zu mesh, listening on %s:%u\n",
               width, height, listen_host.c_str(), transport.port());
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << transport.port() << "\n";
  }

  svc::GatewayService service(*deployment, transport, service_options);

  // Service loop, entirely on this (the simulation) thread: collect
  // transport events, run the mesh one slice, repeat. The short sleep
  // keeps an idle daemon off the CPU; under load the transport queues
  // bytes while the slice runs.
  while (g_stop == 0) {
    service.pump();
    deployment->run_for(slice);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  service.shutdown();
  transport.stop();

  const std::string metrics = service.metrics_json();
  if (metrics_file.empty()) {
    std::printf("%s\n", metrics.c_str());
  } else {
    std::ofstream out(metrics_file);
    out << metrics << "\n";
  }
  std::fprintf(stderr, "agilla_gatewayd: drained, exiting\n");
  return 0;
}
