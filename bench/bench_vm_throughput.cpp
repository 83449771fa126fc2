// Host-side VM throughput (ROADMAP item 4): executed instructions per
// wall-clock second on one isolated mote, for the reference switch
// interpreter vs the pre-decoded threaded dispatch (core/vm_dispatch.h).
// This measures the simulator's own speed — the simulated VM cost
// clock is identical in both modes (tests/test_dispatch_equivalence.cpp).
//
// Usage:
//   bench_vm_throughput [--seconds S] [--reps N]   full table (default)
//   bench_vm_throughput --smoke                    quick CI gate: exits
//       nonzero if threaded dispatch is slower than switch anywhere.
// A malformed or unknown flag exits 2.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli_args.h"
#include "core/assembler.h"
#include "core/middleware.h"

namespace {

using namespace agilla;

struct Workload {
  const char* name;
  std::string source;
  int agents = 1;
};

std::vector<Workload> make_workloads() {
  // A straight-line body (211 bytes) of short instructions, where the
  // switch interpreter's fetch-and-decode on every execution dominates.
  std::string straight;
  for (int i = 0; i < 70; ++i) {
    straight += "pushc 1\npop\n";
  }
  straight += "jump 0\n";

  const std::string tight = "LOOP pushc 1\npushc 2\nadd\npop\nrjump LOOP\n";
  const std::string tuple =
      "LOOP pushc 5\npushc 1\nout\n"
      "pusht NUMBER\npushc 1\ninp\npop\nrjump LOOP\n";

  return {
      {"tight_loop", tight, 1},
      {"long_body", straight, 1},
      {"tight_x4", tight, 4},
      {"tuple_churn", tuple, 1},
  };
}

/// Instructions per wall-clock second for one (mode, workload) cell, on an
/// isolated never-started mote (no radio traffic competes for sim events).
double measure(core::DispatchMode mode, const Workload& workload,
               double min_seconds) {
  sim::Simulator simulator{42};
  sim::Network network{simulator};
  sim::SensorEnvironment environment;
  core::AgillaConfig config;
  config.engine.dispatch = mode;
  const sim::NodeId id = network.add_node({1, 1});
  core::ProgramTable programs;
  core::AgillaMiddleware mote(network, id, &environment, programs, config);
  const auto code = core::assemble_or_die(workload.source);
  for (int i = 0; i < workload.agents; ++i) {
    if (!mote.inject(code).has_value()) {
      std::fprintf(stderr, "inject failed for %s\n", workload.name);
      std::exit(2);
    }
  }
  simulator.run_for(sim::kSecond);  // warm up caches and the event queue

  const std::uint64_t start_insns = mote.engine().stats().instructions;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    simulator.run_for(10 * sim::kSecond);
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  } while (elapsed < min_seconds);
  const std::uint64_t insns = mote.engine().stats().instructions - start_insns;
  return static_cast<double>(insns) / elapsed;
}

/// Best-of-N to tame host-scheduling noise.
double measure_best(core::DispatchMode mode, const Workload& workload,
                    double min_seconds, int reps) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double ops = measure(mode, workload, min_seconds);
    if (ops > best) {
      best = ops;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage_error = [](const std::string& message) {
    std::fprintf(stderr,
                 "bench_vm_throughput: %s\nusage: bench_vm_throughput "
                 "[--smoke] [--seconds S] [--reps N]\n",
                 message.c_str());
    return 2;
  };
  bool smoke = false;
  double seconds = 0.4;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (arg != "--seconds" && arg != "--reps") {
      return usage_error("unknown flag " + arg);
    }
    if (i + 1 >= argc) {
      return usage_error("missing value for " + arg);
    }
    const std::string value = argv[++i];
    if (arg == "--seconds") {
      const auto parsed = tools::parse_finite(value);
      if (!parsed || *parsed <= 0.0) {
        return usage_error("bad --seconds: " + value);
      }
      seconds = *parsed;
    } else {
      const auto parsed = tools::parse_u64(value);
      if (!parsed || *parsed == 0 || *parsed > 1000) {
        return usage_error("bad --reps: " + value);
      }
      reps = static_cast<int>(*parsed);
    }
  }
  if (smoke) {
    seconds = 0.15;
    reps = 2;
  }

  std::printf("VM throughput: host-side executed instructions per second\n");
  std::printf("(simulated mote cost is identical in both modes)\n\n");
  std::printf("  %-12s %14s %14s %9s\n", "workload", "switch ops/s",
              "threaded ops/s", "speedup");
  std::printf("  %-12s %14s %14s %9s\n", "--------", "------------",
              "--------------", "-------");

  bool ok = true;
  for (const Workload& workload : make_workloads()) {
    const double sw = measure_best(core::DispatchMode::kSwitch, workload,
                                   seconds, reps);
    const double th = measure_best(core::DispatchMode::kThreaded, workload,
                                   seconds, reps);
    std::printf("  %-12s %14.0f %14.0f %8.2fx\n", workload.name, sw, th,
                sw > 0 ? th / sw : 0.0);
    if (th < sw) {
      ok = false;
    }
  }

  if (smoke) {
    if (!ok) {
      std::printf("\nSMOKE FAIL: threaded dispatch slower than switch\n");
      return 1;
    }
    std::printf("\nsmoke ok: threaded >= switch on every workload\n");
  }
  return 0;
}
