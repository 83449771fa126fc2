// Host-side scaling of the sharded event engine (DESIGN.md "Sharded
// event engine"): motes vs wall-clock vs peak RSS (total and per mote),
// across grid sizes and sim_shards values. Every cell runs in a forked
// child so ru_maxrss is per-configuration, not the process-lifetime
// maximum; the parent also cross-checks an outcome checksum so the table
// doubles as a determinism gate (same grid, any shard count => same
// simulated outcome). Each cell also prints its event count and the
// checksum in hex, so one grid's outcome can be compared across commits.
//
// Usage:
//   bench_scale [--duration S] [--grid N, repeatable]   full table
//   bench_scale --smoke    quick CI gate: 24x24, shards {1,4}; exits
//       nonzero if the sharded outcome diverges from the serial one.
// A malformed or unknown flag exits 2.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "api/deployment.h"
#include "cli_args.h"

namespace {

using namespace agilla;

struct CellResult {
  double wall_s = 0.0;
  std::uint64_t events = 0;  ///< simulator events executed in the window
  long maxrss_kb = 0;
  std::uint64_t checksum = 0;
};

/// The measured workload: a battery + churn mesh (beacons, LPL, energy
/// settling, kill/reboot) with no injected agents, so event volume scales
/// with mote count alone.
CellResult run_cell(std::size_t side, std::size_t shards,
                    double duration_s) {
  api::DeploymentOptions options;
  options.width = side;
  options.height = side;
  options.seed = 11;
  options.warmup = 2 * sim::kSecond;
  options.energy.battery_mj = 2000.0;
  options.churn.crash_rate_per_node_s = 0.001;
  options.churn.reboot_after = 10 * sim::kSecond;
  options.sim_shards = shards;
  api::Deployment mesh(options);

  CellResult result;
  const auto start = std::chrono::steady_clock::now();
  result.events = mesh.simulator().run_for(
      static_cast<sim::SimTime>(duration_s * 1e6));
  const auto stop = std::chrono::steady_clock::now();

  const sim::NetworkStats stats = mesh.network().stats();
  result.wall_s = std::chrono::duration<double>(stop - start).count();
  result.checksum = stats.frames_sent * 1000003ULL +
                    stats.frames_delivered * 10007ULL +
                    stats.frames_lost * 101ULL +
                    stats.bytes_on_air * 13ULL + stats.node_deaths * 7ULL +
                    stats.node_reboots * 3ULL +
                    mesh.network().alive_count();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.maxrss_kb = usage.ru_maxrss;
  return result;
}

/// Forks, runs the cell in the child, ships the result back over a pipe.
bool run_cell_isolated(std::size_t side, std::size_t shards,
                       double duration_s, CellResult& out) {
  int fds[2];
  if (pipe(fds) != 0) {
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const CellResult result = run_cell(side, shards, duration_s);
    const ssize_t n = write(fds[1], &result, sizeof(result));
    _exit(n == sizeof(result) ? 0 : 1);
  }
  close(fds[1]);
  const ssize_t n = read(fds[0], &out, sizeof(out));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return n == sizeof(out) && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage_error = [](const std::string& message) {
    std::fprintf(stderr,
                 "bench_scale: %s\nusage: bench_scale [--smoke] "
                 "[--duration S] [--grid N]...\n",
                 message.c_str());
    return 2;
  };
  bool smoke = false;
  double duration_s = 20.0;
  std::vector<std::size_t> sides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (arg != "--duration" && arg != "--grid") {
      return usage_error("unknown flag " + arg);
    }
    if (i + 1 >= argc) {
      return usage_error("missing value for " + arg);
    }
    const std::string value = argv[++i];
    if (arg == "--duration") {
      const auto seconds = tools::parse_finite(value);
      if (!seconds || *seconds <= 0.0) {
        return usage_error("bad --duration: " + value);
      }
      duration_s = *seconds;
    } else {
      const auto side = tools::parse_u64(value);
      if (!side || *side == 0 || *side > 4096) {
        return usage_error("bad --grid: " + value);
      }
      sides.push_back(static_cast<std::size_t>(*side));
    }
  }
  std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  if (smoke) {
    sides = {24};
    shard_counts = {1, 4};
    duration_s = 10.0;
  } else if (sides.empty()) {
    sides = {32, 64, 100};
  }

  std::printf("| grid | motes | shards | wall s | events | events/s | "
              "peak RSS MiB | KiB/mote | speedup | outcome |\n");
  std::printf("|------|-------|--------|--------|--------|----------|"
              "--------------|----------|---------|---------|\n");
  bool ok = true;
  for (const std::size_t side : sides) {
    double serial_wall = 0.0;
    std::uint64_t serial_checksum = 0;
    for (const std::size_t shards : shard_counts) {
      CellResult cell;
      if (!run_cell_isolated(side, shards, duration_s, cell)) {
        std::fprintf(stderr, "bench_scale: cell %zux%zu shards=%zu "
                     "failed\n", side, side, shards);
        ok = false;
        continue;
      }
      if (shards == 1) {
        serial_wall = cell.wall_s;
        serial_checksum = cell.checksum;
      }
      const bool same = cell.checksum == serial_checksum;
      ok = ok && same;
      std::printf("| %zux%zu | %zu | %zu | %.2f | %" PRIu64 " | %.0f | "
                  "%.0f | %.1f | %.2fx | %s %016" PRIx64 " |\n",
                  side, side, side * side, shards, cell.wall_s, cell.events,
                  static_cast<double>(cell.events) / cell.wall_s,
                  static_cast<double>(cell.maxrss_kb) / 1024.0,
                  static_cast<double>(cell.maxrss_kb) /
                      static_cast<double>(side * side),
                  serial_wall / cell.wall_s,
                  same ? "identical" : "DIVERGED", cell.checksum);
      std::fflush(stdout);
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "bench_scale: FAILED (divergent outcome or dead cell)\n");
    return 1;
  }
  return 0;
}
