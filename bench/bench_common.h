// Shared infrastructure for the paper-reproduction benches, built on the
// src/harness experiment subsystem: the 5x5 experimental testbed of paper
// Fig. 3 (an api::Deployment with the paper's channel calibration), and
// table/ASCII-plot printing.
#pragma once

#include <cstdio>
#include <string>

#include "core/agent_library.h"
#include "core/assembler.h"
#include "api/deployment.h"
#include "sim/stats.h"

namespace agilla::bench {

/// Channel parameters for the reliability/latency experiments: loss has a
/// per-packet floor plus a per-byte component (longer frames fade more),
/// calibrated so the Fig. 9 anchors land near the paper: smove ~90 % and
/// rout ~80-88 % at 5 hops (see DESIGN.md). A 37-byte data frame loses
/// ~8 % of packets; a 10-byte ack ~3.6 %.
inline constexpr double kExperimentLoss = api::kDefaultLoss;
inline constexpr double kExperimentPerByteLoss = api::kDefaultPerByteLoss;

/// The paper's testbed: a 5x5 MICA2 grid, lower-left node at (1,1): an
/// api::Deployment with the historical positional constructor used across
/// the benches.
class Testbed : public api::Deployment {
 public:
  explicit Testbed(std::uint64_t seed, double packet_loss = kExperimentLoss,
                   core::AgillaConfig config = core::AgillaConfig(),
                   std::size_t width = 5, std::size_t height = 5,
                   double per_byte_loss = 0.0)
      : api::Deployment(api::DeploymentOptions{
            .width = width,
            .height = height,
            .packet_loss = packet_loss,
            .per_byte_loss = per_byte_loss,
            .seed = seed,
            .config = config,
            .warmup = 5 * sim::kSecond}) {}
};

/// Prints "key = value"-style experiment headers uniformly.
inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

/// Simple aligned series printer with an ASCII bar per row.
inline void print_series_row(const std::string& label, double value,
                             double bar_max, const std::string& unit,
                             double stddev = -1.0) {
  std::string bar = sim::ascii_bar(bar_max > 0 ? value / bar_max : 0.0, 32);
  if (stddev >= 0.0) {
    std::printf("  %-14s %9.2f %-4s (+/- %7.2f)  |%s|\n", label.c_str(),
                value, unit.c_str(), stddev, bar.c_str());
  } else {
    std::printf("  %-14s %9.2f %-4s                |%s|\n", label.c_str(),
                value, unit.c_str(), bar.c_str());
  }
}

/// Parses "--trials N" / "--loss P" / "--threads N" style overrides.
struct BenchArgs {
  int trials = 100;
  double loss = kExperimentLoss;
  std::uint64_t seed = 1;
  unsigned threads = 0;  ///< harness workers; 0 = hardware concurrency

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--trials") {
        args.trials = std::stoi(value);
      } else if (key == "--loss") {
        args.loss = std::stod(value);
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--threads") {
        args.threads = static_cast<unsigned>(std::stoi(value));
      }
    }
    return args;
  }
};

}  // namespace agilla::bench
