// The paper's Sec. 5 Agilla-vs-Mate comparison, made quantitative.
//
// Scenario: a 5x5 network runs quietly; the operator wants new behaviour
// on the 2x2 corner region around (4..5, 4..5).
//  * Agilla: inject one agent per target node (weak-moved through the
//    network); only the region is touched.
//  * Mate: inject a higher-version capsule at the base; the capsule floods
//    virally until EVERY node runs the new code ("Mate does not allow a
//    user to control where an application is installed").
// Metrics: frames on the air, bytes on the air, time until the region runs
// the new code, and how many nodes were reprogrammed at all.
#include "bench_common.h"
#include "mate/mate_node.h"

using namespace agilla;
using namespace agilla::bench;

namespace {

struct Outcome {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  double region_time_s = 0.0;
  double network_time_s = 0.0;
  int nodes_touched = 0;
  double steady_bytes_per_s = 0.0;  ///< radio chatter after convergence
};

Outcome run_agilla(std::uint64_t seed) {
  Testbed bed(seed, 0.03);
  core::BaseStation base(bed.mote(0));
  const std::uint64_t frames0 = bed.network().stats().frames_sent;
  const std::uint64_t bytes0 = bed.network().stats().bytes_on_air;
  const sim::SimTime start = bed.simulator().now();

  const sim::Location region[] = {{4, 4}, {5, 4}, {4, 5}, {5, 5}};
  for (const sim::Location target : region) {
    base.inject_at(core::assemble_or_die(
                       "pushn new\nloc\npushc 2\nout\nhalt"),
                   target);
  }

  Outcome outcome;
  const ts::Template marker{
      ts::Value::string("new"),
      ts::Value::type_wildcard(ts::ValueType::kLocation)};
  for (int step = 0; step < 4000; ++step) {
    bed.simulator().run_for(10 * sim::kMillisecond);
    int done = 0;
    for (const sim::Location target : region) {
      if (bed.mote_at(target.x, target.y)
              .tuple_space()
              .rdp(marker)
              .has_value()) {
        ++done;
      }
    }
    if (done == 4) {
      outcome.region_time_s =
          static_cast<double>(bed.simulator().now() - start) / 1e6;
      break;
    }
  }
  for (std::size_t i = 0; i < bed.mote_count(); ++i) {
    if (bed.mote(i).tuple_space().rdp(marker).has_value()) {
      outcome.nodes_touched++;
    }
  }
  outcome.network_time_s = outcome.region_time_s;  // nothing else changes
  outcome.frames = bed.network().stats().frames_sent - frames0;
  outcome.bytes = bed.network().stats().bytes_on_air - bytes0;
  // Steady state after the agents arrived: only neighbour beacons remain.
  const std::uint64_t settled = bed.network().stats().bytes_on_air;
  bed.simulator().run_for(30 * sim::kSecond);
  outcome.steady_bytes_per_s =
      static_cast<double>(bed.network().stats().bytes_on_air - settled) /
      30.0;
  return outcome;
}

Outcome run_mate(std::uint64_t seed) {
  sim::Simulator simulator(seed);
  sim::Network network(simulator, sim::ChannelLoss{.packet_loss = 0.03});
  const sim::Topology grid = sim::make_grid(network, 5, 5);
  sim::SensorEnvironment environment;
  std::vector<std::unique_ptr<mate::MateNode>> nodes;
  for (const sim::NodeId id : grid.nodes) {
    nodes.push_back(
        std::make_unique<mate::MateNode>(network, id, &environment));
    nodes.back()->start();
  }
  // Version 1 runs everywhere first (the incumbent application).
  const std::uint8_t v1_code[] = {
      static_cast<std::uint8_t>(mate::MateOp::kPushc), 1,
      static_cast<std::uint8_t>(mate::MateOp::kPutLed),
      static_cast<std::uint8_t>(mate::MateOp::kForw),
      static_cast<std::uint8_t>(mate::MateOp::kHalt)};
  nodes[0]->install(
      mate::make_capsule(mate::CapsuleType::kClock, 1, v1_code));
  simulator.run_for(60 * sim::kSecond);

  const std::uint64_t frames0 = network.stats().frames_sent;
  const std::uint64_t bytes0 = network.stats().bytes_on_air;
  const sim::SimTime start = simulator.now();
  // Reprogram: version 2 injected at the base, inevitably flooding all 25.
  const std::uint8_t v2_code[] = {
      static_cast<std::uint8_t>(mate::MateOp::kPushc), 2,
      static_cast<std::uint8_t>(mate::MateOp::kPutLed),
      static_cast<std::uint8_t>(mate::MateOp::kForw),
      static_cast<std::uint8_t>(mate::MateOp::kHalt)};
  nodes[0]->install(
      mate::make_capsule(mate::CapsuleType::kClock, 2, v2_code));

  Outcome outcome;
  const std::size_t region_indexes[] = {18, 19, 23, 24};  // (4..5, 4..5)
  bool region_done = false;
  for (int step = 0; step < 6000; ++step) {
    simulator.run_for(50 * sim::kMillisecond);
    if (!region_done) {
      int done = 0;
      for (const std::size_t i : region_indexes) {
        if (nodes[i]->version_of(mate::CapsuleType::kClock) == 2) {
          ++done;
        }
      }
      if (done == 4) {
        outcome.region_time_s =
            static_cast<double>(simulator.now() - start) / 1e6;
        region_done = true;
      }
    }
    int all = 0;
    for (const auto& node : nodes) {
      if (node->version_of(mate::CapsuleType::kClock) == 2) {
        ++all;
      }
    }
    if (all == 25) {
      outcome.network_time_s =
          static_cast<double>(simulator.now() - start) / 1e6;
      break;
    }
  }
  for (const auto& node : nodes) {
    if (node->version_of(mate::CapsuleType::kClock) == 2) {
      outcome.nodes_touched++;
    }
  }
  outcome.frames = network.stats().frames_sent - frames0;
  outcome.bytes = network.stats().bytes_on_air - bytes0;
  // Steady state: every clock capsule keeps forw-ing, forever.
  const std::uint64_t settled = network.stats().bytes_on_air;
  simulator.run_for(30 * sim::kSecond);
  outcome.steady_bytes_per_s =
      static_cast<double>(network.stats().bytes_on_air - settled) / 30.0;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header(
      "Agilla vs Mate — reprogramming a 2x2 region of a 5x5 network",
      "Fok et al., Secs. 1 & 5 (qualitative comparison made quantitative)");

  const Outcome agilla = run_agilla(args.seed);
  const Outcome mate = run_mate(args.seed + 1);

  std::printf("\n  metric                      Agilla        Mate\n");
  std::printf("  ------------------------    ----------    ----------\n");
  std::printf("  frames on the air           %8llu      %8llu\n",
              static_cast<unsigned long long>(agilla.frames),
              static_cast<unsigned long long>(mate.frames));
  std::printf("  bytes on the air            %8llu      %8llu\n",
              static_cast<unsigned long long>(agilla.bytes),
              static_cast<unsigned long long>(mate.bytes));
  std::printf("  region reprogrammed (s)     %8.1f      %8.1f\n",
              agilla.region_time_s, mate.region_time_s);
  std::printf("  whole network settled (s)   %8.1f      %8.1f\n",
              agilla.network_time_s, mate.network_time_s);
  std::printf("  nodes touched               %8d      %8d\n",
              agilla.nodes_touched, mate.nodes_touched);
  std::printf("  steady-state bytes/s        %8.1f      %8.1f\n",
              agilla.steady_bytes_per_s, mate.steady_bytes_per_s);
  std::printf("     (Agilla: 13 B neighbour beacons; Mate: 36 B capsule "
              "floods, forever)\n");

  std::printf(
      "\npaper argument reproduced: Mate must distribute code to the whole\n"
      "network and replaces the single running application everywhere\n"
      "(%d/25 nodes), while Agilla delivers agents only to the %d nodes\n"
      "that need them and leaves every other node's applications alone.\n"
      "Mate's flooding also continues indefinitely (every forw rebroadcasts)\n"
      "whereas Agilla's cost ends when the agents arrive.\n",
      mate.nodes_touched, agilla.nodes_touched);
  return 0;
}
