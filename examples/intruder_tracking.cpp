// The paper's Sec. 1 programming-model claim, running on the public
// embedding API: "instead of worrying about how nodes must coordinate to
// track an intruder, a mobile agent programmer can think of an agent
// following the intruder by repeatedly migrating to the node that best
// detects it."
//
// An intruder (a moving magnetometer source) patrols the field; SENTINEL
// agents on every node publish their current reading as a tuple; a single
// PURSUER agent polls its neighbours' tuples with rrdp and strong-moves to
// whichever node hears the intruder loudest. An observer on the event bus
// counts the pursuer's migrations — the coordination the programmer never
// had to write.
//
//   $ ./examples/intruder_tracking
#include <cmath>
#include <cstdio>
#include <string>

#include "api/agilla.h"
#include "sim/stats.h"

using namespace agilla;

namespace {

constexpr std::size_t kGrid = 5;

/// The pursuer is wherever two agents share a node (sentinel + pursuer).
int pursuer_index(api::Deployment& net) {
  for (std::size_t i = 0; i < net.mote_count(); ++i) {
    if (net.mote(i).engine().agents().size() >= 2) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace

int main() {
  api::EventCounter counter;
  auto net = api::SimulationBuilder()
                 .grid(kGrid, kGrid)
                 .seed(17)
                 .packet_loss(0.02)
                 .observe(counter)
                 .build();

  // The intruder walks the perimeter of the field, slowly.
  const sim::MovingBumpField::Options intruder_options{
      .waypoints = {{1, 1}, {5, 1}, {5, 5}, {1, 5}},
      .speed = 0.05,
      .peak = 400.0,
      .sigma = 1.0,
      .ambient = 5.0,
      .loop = true};
  net->environment().set_field(
      sim::SensorType::kMagnetometer,
      std::make_unique<sim::MovingBumpField>(intruder_options));
  const sim::MovingBumpField intruder(intruder_options);  // for rendering

  core::BaseStation base = net->base();
  std::puts("injecting SENTINEL (flood-deploys, publishes <sig, reading>)");
  base.inject(core::agents::sentinel(/*sample_ticks=*/8));
  net->run_for(30 * sim::kSecond);  // let sentinels claim the grid
  const std::uint64_t deploy_migrations = counter.agent_migrations;
  std::puts("injecting PURSUER (follows the loudest magnetometer signal)\n");
  base.inject(core::agents::pursuer(/*nap_ticks=*/8));

  sim::Summary distance_track;
  for (int frame = 0; frame < 10; ++frame) {
    net->run_for(20 * sim::kSecond);
    const sim::Location truth = intruder.center(net->simulator().now());
    const int pursuer = pursuer_index(*net);
    if (pursuer >= 0) {
      const sim::Location at =
          net->mote(static_cast<std::size_t>(pursuer)).location();
      distance_track.add(distance(truth, at));
    }

    std::printf("t = %3.0f s   intruder at (%.1f,%.1f)\n",
                static_cast<double>(net->simulator().now()) / 1e6, truth.x,
                truth.y);
    for (std::size_t row = kGrid; row-- > 0;) {
      std::string line = "  ";
      for (std::size_t col = 0; col < kGrid; ++col) {
        const std::size_t index = row * kGrid + col;
        const sim::Location cell = net->mote(index).location();
        const bool is_intruder = distance(cell, truth) < 0.71;
        const bool is_pursuer = static_cast<int>(index) == pursuer;
        char glyph = '.';
        if (is_intruder && is_pursuer) {
          glyph = '@';  // caught!
        } else if (is_intruder) {
          glyph = 'I';
        } else if (is_pursuer) {
          glyph = 'P';
        }
        line += glyph;
        line += ' ';
      }
      std::puts(line.c_str());
    }
    std::puts("");
  }

  std::printf("mean pursuer-to-intruder distance: %.2f grid units "
              "(grid diagonal: %.1f)\n",
              distance_track.mean(), std::sqrt(2.0) * (kGrid - 1));
  std::printf("migrations during the chase (event bus): %llu\n",
              static_cast<unsigned long long>(counter.agent_migrations -
                                              deploy_migrations));
  std::puts("The pursuer's entire \"coordination protocol\" is 60 lines of");
  std::puts("agent assembly: sense, rrdp the neighbours, smove to the max.");
  return 0;
}
