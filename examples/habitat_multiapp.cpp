// Multiple applications sharing one deployed network (paper Secs. 1/2.2),
// on the public embedding API: a habitat-monitoring application logs
// temperature readings while a fire application runs beside it. When fire
// is detected the two coordinate WITHOUT knowing each other — purely
// through the <"fir", loc> tuple: the habitat monitor reacts and
// voluntarily dies, freeing its resources.
//
//   $ ./examples/habitat_multiapp
#include <cstdio>

#include "api/agilla.h"

using namespace agilla;

int main() {
  auto net = api::SimulationBuilder()
                 .grid(3, 1)
                 .seed(3)
                 .packet_loss(0.02)
                 .build();

  // Ambient 20 C; a fire ignites near node (3,1) at t = 120 s.
  net->environment().set_field(
      sim::SensorType::kTemperature,
      std::make_unique<sim::FireField>(sim::FireField::Options{
          .ignition_point = {3, 1},
          .ignition_time = 120 * sim::kSecond,
          .spread_speed = 0.01,
          .peak = 450.0,
          .ambient = 20.0,
          .edge_decay = 0.4}));

  core::BaseStation base = net->base();

  // Application 1: habitat monitoring on every node (a biologist's app).
  std::puts("injecting habitat monitors on all three motes...");
  for (std::size_t i = 0; i < net->mote_count(); ++i) {
    if (i == 0) {
      base.inject(core::agents::habitat_monitor(/*sample_ticks=*/64));
    } else {
      base.inject_at(
          core::assemble_or_die(core::agents::habitat_monitor(64)),
          net->mote(i).location());
    }
  }
  // Application 2: fire detection, sharing the same motes.
  std::puts("injecting a fire detector (a fire marshal's app)...");
  base.inject(core::agents::fire_detector(/*alert_to=*/{1, 1},
                                          /*threshold=*/200,
                                          /*sample_ticks=*/32));

  const ts::Template hab_log{
      ts::Value::string("hab"),
      ts::Value::type_wildcard(ts::ValueType::kReading)};
  const ts::Template fire_alert{
      ts::Value::string("fir"),
      ts::Value::type_wildcard(ts::ValueType::kLocation)};
  bool alert_relayed = false;
  for (int tick = 0; tick < 8; ++tick) {
    net->run_for(30 * sim::kSecond);
    const auto alert = net->mote(0).tuple_space().rdp(fire_alert);
    std::printf(
        "t=%3.0fs  live agents: %zu   habitat log tuples: %zu   fire "
        "alert at base: %s\n",
        static_cast<double>(net->simulator().now()) / 1e6,
        net->agent_count(), net->tuples_matching(hab_log),
        alert.has_value() ? "YES" : "no");
    if (alert.has_value() && !alert_relayed) {
      // The base-station operator relays the evacuation order by dropping
      // the same alert tuple onto every mote — the habitat monitors react
      // to it with zero knowledge of who produced it.
      alert_relayed = true;
      std::puts("        -> base relays the alert tuple to every mote");
      for (std::size_t i = 1; i < net->mote_count(); ++i) {
        base.rout(net->mote(i).location(),
                  ts::Tuple{ts::Value::string("fir"),
                            alert->field(1)});
      }
    }
  }

  std::puts("");
  std::puts("After the alert every habitat monitor saw a <\"fir\", loc>");
  std::puts("tuple in its local tuple space, reacted, and halted — two");
  std::puts("applications coordinated with zero mutual knowledge, exactly");
  std::puts("the decoupling argument of paper Sec. 2.2.");

  // Show that the monitors near the fire are gone while their logged data
  // remains available in the tuple spaces.
  for (std::size_t i = 0; i < net->mote_count(); ++i) {
    core::AgillaMiddleware& mote = net->mote(i);
    std::printf("  mote (%.0f,%.0f): %zu agents, %zu habitat readings kept\n",
                mote.location().x, mote.location().y,
                mote.engine().agents().size(),
                mote.tuple_space().tcount(hab_log));
  }
  return 0;
}
