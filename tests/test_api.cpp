// The embedding API's contracts: the KnobRegistry is the single source
// of truth (defaults match the nested layer fields, every knob is
// settable, readable, and listed; ranges reject bad values), each
// setting has one home (nested config fields reach every mote),
// SimulationBuilder composes working deployments, the EventBus observes every advertised
// event kind with deterministic dispatch order, and observer-derived
// metrics survive the harness determinism gate (threads 1 vs 8
// byte-identical JSON).
#include "api/agilla.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/json_writer.h"
#include "harness/runner.h"
#include "harness/scenario.h"

namespace agilla::api {
namespace {

/// An in-range probe value distinct from the knob's default.
double probe_value(const KnobInfo& knob) {
  switch (knob.type) {
    case KnobType::kBool:
      return knob.def == 0.0 ? 1.0 : 0.0;
    case KnobType::kInt: {
      double candidate = knob.min == knob.def ? knob.min + 1 : knob.min;
      if (candidate > knob.max) {
        candidate = knob.max;
      }
      return candidate;
    }
    case KnobType::kDouble:
      break;
  }
  if (std::isinf(knob.max)) {
    return knob.min + 1.5;
  }
  const double candidate = (knob.min + knob.max) / 2.0;
  return candidate == knob.def ? (candidate + knob.max) / 2.0 : candidate;
}

TEST(KnobRegistry, DefaultsMatchDeploymentOptionsInitializers) {
  const DeploymentOptions defaults;
  for (const KnobInfo& knob : knob_registry()) {
    if (knob.read == nullptr) {
      continue;  // scenario-read knob; its default lives in the scenario
    }
    EXPECT_EQ(knob.read(defaults), knob.def)
        << knob.name << " field initializer disagrees with the registry";
  }
}

TEST(KnobRegistry, EveryKnobSettableReadableListed) {
  for (const KnobInfo& knob : knob_registry()) {
    const double value = probe_value(knob);
    ASSERT_TRUE(validate_knob(knob, value).empty())
        << knob.name << ": probe value " << value << " not in "
        << range_to_string(knob);
    SimulationBuilder builder;
    builder.set(knob.name, value);
    EXPECT_EQ(builder.knob(knob.name), value) << knob.name;
    // Listed: findable by name, with printable metadata.
    const KnobInfo* found = find_knob(knob.name);
    ASSERT_NE(found, nullptr);
    EXPECT_FALSE(range_to_string(*found).empty());
    EXPECT_FALSE(default_to_string(*found).empty());
    EXPECT_NE(found->doc[0], '\0') << knob.name << " has no doc string";
    EXPECT_NE(found->unit[0], '\0') << knob.name << " has no unit";
  }
}

TEST(KnobRegistry, SharedKnobsReachDeploymentOptions) {
  // Every shared knob must map onto DeploymentOptions — a shared knob
  // nothing applies would silently do nothing in every scenario.
  for (const KnobInfo& knob : knob_registry()) {
    if (knob.shared()) {
      EXPECT_NE(knob.apply, nullptr) << knob.name;
      EXPECT_NE(knob.read, nullptr) << knob.name;
    } else {
      EXPECT_EQ(knob.apply, nullptr)
          << knob.name << ": scenario-read knobs must not alias options";
    }
  }
}

TEST(KnobRegistry, RangeValidation) {
  EXPECT_TRUE(validate_knob("duty_cycle", 0.2).empty());
  EXPECT_TRUE(validate_knob("duty_cycle", 1.0).empty());
  // Open lower bound: 0 is out.
  EXPECT_FALSE(validate_knob("duty_cycle", 0.0).empty());
  EXPECT_FALSE(validate_knob("duty_cycle", 1.5).empty());
  // Int knobs reject fractional values, bools anything but 0/1.
  EXPECT_FALSE(validate_knob("route_policy", 0.5).empty());
  EXPECT_FALSE(validate_knob("route_policy", 2.0).empty());
  EXPECT_TRUE(validate_knob("beacon_suppression", -1.0).empty());
  EXPECT_FALSE(validate_knob("beacon_suppression", -2.0).empty());
  EXPECT_FALSE(validate_knob("adaptive_lpl", 0.5).empty());
  EXPECT_FALSE(validate_knob("gateway_powered", 2.0).empty());
  // The error names the range and the unit (the CLI relays it verbatim).
  const std::string error = validate_knob("duty_cycle", 0.0);
  EXPECT_NE(error.find("(0, 1]"), std::string::npos) << error;
  EXPECT_NE(error.find("fraction"), std::string::npos) << error;
  EXPECT_FALSE(validate_knob("no_such_knob", 1.0).empty());
}

TEST(KnobRegistry, BuilderRejectsBadKnobs) {
  SimulationBuilder builder;
  EXPECT_THROW(builder.set("no_such_knob", 1.0), std::invalid_argument);
  EXPECT_THROW(builder.set("duty_cycle", 2.0), std::invalid_argument);
  EXPECT_THROW((void)builder.knob("no_such_knob"), std::invalid_argument);
}

TEST(KnobRegistry, ScenarioKnobListsDeriveFromRegistry) {
  const harness::ScenarioInfo* fire =
      harness::find_scenario("fire_tracking");
  ASSERT_NE(fire, nullptr);
  EXPECT_EQ(fire->knobs, scenario_knob_names("fire_tracking"));
  const auto has = [&](const char* name) {
    return std::find(fire->knobs.begin(), fire->knobs.end(), name) !=
           fire->knobs.end();
  };
  EXPECT_TRUE(has("spread_speed"));
  EXPECT_TRUE(has("gateway_powered"));
  EXPECT_TRUE(has("overhearing"));
  EXPECT_FALSE(has("hops"));
  // store_ops runs no radio: only its own knob.
  const harness::ScenarioInfo* store = harness::find_scenario("store_ops");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->knobs, std::vector<std::string>{"fillers"});
}

TEST(KnobRegistry, ApplyKnobsMatchesBuilderSet) {
  const std::map<std::string, double> params = {
      {"battery_mj", 1500.0}, {"duty_cycle", 0.25},
      {"route_policy", 1.0},  {"gateway_powered", 0.0},
      {"overhearing", 1.0},   {"spread_speed", 0.5}};
  DeploymentOptions via_apply;
  apply_knobs(via_apply, params);
  SimulationBuilder builder;
  for (const auto& [name, value] : params) {
    builder.set(name, value);
  }
  for (const KnobInfo& knob : knob_registry()) {
    if (knob.read != nullptr) {
      EXPECT_EQ(knob.read(via_apply), knob.read(builder.options()))
          << knob.name;
    }
  }
  // The scenario-read knob landed in the builder's param map instead.
  EXPECT_EQ(builder.params().at("spread_speed"), 0.5);
}

TEST(SimulationBuilder, NestedConfigFieldsReachEveryMote) {
  // Each setting has one home: a non-default nested field handed in
  // through config() arrives on every mote unchanged.
  core::AgillaConfig config;
  config.routing.policy = net::RoutePolicy::kMaxMinResidual;
  config.routing.energy_weight = 0.8;
  config.engine.dispatch = core::DispatchMode::kSwitch;
  config.tuple_space.store_kind = ts::StoreKind::kIndexed;
  config.neighbors.suppression = net::Suppression::kOn;
  auto mesh =
      SimulationBuilder().grid(2, 2).seed(3).warmup(0).config(config).build();
  ASSERT_EQ(mesh->mote_count(), 4u);
  for (std::size_t i = 0; i < mesh->mote_count(); ++i) {
    const core::AgillaConfig& got = mesh->mote(i).config();
    EXPECT_EQ(got.routing.policy, net::RoutePolicy::kMaxMinResidual) << i;
    EXPECT_EQ(got.routing.energy_weight, 0.8) << i;
    EXPECT_EQ(got.engine.dispatch, core::DispatchMode::kSwitch) << i;
    EXPECT_EQ(got.tuple_space.store_kind, ts::StoreKind::kIndexed) << i;
    EXPECT_EQ(got.neighbors.suppression, net::Suppression::kOn) << i;
    EXPECT_TRUE(mesh->mote(i).neighbors().suppressing()) << i;
  }
}

TEST(Deployment, AutoBeaconSuppressionFollowsLpl) {
  const auto suppressing = [](double duty_cycle, double setting) {
    auto mesh = SimulationBuilder()
                    .grid(2, 1)
                    .warmup(0)
                    .set("duty_cycle", duty_cycle)
                    .set("beacon_suppression", setting)
                    .build();
    return mesh->mote(1).neighbors().suppressing();
  };
  EXPECT_FALSE(suppressing(1.0, -1.0)) << "auto, always-on radio";
  EXPECT_TRUE(suppressing(0.2, -1.0)) << "auto, LPL";
  EXPECT_FALSE(suppressing(0.2, 0.0)) << "forced off under LPL";
  EXPECT_TRUE(suppressing(1.0, 1.0)) << "forced on without LPL";
}

// ---------------------------------------------------------- event bus

TEST(EventBus, ObservesAgentTupleFrameAndMigrationEvents) {
  EventCounter counter;
  auto net = SimulationBuilder()
                 .grid(2, 1)
                 .seed(5)
                 .packet_loss(0.0)
                 .observe(counter)
                 .build();
  EXPECT_GT(counter.beacons, 0u) << "warm-up beacons reach observers";
  EXPECT_GT(counter.frames_tx, 0u);
  EXPECT_GT(counter.frames_rx, 0u);
  EXPECT_GT(counter.tuple_ops, 0u) << "context seeding is observable";

  const std::uint64_t spawns_before = counter.agent_spawns;
  net->mote(0).inject(core::assemble_or_die(
      "pushloc 2 1\nsmove\nhalt\n"));
  net->run_for(5 * sim::kSecond);
  // Injection spawn + arrival install on the far node.
  EXPECT_GE(counter.agent_spawns, spawns_before + 2);
  EXPECT_EQ(counter.agent_migrations, 1u);
  // Departure ("migrated") + the arrival's eventual halt.
  EXPECT_EQ(counter.agent_kills, 2u);
  EXPECT_EQ(net->agent_count(), 0u);
}

TEST(EventBus, ObservesAgentBlockAndResume) {
  struct BlockLog : Observer {
    std::vector<std::string> reasons;
    std::uint64_t resumes = 0;
    void on_event(const sim::Event& event) override {
      if (event.kind == sim::EventKind::kAgentBlock) {
        reasons.emplace_back(event.reason);
      } else if (event.kind == sim::EventKind::kAgentResume) {
        ++resumes;
      }
    }
  };
  BlockLog log;
  auto net = SimulationBuilder()
                 .grid(1, 1)
                 .seed(5)
                 .packet_loss(0.0)
                 .observe(log)
                 .build();
  log.reasons.clear();
  log.resumes = 0;

  // sleep blocks and the timer resumes; the blocking in blocks until the
  // second agent's out resumes it.
  net->mote(0).inject(core::assemble_or_die(
      "pushc 2\nsleep\npusht NUMBER\npushc 1\nin\nhalt\n"));
  net->run_for(2 * sim::kSecond);
  ASSERT_EQ(log.reasons, (std::vector<std::string>{"sleep", "tuple"}));
  EXPECT_EQ(log.resumes, 1u) << "sleep timer fired; in still parked";

  net->mote(0).inject(core::assemble_or_die(
      "pushc 9\npushc 1\nout\nhalt\n"));
  net->run_for(2 * sim::kSecond);
  EXPECT_EQ(log.resumes, 2u) << "matching out resumed the blocked in";
  EXPECT_EQ(net->agent_count(), 0u);
}

TEST(EventBus, DispatchFollowsSubscriptionOrder) {
  struct Tagger : Observer {
    std::vector<int>* log;
    int tag;
    Tagger(std::vector<int>* l, int t) : log(l), tag(t) {}
    void on_event(const sim::Event& event) override {
      if (event.kind == sim::EventKind::kFrameTx) {
        log->push_back(tag);
      }
    }
  };
  std::vector<int> log;
  Tagger first(&log, 1);
  Tagger second(&log, 2);
  auto net = SimulationBuilder()
                 .grid(2, 1)
                 .seed(5)
                 .observe(first)
                 .observe(second)
                 .build();
  ASSERT_GE(log.size(), 4u);
  for (std::size_t i = 0; i + 1 < log.size(); i += 2) {
    EXPECT_EQ(log[i], 1);
    EXPECT_EQ(log[i + 1], 2);
  }
  // Subscribing again only updates the mask: `first` keeps its place
  // ahead of `second`.
  net->bus().subscribe(first, sim::mask_of(sim::EventKind::kFrameTx,
                                           sim::EventKind::kFrameRx));
  const std::size_t before_update = log.size();
  net->run_for(2 * sim::kSecond);
  ASSERT_GT(log.size(), before_update);
  for (std::size_t i = before_update; i + 1 < log.size(); i += 2) {
    EXPECT_EQ(log[i], 1);
    EXPECT_EQ(log[i + 1], 2);
  }
  // Unsubscribe stops delivery.
  net->bus().unsubscribe(first);
  const std::size_t frozen = log.size();
  net->run_for(2 * sim::kSecond);
  EXPECT_GT(log.size(), frozen);
  EXPECT_TRUE(std::all_of(log.begin() + static_cast<long>(frozen),
                          log.end(), [](int t) { return t == 2; }));
}

TEST(EventBus, UnsubscribeFromInsideACallbackIsSafe) {
  struct StopAfterOne : Observer {
    EventBus* bus = nullptr;
    std::uint64_t seen = 0;
    void on_event(const sim::Event& event) override {
      if (event.kind != sim::EventKind::kFrameTx) {
        return;
      }
      ++seen;
      bus->unsubscribe(*this);  // re-entrant: must not break dispatch
    }
  };
  auto net = SimulationBuilder().grid(2, 1).seed(5).build();
  const std::size_t internal = net->bus().observer_count();
  StopAfterOne quitter;
  quitter.bus = &net->bus();
  EventCounter counter;
  net->bus().subscribe(quitter);  // dispatches before counter
  net->bus().subscribe(counter);
  net->run_for(5 * sim::kSecond);
  EXPECT_EQ(quitter.seen, 1u);
  EXPECT_GT(counter.frames_tx, 1u)
      << "later subscribers keep receiving after a mid-dispatch erase";
  EXPECT_EQ(net->bus().observer_count(), internal + 1);
}

TEST(EventBus, WithoutObserversNothingIsInstalledOrDelivered) {
  // A standalone bus with nobody listening drops what it is handed.
  EventBus standalone;
  standalone.publish(sim::Event(sim::EventKind::kNodeUp, 0));
  EXPECT_EQ(standalone.observer_count(), 0u);

  // The simulator builds only the kinds somebody wants. A fresh
  // deployment wants node down/up (its death log) and nothing else.
  auto net = SimulationBuilder().grid(2, 1).seed(5).warmup(0).build();
  const sim::Simulator& simulator = net->simulator();
  const auto observed_kinds = [&] {
    std::vector<sim::EventKind> kinds;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(sim::EventKind::kCount); ++k) {
      if (simulator.observes(static_cast<sim::EventKind>(k))) {
        kinds.push_back(static_cast<sim::EventKind>(k));
      }
    }
    return kinds;
  };
  const std::vector<sim::EventKind> start = {sim::EventKind::kNodeDown,
                                             sim::EventKind::kNodeUp};
  EXPECT_EQ(observed_kinds(), start);

  // A default-mask observer adds every kind but the instruction stream.
  EventCounter counter;
  net->bus().subscribe(counter);
  EXPECT_TRUE(simulator.observes(sim::EventKind::kFrameTx));
  EXPECT_TRUE(simulator.observes(sim::EventKind::kTupleOp));
  EXPECT_FALSE(simulator.observes(sim::EventKind::kInsn));
  net->run_for(2 * sim::kSecond);
  EXPECT_GT(counter.frames_tx, 0u);

  net->bus().unsubscribe(counter);
  EXPECT_EQ(observed_kinds(), start);
  const std::uint64_t frozen = counter.frames_tx;
  net->run_for(2 * sim::kSecond);
  EXPECT_EQ(counter.frames_tx, frozen);
}

TEST(Deployment, OverhearingIsPureEnergyAccounting) {
  // With adaptive LPL active but NO batteries, the energy subsystem is
  // attached yet overhearing must change nothing: it only charges
  // ledgers (absent here) and never feeds the controller's traffic
  // signal, so schedules, deliveries, and stats stay identical.
  const auto frames_sent = [](bool overhearing) {
    SimulationBuilder builder;
    builder.grid(3, 1).seed(31).set("adaptive_lpl", 1.0);
    builder.set("overhearing", overhearing ? 1.0 : 0.0);
    auto net = builder.build();
    net->mote(1).inject(core::assemble_or_die(
        "LOOP pushn rpt\nloc\npushc 2\npushloc 3 1\nrout\n"
        "pushcl 8\nsleep\njump LOOP\n"));
    net->run_for(20 * sim::kSecond);
    return net->network().stats().frames_sent;
  };
  EXPECT_EQ(frames_sent(false), frames_sent(true));
}

TEST(EventBus, NodeLifecycleAndBatterySettleEvents) {
  EventCounter counter;
  auto net = SimulationBuilder()
                 .grid(3, 1)
                 .seed(9)
                 .set("battery_mj", 40.0)  // dies in seconds always-on
                 .observe(counter)
                 .build();
  net->run_for(10 * sim::kSecond);
  EXPECT_GT(counter.battery_settles, 0u);
  EXPECT_GT(counter.nodes_down, 0u);
  EXPECT_EQ(counter.nodes_down, net->death_log().size())
      << "bus and death log agree";
}

// --------------------------------------------- gateway & overhearing

TEST(Deployment, GatewayPoweredKnobPutsTheSinkOnBattery) {
  {
    auto net = SimulationBuilder()
                   .grid(2, 1)
                   .set("battery_mj", 1000.0)
                   .warmup(0)
                   .build();
    EXPECT_EQ(net->network().battery(sim::NodeId{0}), nullptr)
        << "default: mains-powered gateway";
    EXPECT_NE(net->network().battery(sim::NodeId{1}), nullptr);
  }
  auto net = SimulationBuilder()
                 .grid(2, 1)
                 .set("battery_mj", 1000.0)
                 .set("gateway_powered", 0.0)
                 .warmup(0)
                 .build();
  EXPECT_NE(net->network().battery(sim::NodeId{0}), nullptr)
      << "gateway_powered=0: the sink pays like everyone else";
}

TEST(Deployment, UnpoweredGatewayIsChurnedToo) {
  auto net = SimulationBuilder()
                 .grid(2, 1)
                 .seed(3)
                 .set("churn_rate", 0.5)
                 .set("gateway_powered", 0.0)
                 .build();
  net->run_for(60 * sim::kSecond);
  const auto& deaths = net->death_log();
  EXPECT_TRUE(std::any_of(deaths.begin(), deaths.end(),
                          [](const Deployment::DeathEvent& d) {
                            return d.node.value == 0;
                          }))
      << "node 0 must crash under churn when not mains-powered";
}

TEST(Deployment, OverhearingChargesFilteringReceivers) {
  // 3x1 line: node 1 (middle) acks and relays unicast; node 0 and node 2
  // overhear each other's unicast traffic only when the model is on.
  const auto rx_drain = [](bool overhearing) {
    SimulationBuilder builder;
    builder.grid(3, 1).seed(21).packet_loss(0.0).set("battery_mj", 5000.0);
    builder.set("gateway_powered", 0.0);  // node 0 needs a ledger to read
    if (overhearing) {
      builder.set("overhearing", 1.0);
    }
    auto net = builder.build();
    // Unicast stream: remote out from the middle node to the right end;
    // its acks are unicast back — node 0 overhears all of it.
    net->mote(1).inject(core::assemble_or_die(
        "LOOP pushn rpt\nloc\npushc 2\npushloc 3 1\nrout\n"
        "pushcl 8\nsleep\njump LOOP\n"));
    net->run_for(20 * sim::kSecond);
    net->network().settle_batteries();
    return net->network().battery(sim::NodeId{0})->drained_mj(
        energy::EnergyComponent::kRadioRx);
  };
  const double off = rx_drain(false);
  const double on = rx_drain(true);
  EXPECT_GT(on, off)
      << "overhearing must charge RX to in-range filtering nodes";
}

// ----------------------------------------------- harness determinism

/// A scenario whose metrics come ONLY from an event-bus observer: if
/// observer dispatch were racy or order-dependent, this JSON would
/// differ between thread counts.
harness::TrialMetrics run_observer_probe(const harness::TrialSpec& trial) {
  EventCounter counter;
  Deployment mesh(harness::deployment_options(trial));
  mesh.bus().subscribe(counter);
  mesh.base().inject(core::agents::sentinel(/*sample_ticks=*/8));
  mesh.simulator().run_for(trial.duration);
  harness::TrialMetrics metrics;
  metrics.set("obs_spawns", static_cast<double>(counter.agent_spawns));
  metrics.set("obs_migrations",
              static_cast<double>(counter.agent_migrations));
  metrics.set("obs_frames_tx", static_cast<double>(counter.frames_tx));
  metrics.set("obs_frames_rx", static_cast<double>(counter.frames_rx));
  metrics.set("obs_beacons", static_cast<double>(counter.beacons));
  metrics.set("obs_blocks", static_cast<double>(counter.agent_blocks));
  metrics.set("obs_resumes", static_cast<double>(counter.agent_resumes));
  metrics.set("obs_tuple_ops", static_cast<double>(counter.tuple_ops));
  metrics.set("success", counter.agent_spawns > 0 ? 1.0 : 0.0);
  return metrics;
}

TEST(EventBus, ObserverMetricsJsonIdenticalAcrossThreadCounts) {
  harness::register_scenario(
      {"api_observer_probe", "observer-derived metrics determinism probe",
       run_observer_probe, {}});
  harness::ExperimentSpec spec;
  spec.name = "observer_probe";
  spec.scenario = "api_observer_probe";
  spec.grids = {{3, 3}};
  spec.loss_rates = {0.02};
  spec.trials = 3;
  spec.base_seed = 13;
  spec.duration = 25 * sim::kSecond;
  const std::string serial =
      to_json(run_experiment(spec, harness::RunnerOptions{.threads = 1}));
  const std::string parallel =
      to_json(run_experiment(spec, harness::RunnerOptions{.threads = 8}));
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("obs_migrations"), std::string::npos);
}

}  // namespace
}  // namespace agilla::api
