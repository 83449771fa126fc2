// The energy & lifetime subsystem: battery ledger conservation, the LPL
// duty cycler's schedule math, battery-driven node death through the
// node-down path (neighbour eviction, failed in-flight migrations), churn
// determinism, and reboot semantics.
#include <gtest/gtest.h>

#include <limits>

#include "core/agent_library.h"
#include "core/assembler.h"
#include "energy/battery.h"
#include "energy/duty_cycler.h"
#include "energy/energy_model.h"
#include "api/deployment.h"
#include "sim/environment.h"

namespace agilla {
namespace {

using energy::Battery;
using energy::DutyCycler;
using energy::EnergyComponent;

// ------------------------------------------------------------ unit: battery

TEST(Battery, LedgerConservationIsExact) {
  Battery battery(100.0, 0);
  battery.drain(EnergyComponent::kRadioTx, 7.25);
  battery.drain(EnergyComponent::kRadioRx, 1.5);
  battery.drain(EnergyComponent::kCpu, 0.125);
  battery.drain(EnergyComponent::kSense, 0.0625);
  const double by_component =
      battery.drained_mj(EnergyComponent::kRadioTx) +
      battery.drained_mj(EnergyComponent::kRadioRx) +
      battery.drained_mj(EnergyComponent::kRadioIdle) +
      battery.drained_mj(EnergyComponent::kCpu) +
      battery.drained_mj(EnergyComponent::kSense);
  // The total drop IS the sum of the ledger — equality, not tolerance.
  EXPECT_EQ(battery.capacity_mj() - battery.remaining_mj(), by_component);
  EXPECT_EQ(battery.total_drained_mj(), by_component);
  EXPECT_FALSE(battery.depleted());
}

TEST(Battery, DrainClampsAtCapacity) {
  Battery battery(1.0, 0);
  battery.drain(EnergyComponent::kRadioTx, 0.75);
  battery.drain(EnergyComponent::kCpu, 10.0);  // only 0.25 left
  EXPECT_TRUE(battery.depleted());
  EXPECT_DOUBLE_EQ(battery.remaining_mj(), 0.0);
  EXPECT_DOUBLE_EQ(battery.drained_mj(EnergyComponent::kCpu), 0.25);
  battery.drain(EnergyComponent::kSense, 5.0);  // nothing left to give
  EXPECT_DOUBLE_EQ(battery.drained_mj(EnergyComponent::kSense), 0.0);
}

TEST(Battery, SettleAccruesIdleDraw) {
  Battery battery(1000.0, 0);
  battery.set_idle_draw_mw(28.8);
  battery.settle(2 * sim::kSecond);
  EXPECT_DOUBLE_EQ(battery.drained_mj(EnergyComponent::kRadioIdle),
                   28.8 * 2.0);
  battery.settle(2 * sim::kSecond);  // idempotent at a fixed time
  EXPECT_DOUBLE_EQ(battery.drained_mj(EnergyComponent::kRadioIdle),
                   28.8 * 2.0);
  battery.set_idle_draw_mw(0.0);  // radio off: the draw stops
  battery.settle(10 * sim::kSecond);
  EXPECT_DOUBLE_EQ(battery.drained_mj(EnergyComponent::kRadioIdle),
                   28.8 * 2.0);
}

// ------------------------------------------------------- unit: duty cycler

TEST(DutyCycler, AlwaysOnHasNoPreamble) {
  const DutyCycler off{DutyCycler::Options{.listen_fraction = 1.0}};
  EXPECT_FALSE(off.enabled());
  EXPECT_DOUBLE_EQ(off.listen_fraction(), 1.0);
  EXPECT_EQ(off.preamble_extension(), 0u);
}

TEST(DutyCycler, PeriodScalesInverselyWithFraction) {
  const DutyCycler lpl{DutyCycler::Options{.listen_fraction = 0.1}};
  EXPECT_TRUE(lpl.enabled());
  EXPECT_EQ(lpl.check_period(), 80 * sim::kMillisecond);
  EXPECT_EQ(lpl.preamble_extension(), 72 * sim::kMillisecond);
  // Halving the fraction doubles the check period (and the preamble).
  const DutyCycler lpl2{DutyCycler::Options{.listen_fraction = 0.05}};
  EXPECT_EQ(lpl2.check_period(), 160 * sim::kMillisecond);
}

TEST(DutyCycler, AdaptiveObserveWidensWhenQuietNarrowsUnderLoad) {
  DutyCycler lpl{DutyCycler::Options{.listen_fraction = 0.1,
                                     .adaptive = true,
                                     .min_fraction = 0.02,
                                     .max_fraction = 0.4}};
  const sim::SimTime initial = lpl.check_period();
  // A silent tick halves the listen fraction (doubles the period)...
  EXPECT_TRUE(lpl.observe(0));
  EXPECT_EQ(lpl.check_period(), 2 * initial);
  // ...moderate traffic holds steady...
  EXPECT_FALSE(lpl.observe(2));
  EXPECT_EQ(lpl.check_period(), 2 * initial);
  // ...and load at kBusyFrames snaps it back.
  EXPECT_TRUE(lpl.observe(4));
  EXPECT_EQ(lpl.check_period(), initial);
}

TEST(DutyCycler, AdaptiveStaysWithinConfiguredBounds) {
  DutyCycler lpl{DutyCycler::Options{.listen_fraction = 0.1,
                                     .adaptive = true,
                                     .min_fraction = 0.02,
                                     .max_fraction = 0.4}};
  for (int i = 0; i < 20; ++i) {
    lpl.observe(0);
  }
  EXPECT_DOUBLE_EQ(lpl.listen_fraction(), 0.02);  // clamped at the floor
  for (int i = 0; i < 20; ++i) {
    lpl.observe(100);
  }
  EXPECT_DOUBLE_EQ(lpl.listen_fraction(), 0.4);  // clamped at the ceiling
  // The timeout budget must cover the widest schedule the controller can
  // reach, not the starting point.
  EXPECT_EQ(lpl.max_preamble_extension(),
            DutyCycler{DutyCycler::Options{.listen_fraction = 0.02}}
                .preamble_extension());
}

TEST(DutyCycler, CongestedTxQueueCountsAsBusy) {
  DutyCycler lpl{DutyCycler::Options{.listen_fraction = 0.1,
                                     .adaptive = true,
                                     .min_fraction = 0.02,
                                     .max_fraction = 0.4,
                                     .tx_busy_depth = 3}};
  const sim::SimTime initial = lpl.check_period();
  // A silent tick with a congested TX queue NARROWS the period (the
  // node keeps its radio duty up so its backlog can drain) instead of
  // widening it the way a plain silent tick would.
  EXPECT_TRUE(lpl.observe(0, /*tx_pending=*/3));
  EXPECT_EQ(lpl.check_period(), initial / 2);
  // Below the depth threshold the silent-tick widening applies again.
  EXPECT_TRUE(lpl.observe(0, /*tx_pending=*/2));
  EXPECT_EQ(lpl.check_period(), initial);
  // With the coupling disabled (depth 0) backlog is ignored entirely.
  DutyCycler uncoupled{DutyCycler::Options{.listen_fraction = 0.1,
                                           .adaptive = true,
                                           .min_fraction = 0.02,
                                           .max_fraction = 0.4}};
  const sim::SimTime start = uncoupled.check_period();
  EXPECT_TRUE(uncoupled.observe(0, /*tx_pending=*/100));
  EXPECT_EQ(uncoupled.check_period(), 2 * start);
}

/// Property (satellite contract): the converged check period is monotone
/// non-increasing in offered load — more traffic never yields a LONGER
/// period, so the controller cannot oscillate against the workload.
TEST(DutyCycler, PropertyConvergedPeriodMonotoneInOfferedLoad) {
  const auto converged_period = [](std::uint32_t frames_per_tick) {
    DutyCycler lpl{DutyCycler::Options{.listen_fraction = 0.1,
                                       .adaptive = true,
                                       .min_fraction = 0.02,
                                       .max_fraction = 0.5}};
    for (int tick = 0; tick < 64; ++tick) {
      lpl.observe(frames_per_tick);
    }
    return lpl.check_period();
  };
  sim::SimTime previous = std::numeric_limits<sim::SimTime>::max();
  for (std::uint32_t load = 0; load <= 12; ++load) {
    const sim::SimTime period = converged_period(load);
    EXPECT_LE(period, previous) << "load " << load;
    previous = period;
  }
  // And the extremes really reach the bounds.
  EXPECT_EQ(converged_period(0),
            DutyCycler{DutyCycler::Options{.listen_fraction = 0.02}}
                .check_period());
  EXPECT_EQ(converged_period(50),
            DutyCycler{DutyCycler::Options{.listen_fraction = 0.5}}
                .check_period());
}

TEST(RadioEnergyModel, DutyCycledListenDrawInterpolates) {
  EXPECT_DOUBLE_EQ(energy::radio_listen_mw(1.0), energy::kRadioRxMw);
  EXPECT_DOUBLE_EQ(energy::radio_listen_mw(0.0), energy::kRadioSleepMw);
  EXPECT_LT(energy::radio_listen_mw(0.1), energy::kRadioRxMw * 0.2);
  EXPECT_GT(energy::radio_tx_mj(10 * sim::kMillisecond),
            energy::kRadioTxStartupMj);
}

// ------------------------------------------- integration: conservation

api::DeploymentOptions conservation_options(ts::StoreKind store) {
  api::DeploymentOptions options;
  options.width = 3;
  options.height = 1;
  options.packet_loss = 0.0;
  options.config.tuple_space.store_kind = store;
  options.energy.battery_mj = 5000.0;
  return options;
}

/// The satellite contract: after a scripted-agent run that exercises
/// radio, VM, and sensing, the sum of per-component draws equals the
/// battery's total drop exactly — on both store backends.
TEST(EnergyConservation, ComponentDrawsEqualTotalDropCrossBackend) {
  for (const ts::StoreKind store :
       {ts::StoreKind::kLinear, ts::StoreKind::kIndexed}) {
    api::Deployment mesh(conservation_options(store));
    mesh.environment().set_field(sim::SensorType::kTemperature,
                                 std::make_unique<sim::ConstantField>(20.0));
    // A sampling loop on mote 1: sense + arithmetic + tuple churn.
    ASSERT_TRUE(mesh.mote(1)
                    .inject(core::assemble_or_die(R"(
        LOOP pushrt TEMPERATURE
        sense
        pop
        pushc 9
        pushc 1
        out
        pushc 9
        pushc 1
        inp
        pushc 4
        sleep
        jump LOOP
    )"))
                    .has_value());
    mesh.simulator().run_for(20 * sim::kSecond);
    mesh.network().settle_batteries();

    for (std::size_t i = 1; i < mesh.mote_count(); ++i) {
      const energy::Battery* battery =
          mesh.network().battery(mesh.topology().nodes[i]);
      ASSERT_NE(battery, nullptr) << "store=" << to_string(store);
      const double by_component =
          battery->drained_mj(EnergyComponent::kRadioTx) +
          battery->drained_mj(EnergyComponent::kRadioRx) +
          battery->drained_mj(EnergyComponent::kRadioIdle) +
          battery->drained_mj(EnergyComponent::kCpu) +
          battery->drained_mj(EnergyComponent::kSense);
      // The ledger total IS the sum of components — exact equality; the
      // capacity-minus-remaining form only differs by the final rounding
      // of the subtraction.
      EXPECT_EQ(battery->total_drained_mj(), by_component)
          << "store=" << to_string(store) << " node=" << i;
      EXPECT_DOUBLE_EQ(battery->capacity_mj() - battery->remaining_mj(),
                       by_component)
          << "store=" << to_string(store) << " node=" << i;
      // Every radio component really drew something (beacons both ways).
      EXPECT_GT(battery->drained_mj(EnergyComponent::kRadioIdle), 0.0);
      EXPECT_GT(battery->drained_mj(EnergyComponent::kRadioTx), 0.0);
      EXPECT_GT(battery->drained_mj(EnergyComponent::kRadioRx), 0.0);
    }
    // The scripted agent's VM and sensor draws landed on mote 1 only.
    const energy::Battery* active =
        mesh.network().battery(mesh.topology().nodes[1]);
    EXPECT_GT(active->drained_mj(EnergyComponent::kCpu), 0.0);
    EXPECT_GT(active->drained_mj(EnergyComponent::kSense), 0.0);
    const energy::Battery* passive =
        mesh.network().battery(mesh.topology().nodes[2]);
    EXPECT_DOUBLE_EQ(passive->drained_mj(EnergyComponent::kSense), 0.0);
    // The gateway is mains-powered: no battery at node 0.
    EXPECT_EQ(mesh.network().battery(mesh.topology().nodes[0]), nullptr);
  }
}

// ------------------------------------- integration: battery-driven death

api::DeploymentOptions two_node_options() {
  api::DeploymentOptions options;
  options.width = 2;
  options.height = 1;
  options.packet_loss = 0.0;
  options.energy.battery_mj = 1000.0;
  return options;
}

TEST(BatteryDeath, DepletedNodeDiesNeighborsEvictAndMigrationsFail) {
  api::Deployment mesh(two_node_options());
  const sim::NodeId victim = mesh.topology().nodes[1];
  energy::Battery* battery = mesh.network().battery(victim);
  ASSERT_NE(battery, nullptr);

  // Exhaust the victim's battery; the next settle tick pronounces death.
  battery->drain(EnergyComponent::kCpu, battery->remaining_mj());
  mesh.simulator().run_for(1100 * sim::kMillisecond);
  EXPECT_FALSE(mesh.network().alive(victim));
  EXPECT_EQ(mesh.network().stats().node_deaths, 1u);
  EXPECT_EQ(mesh.mote(1).engine().agents().size(), 0u);

  // The neighbour entry is still fresh, so a migration is attempted —
  // and must fail cleanly: the agent resumes at the origin with cond 0.
  mesh.mote(0).inject(core::assemble_or_die(R"(
      pushloc 2 1
      smove
      cpush
      pushn cnd
      swap
      pushc 2
      out
      halt
  )"));
  mesh.simulator().run_for(15 * sim::kSecond);
  EXPECT_TRUE(mesh.mote(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("cnd"),
                                    ts::Value::number(0)})
                  .has_value());
  EXPECT_GE(mesh.mote(0).engine().stats().migrations_failed, 1u);
  EXPECT_GE(mesh.mote(0).migration().stats().hop_failures, 1u);

  // Beacons stopped: the survivor evicted the dead node.
  EXPECT_FALSE(mesh.mote(0).neighbors().by_id(victim).has_value());
  // The death was logged for lifetime metrics.
  const auto& deaths = mesh.death_log();
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0].node, victim);
  EXPECT_EQ(deaths[0].reason, sim::NodeDownReason::kBatteryDepleted);
}

TEST(BatteryDeath, RelayDyingMidForwardDoesNotResurrectTheAgent) {
  // A relay holding custody of a forwarded agent dies. The custody
  // image lived in its RAM: the hop-failure path must NOT install the
  // agent back onto the dead node (a "zombie" that would run code and
  // write tuples into supposedly wiped memory).
  api::DeploymentOptions options;
  options.width = 4;
  options.height = 1;
  options.packet_loss = 0.0;
  api::Deployment mesh(options);
  mesh.mote(0).inject(core::assemble_or_die(R"(
      pushloc 4 1
      smove
      pushn end
      loc
      pushc 2
      out
      halt
  )"));
  // 300 ms: hop 0->1 is complete (~250 ms) and node 1 is mid-forward.
  mesh.simulator().run_for(300 * sim::kMillisecond);
  mesh.network().kill_node(mesh.topology().nodes[1],
                           sim::NodeDownReason::kChurnCrash);
  mesh.simulator().run_for(15 * sim::kSecond);

  EXPECT_EQ(mesh.mote(1).engine().stats().agents_installed, 0u);
  EXPECT_EQ(mesh.mote(1).engine().agents().size(), 0u);
  const ts::Template end_marker{
      ts::Value::string("end"),
      ts::Value::type_wildcard(ts::ValueType::kLocation)};
  EXPECT_EQ(mesh.mote(1).tuple_space().tcount(end_marker), 0u);
  // The agent is either truly lost with the dead relay's RAM or made it
  // past the relay before the crash — never duplicated onto the corpse.
  std::size_t markers = 0;
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    markers += mesh.mote(i).tuple_space().tcount(end_marker);
  }
  EXPECT_LE(markers, 1u);
}

// ------------------------------------------------- integration: churn

api::DeploymentOptions churn_options(std::uint64_t seed) {
  api::DeploymentOptions options;
  options.width = 3;
  options.height = 3;
  options.seed = seed;
  options.churn.crash_rate_per_node_s = 0.05;
  options.churn.reboot_after = 5 * sim::kSecond;
  return options;
}

TEST(Churn, CrashScheduleIsDeterministicForAFixedSeed) {
  api::Deployment a(churn_options(42));
  api::Deployment b(churn_options(42));
  a.simulator().run_for(60 * sim::kSecond);
  b.simulator().run_for(60 * sim::kSecond);
  const auto& deaths_a = a.death_log();
  const auto& deaths_b = b.death_log();
  ASSERT_GT(deaths_a.size(), 0u);
  ASSERT_EQ(deaths_a.size(), deaths_b.size());
  for (std::size_t i = 0; i < deaths_a.size(); ++i) {
    EXPECT_EQ(deaths_a[i].node, deaths_b[i].node);
    EXPECT_EQ(deaths_a[i].at, deaths_b[i].at);
    EXPECT_EQ(deaths_a[i].reason, sim::NodeDownReason::kChurnCrash);
  }
  EXPECT_EQ(a.reboot_count(), b.reboot_count());
  EXPECT_GT(a.reboot_count(), 0u);
  // The gateway is spared so injection keeps working under churn.
  EXPECT_TRUE(a.network().alive(a.topology().nodes[0]));
}

TEST(Churn, RebootedNodeRejoinsWithEmptyRam) {
  api::DeploymentOptions options;
  options.width = 2;
  options.height = 1;
  options.packet_loss = 0.0;
  api::Deployment mesh(options);

  // Put an agent and a tuple on node 1, then crash and reboot it.
  mesh.mote(1).inject(
      core::assemble_or_die("pushcl 400\nsleep\nhalt"));
  mesh.simulator().run_for(1 * sim::kSecond);
  ASSERT_EQ(mesh.mote(1).engine().agents().size(), 1u);

  mesh.network().kill_node(mesh.topology().nodes[1],
                           sim::NodeDownReason::kChurnCrash);
  EXPECT_EQ(mesh.mote(1).engine().agents().size(), 0u);
  EXPECT_EQ(mesh.mote(1).engine().stats().agents_power_lost, 1u);
  EXPECT_EQ(mesh.mote(1).neighbors().size(), 0u);

  mesh.network().revive_node(mesh.topology().nodes[1]);
  EXPECT_TRUE(mesh.network().alive(mesh.topology().nodes[1]));
  mesh.simulator().run_for(5 * sim::kSecond);
  // Beacons repopulated both acquaintance lists and work resumed.
  EXPECT_TRUE(
      mesh.mote(0).neighbors().by_id(mesh.topology().nodes[1]).has_value());
  EXPECT_TRUE(
      mesh.mote(1).neighbors().by_id(mesh.topology().nodes[0]).has_value());
  EXPECT_TRUE(mesh.mote(1)
                  .inject(core::assemble_or_die("pushc 5\npushc 1\nout\nhalt"))
                  .has_value());
  mesh.simulator().run_for(1 * sim::kSecond);
  EXPECT_TRUE(mesh.mote(1)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(5)})
                  .has_value());
  EXPECT_EQ(mesh.reboot_count(), 1u);
}

// ----------------------------------------- duty cycle latency visibility

TEST(DutyCycle, LplStretchesDeliveryLatency) {
  const auto one_hop_latency = [](double duty) {
    api::DeploymentOptions options;
    options.width = 2;
    options.height = 1;
    options.packet_loss = 0.0;
    options.energy.duty.listen_fraction = duty;
    api::Deployment mesh(options);
    const sim::SimTime start = mesh.simulator().now();
    mesh.mote(0).inject(core::assemble_or_die(R"(
        pushc 7
        pushc 1
        pushloc 2 1
        rout
        halt
    )"));
    const auto seen = mesh.await_tuple(
        mesh.mote(1), ts::Template{ts::Value::number(7)},
        20 * sim::kSecond);
    EXPECT_TRUE(seen.has_value());
    return seen.value_or(start) - start;
  };
  const sim::SimTime always_on = one_hop_latency(1.0);
  const sim::SimTime lpl = one_hop_latency(0.1);
  // The LPL preamble (72 ms at 10 %) dominates a one-hop delivery.
  EXPECT_GT(lpl, always_on + 50 * sim::kMillisecond);
}

// ------------------------------------------- adaptive LPL on a live mesh

TEST(AdaptiveLpl, QuietMeshWidensTowardTheFloorBusyMeshDoesNot) {
  const auto fraction_at = [](bool busy) {
    api::DeploymentOptions options;
    options.width = 2;
    options.height = 1;
    options.packet_loss = 0.0;
    options.energy.duty.listen_fraction = 0.1;
    options.energy.duty.adaptive = true;
    options.energy.duty.min_fraction = 0.02;
    options.energy.duty.max_fraction = 0.5;
    api::Deployment mesh(options);
    if (busy) {
      // A chatty agent on mote 0: one remote out per VM tick keeps the
      // receiving mote's channel-sample busy every settle tick.
      mesh.mote(0).inject(core::assemble_or_die(R"(
          LOOP pushc 7
          pushc 1
          pushloc 2 1
          rout
          pushc 2
          sleep
          jump LOOP
      )"));
    }
    mesh.simulator().run_for(60 * sim::kSecond);
    return mesh.network()
        .node_duty(mesh.topology().nodes[1])
        .listen_fraction();
  };
  const double quiet = fraction_at(false);
  const double busy = fraction_at(true);
  // Quiet: suppressed beacons leave most settle ticks silent, so the
  // controller walks to the duty floor. Busy: sustained traffic holds
  // the fraction strictly above it (period monotone in offered load).
  EXPECT_DOUBLE_EQ(quiet, 0.02);
  EXPECT_GT(busy, quiet);
}

TEST(AdaptiveLpl, SendersTrackTheReceiversAdvertisedPeriod) {
  // Under per-receiver preamble tracking, a frame to a widened receiver
  // pays that receiver's long preamble even though the SENDER's own
  // schedule may be narrow — visible as delivery latency.
  api::DeploymentOptions options;
  options.width = 2;
  options.height = 1;
  options.packet_loss = 0.0;
  options.energy.duty.listen_fraction = 0.5;  // start narrow
  options.energy.duty.adaptive = true;
  options.energy.duty.min_fraction = 0.02;
  options.energy.duty.max_fraction = 0.5;
  api::Deployment mesh(options);
  // Let the idle mesh converge: both nodes widen to the 0.02 floor
  // (400 ms check period) and advertise it in their beacons.
  mesh.simulator().run_for(60 * sim::kSecond);
  const auto& receiver_duty =
      mesh.network().node_duty(mesh.topology().nodes[1]);
  EXPECT_DOUBLE_EQ(receiver_duty.listen_fraction(), 0.02);
  const auto advertised = mesh.mote(0).neighbors().preamble_extension_for(
      mesh.topology().nodes[1]);
  ASSERT_TRUE(advertised.has_value());
  EXPECT_EQ(*advertised, receiver_duty.preamble_extension());
}

// ------------------------------------------------- re-flood after reboot

/// ROADMAP satellite: a churn-rebooted node must not stay agent-less.
/// The surviving claimer reacts to the fresh <"ctx", loc> tuple its
/// middleware inserts when the rebooted node re-enters the acquaintance
/// list, and re-clones the deployment onto it.
TEST(Reflood, RebootedNodeGetsTheDeploymentAgentBack) {
  api::DeploymentOptions options;
  options.width = 3;
  options.height = 1;
  options.packet_loss = 0.0;
  api::Deployment mesh(options);
  mesh.mote(0).inject(
      core::assemble_or_die(core::agents::sentinel(/*sample_ticks=*/8)));
  mesh.simulator().run_for(15 * sim::kSecond);
  const ts::Template claimed{
      ts::Value::string("stl"),
      ts::Value::type_wildcard(ts::ValueType::kLocation)};
  ASSERT_EQ(mesh.motes_matching(claimed), 3u);  // flood claimed the row

  const sim::NodeId victim = mesh.topology().nodes[2];
  mesh.network().kill_node(victim, sim::NodeDownReason::kChurnCrash);
  EXPECT_EQ(mesh.mote(2).engine().agents().size(), 0u);
  // Long enough for the survivors to evict the corpse (3 beacon periods).
  mesh.simulator().run_for(8 * sim::kSecond);
  EXPECT_FALSE(mesh.mote(1).neighbors().by_id(victim).has_value());

  mesh.network().revive_node(victim);
  mesh.simulator().run_for(15 * sim::kSecond);
  // Rediscovery fired the <"ctx"> reaction on a surviving claimer, which
  // re-cloned the sentinel onto the empty node.
  EXPECT_GE(mesh.mote(2).engine().agents().size(), 1u);
  EXPECT_TRUE(mesh.mote(2).tuple_space().rdp(claimed).has_value());
  EXPECT_EQ(mesh.motes_matching(claimed), 3u);
}

}  // namespace
}  // namespace agilla
