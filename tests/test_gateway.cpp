// The base-station command console (paper Sec. 3.1's interactive laptop).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "agilla_test_helpers.h"
#include "core/gateway.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

struct ConsoleFixture {
  ConsoleFixture()
      : mesh(MeshOptions{.width = 3, .height = 1}), base(mesh.at(0)) {
    console.set_async_sink(
        [this](std::uint64_t, bool, const std::string& text) {
          async_texts.push_back(text);
        });
    mesh.env.set_field(sim::SensorType::kTemperature,
                       std::make_unique<sim::ConstantField>(21.0));
    mesh.warm();
  }

  /// Whether an async result delivered so far contains `needle`.
  bool saw(const std::string& needle) const {
    for (const auto& text : async_texts) {
      if (text.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  AgillaMesh mesh;
  BaseStation base;
  std::vector<std::string> async_texts;
  GatewayConsole console{base};
};

TEST(Gateway, HelpAndUnknownCommands) {
  ConsoleFixture f;
  EXPECT_NE(f.console.execute("help").find("inject"), std::string::npos);
  EXPECT_NE(f.console.execute("frobnicate").find("error"),
            std::string::npos);
  EXPECT_EQ(f.console.execute(""), "");
}

TEST(Gateway, InjectAsmRunsAgent) {
  ConsoleFixture f;
  const std::string response =
      f.console.execute("inject asm pushc 9; pushc 1; out; halt");
  EXPECT_NE(response.find("ok"), std::string::npos) << response;
  f.mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_TRUE(f.mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(9)})
                  .has_value());
}

TEST(Gateway, InjectAsmSurvivesAnAgentKilledWhileBeingWoken) {
  // tests/agents/wake_kill.aga from a console client: a strong clone's
  // write wakes the original, whose queued reaction overflows its stack
  // and kills it while the engine is waking blocked agents. The console
  // must answer, and keep answering.
  ConsoleFixture f;
  std::string program =
      "inject asm loc; sclone; cpush; pushc 1; ceq; rjumpc WRITER; "
      "pushn a; pusht NUMBER; pushc 2; pushc HAND; regrxn; ";
  for (int i = 0; i < 14; ++i) {
    program += "pushc 1; ";
  }
  program +=
      "pushn b; pushc 1; in; halt; "
      "WRITER pushc 8; sleep; pushn a; pushc 0; pushc 2; out; "
      "pushn don; pushc 1; out; halt; "
      "HAND jumps";
  const std::string response = f.console.execute(program);
  EXPECT_NE(response.find("ok"), std::string::npos) << response;
  f.mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_EQ(f.mesh.at(0).engine().stats().vm_errors, 1u);
  EXPECT_TRUE(f.mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("don")})
                  .has_value());
  const std::string status = f.console.execute("status");
  EXPECT_NE(status.find("0/4 agents"), std::string::npos) << status;
}

TEST(Gateway, InjectAsmReportsAssemblyErrors) {
  ConsoleFixture f;
  const std::string response = f.console.execute("inject asm bogus op");
  EXPECT_NE(response.find("error"), std::string::npos);
}

TEST(Gateway, InjectNamedAgent) {
  ConsoleFixture f;
  const std::string response =
      f.console.execute("inject agent blinker");
  EXPECT_NE(response.find("ok"), std::string::npos);
  f.mesh.sim.run_for(2 * sim::kSecond);
  EXPECT_NE(f.mesh.at(0).engine().leds(), 0u);
  EXPECT_NE(f.console.execute("inject agent nosuch").find("error"),
            std::string::npos);
}

TEST(Gateway, InjectAsmCannotReadHostFiles) {
  ConsoleFixture f;
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "agilla_console.aga";
  std::ofstream(path) << "xyzzy_private_line\n";
  const std::string include = " asm .include \"" + path.string() + "\"";
  for (const std::string& command :
       {"inject" + include, "inject at 3 1" + include}) {
    const std::string response = f.console.execute(command);
    EXPECT_EQ(response.rfind("error", 0), 0u) << response;
    EXPECT_EQ(response.find("xyzzy"), std::string::npos) << response;
  }
  std::filesystem::remove(path);
}

TEST(Gateway, InjectRejectsMalformedCoordinates) {
  ConsoleFixture f;
  // Non-finite coordinates would reach net::encode_coordinate as NaN.
  for (const char* command :
       {"inject agent firedetector abc 2", "inject at 3x 1 asm halt",
        "rout abc 1 num:1", "rout nan 1 num:1", "rrdp 1 inf ?num",
        "inject at nan 1 asm halt", "inject agent firedetector 1 nan"}) {
    EXPECT_EQ(f.console.execute(command), "error: bad destination")
        << command;
  }
  EXPECT_EQ(f.mesh.at(0).engine().agents().size(), 0u);
}

TEST(Gateway, RejectsNonFiniteAndOutOfRangeNumbers) {
  // Each value would reach an undefined float-to-integer cast: NaN through
  // the coordinate/epsilon encoders, the rest through the field casts.
  ConsoleFixture f;
  const std::pair<const char*, const char*> cases[] = {
      {"region 1 1 inf all num:1", "error: bad region geometry"},
      {"region nan 1 1 any num:1", "error: bad region geometry"},
      {"rout 2 1 num:70000", "error: bad number '70000' (want int16)"},
      {"rout 2 1 num:-32769", "error: bad number '-32769' (want int16)"},
      {"rout 2 1 num:nan", "error: bad number 'nan' (want int16)"},
      {"rout 2 1 agent:-1", "error: bad agent id '-1' (want uint16)"},
      {"rout 2 1 agent:65536", "error: bad agent id '65536' (want uint16)"},
      {"rout 2 1 reading:0,40000",
       "error: bad reading '0,40000' (want reading:sensor,value)"},
      {"rout 2 1 reading:9,1",
       "error: bad reading '9,1' (want reading:sensor,value)"},
  };
  for (const auto& [command, expected] : cases) {
    EXPECT_EQ(f.console.execute(command), expected) << command;
  }
  const std::string asm_nan = f.console.execute("inject asm pushloc nan 1");
  EXPECT_EQ(asm_nan.rfind("error", 0), 0u) << asm_nan;
  EXPECT_EQ(f.mesh.at(0).engine().agents().size(), 0u);

  // The edges of each range still parse, truncating toward zero.
  ts::Tuple tuple;
  std::string error;
  ASSERT_TRUE(GatewayConsole::parse_tuple(
      {"x", "num:32767.9", "num:-32768", "agent:65535", "agent:-0.5",
       "reading:4,-7.5"},
      1, &tuple, &error))
      << error;
  EXPECT_EQ(tuple.field(0).as_number(), 32767);
  EXPECT_EQ(tuple.field(1).as_number(), -32768);
  EXPECT_EQ(tuple.field(2), ts::Value::agent_id(65535));
  EXPECT_EQ(tuple.field(3), ts::Value::agent_id(0));
  EXPECT_EQ(tuple.field(4),
            ts::Value::reading(sim::SensorType::kAccelerometer, -7));
}

TEST(Gateway, RemoteInjectAt) {
  ConsoleFixture f;
  const std::string response = f.console.execute(
      "inject at 3 1 asm pushn arr; pushc 1; out; halt");
  EXPECT_NE(response.find("ok"), std::string::npos) << response;
  f.mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(f.mesh.at(2)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("arr")})
                  .has_value());
  EXPECT_TRUE(f.saw("handed off"));
}

TEST(Gateway, RoutAndRrdpRoundTrip) {
  ConsoleFixture f;
  f.console.execute("rout 3 1 str:cmd num:7");
  f.mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(f.mesh.at(2)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("cmd"),
                                    ts::Value::number(7)})
                  .has_value());
  EXPECT_TRUE(f.saw("rout ok"));

  f.console.execute("rrdp 3 1 str:cmd ?num");
  f.mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(f.saw("rrdp -> <\"cmd\", 7>"));
  EXPECT_EQ(f.console.async_results(), 2u);
}

TEST(Gateway, RinpRemoves) {
  ConsoleFixture f;
  f.mesh.at(2).tuple_space().out(ts::Tuple{ts::Value::number(42)});
  f.console.execute("rinp 3 1 ?num");
  f.mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(f.saw("rinp -> <42>"));
  EXPECT_EQ(f.mesh.at(2).tuple_space().store().tuple_count(), 0u);
}

TEST(Gateway, FailedRemoteOpReportsAsync) {
  ConsoleFixture f;
  f.console.execute("rinp 3 1 ?str");  // nothing matches
  f.mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(f.saw("rinp failed"));
}

TEST(Gateway, RegionCommand) {
  ConsoleFixture f;
  f.console.execute("region 2 1 1.2 all str:evc num:1");
  f.mesh.sim.run_for(5 * sim::kSecond);
  const ts::Template alert{ts::Value::string("evc"), ts::Value::number(1)};
  EXPECT_TRUE(f.mesh.at(0).tuple_space().rdp(alert).has_value());
  EXPECT_TRUE(f.mesh.at(1).tuple_space().rdp(alert).has_value());
  EXPECT_TRUE(f.mesh.at(2).tuple_space().rdp(alert).has_value());
  EXPECT_NE(f.console.execute("region 2 1 1.2 both str:x").find("error"),
            std::string::npos);
  // Storable, but too large for the geo-routed seed's frame: refused with
  // an answer instead of ending the process.
  EXPECT_EQ(f.console.execute("region 30 30 2 any loc:1,1 loc:1,1 loc:1,1 "
                              "loc:1,1 num:1"),
            "error: region tuple is 24 bytes, over the 22-byte region frame "
            "budget");
}

TEST(Gateway, StatusSummarizesGateway) {
  ConsoleFixture f;
  const std::string status = f.console.execute("status");
  EXPECT_NE(status.find("agents"), std::string::npos);
  EXPECT_NE(status.find("neighbours"), std::string::npos);
}

TEST(Gateway, AsyncResultsCarryCommandIds) {
  ConsoleFixture f;
  std::vector<std::pair<std::uint64_t, bool>> results;
  f.console.set_async_sink(
      [&](std::uint64_t id, bool ok, const std::string&) {
        results.emplace_back(id, ok);
      });  // replaces the fixture's sink
  const std::string r1 =
      f.console.execute("rout 3 1 str:cmd num:7", /*id=*/41);
  EXPECT_NE(r1.find("cmd#41"), std::string::npos) << r1;
  const std::string r2 = f.console.execute("rinp 3 1 ?str", /*id=*/42);
  EXPECT_NE(r2.find("cmd#42"), std::string::npos) << r2;
  f.mesh.sim.run_for(5 * sim::kSecond);
  ASSERT_EQ(results.size(), 2u);
  // Each async result is tagged with the originating command's id, not
  // bare text: the rout succeeds, the unmatched rinp fails.
  EXPECT_EQ(results[0], (std::pair<std::uint64_t, bool>{41, true}));
  EXPECT_EQ(results[1], (std::pair<std::uint64_t, bool>{42, false}));
  EXPECT_EQ(f.console.async_results(), 2u);
}

TEST(Gateway, SubscribeNeedsABus) {
  ConsoleFixture f;
  EXPECT_NE(f.console.execute("subscribe node").find("error"),
            std::string::npos);
}

TEST(Gateway, SubscribeBridgesBusEvents) {
  ConsoleFixture f;
  api::EventBus bus;
  f.console.attach_bus(bus);
  std::vector<std::string> events;
  f.console.set_event_sink(
      [&](const std::string& kind, const std::string& text, sim::SimTime) {
        events.push_back(kind + "|" + text);
      });
  const auto node_down = [](sim::SimTime at, sim::NodeDownReason reason) {
    sim::Event event(sim::EventKind::kNodeDown, at, sim::NodeId{3});
    event.down = reason;
    return event;
  };
  const auto spawn = [](sim::SimTime at, std::uint32_t node,
                        std::uint16_t agent, const char* reason) {
    sim::Event event(sim::EventKind::kAgentSpawn, at, sim::NodeId{node});
    event.agent = agent;
    event.reason = reason;
    return event;
  };

  EXPECT_NE(f.console.execute("subscribe bogus").find("error"),
            std::string::npos);
  EXPECT_NE(f.console.execute("subscribe node").find("ok"),
            std::string::npos);
  EXPECT_TRUE(f.console.subscribed("node"));
  EXPECT_EQ(bus.observer_count(), 1u);

  bus.publish(node_down(7, sim::NodeDownReason::kChurnCrash));
  bus.publish(spawn(9, 1, 4, "inject"));
  ASSERT_EQ(events.size(), 1u);  // agent events filtered: not subscribed
  EXPECT_EQ(events[0], "node|down t=7 node=3 reason=churn");

  EXPECT_NE(f.console.execute("subscribe agent").find("ok"),
            std::string::npos);
  bus.publish(spawn(11, 2, 5, "migration"));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], "agent|spawn t=11 node=2 agent=5 migrated");

  EXPECT_NE(f.console.execute("unsubscribe node").find("ok"),
            std::string::npos);
  bus.publish(node_down(13, sim::NodeDownReason::kBatteryDepleted));
  EXPECT_EQ(events.size(), 2u);

  // Bare unsubscribe drops everything and detaches the bridge.
  EXPECT_NE(f.console.execute("unsubscribe").find("ok"),
            std::string::npos);
  EXPECT_EQ(f.console.subscription_count(), 0u);
  EXPECT_EQ(bus.observer_count(), 0u);

  // On a simulator's bus, the console's kinds are what the simulator
  // builds: tuple records, but no frame records nobody asked for.
  api::EventBus sim_bus(&f.mesh.sim);
  GatewayConsole console(f.base);
  console.attach_bus(sim_bus);
  EXPECT_NE(console.execute("subscribe tuple").find("ok"), std::string::npos);
  EXPECT_TRUE(f.mesh.sim.observes(sim::EventKind::kTupleOp));
  EXPECT_FALSE(f.mesh.sim.observes(sim::EventKind::kFrameTx));
  EXPECT_NE(console.execute("unsubscribe").find("ok"), std::string::npos);
  EXPECT_FALSE(f.mesh.sim.observes(sim::EventKind::kTupleOp));
  EXPECT_FALSE(f.mesh.sim.observes(sim::EventKind::kFrameTx));
}

TEST(Gateway, ConsoleDestructionDetachesBridgeAndCompletions) {
  ConsoleFixture f;
  api::EventBus bus;
  {
    GatewayConsole scoped(f.base);
    scoped.attach_bus(bus);
    scoped.execute("subscribe tuple");
    EXPECT_EQ(bus.observer_count(), 1u);
    // Leave a remote op in flight when the console dies.
    scoped.execute("rout 3 1 str:lat num:1");
  }
  EXPECT_EQ(bus.observer_count(), 0u);
  // The middleware still completes the op; the dead console's completion
  // must be a no-op rather than a use-after-free (ASan run enforces it).
  f.mesh.sim.run_for(5 * sim::kSecond);
}

TEST(Gateway, FieldParserCoverage) {
  ts::Tuple tuple;
  std::string error;
  EXPECT_TRUE(GatewayConsole::parse_tuple(
      {"x", "num:5", "str:abc", "loc:2,3", "agent:7", "reading:0,42"}, 1,
      &tuple, &error))
      << error;
  EXPECT_EQ(tuple.arity(), 5u);
  EXPECT_EQ(tuple.field(0).as_number(), 5);
  EXPECT_EQ(tuple.field(2).as_location(), (sim::Location{2, 3}));
  EXPECT_EQ(tuple.field(4).sensor(), sim::SensorType::kTemperature);

  ts::Tuple bad;
  EXPECT_FALSE(GatewayConsole::parse_tuple({"x", "num:abc"}, 1, &bad,
                                           &error));
  EXPECT_FALSE(GatewayConsole::parse_tuple({"x", "zzz:1"}, 1, &bad,
                                           &error));
  EXPECT_FALSE(GatewayConsole::parse_tuple({"x", "plain"}, 1, &bad,
                                           &error));
  EXPECT_FALSE(GatewayConsole::parse_tuple({"x"}, 1, &bad, &error));
}

TEST(Gateway, TemplateParserWildcards) {
  ts::Template templ;
  std::string error;
  EXPECT_TRUE(GatewayConsole::parse_template(
      {"x", "str:sig", "?reading", "?loc", "?num", "?agent", "?str"}, 1,
      &templ, &error))
      << error;
  EXPECT_EQ(templ.arity(), 6u);
  EXPECT_EQ(templ.field(1).type(), ts::ValueType::kTypeWildcard);
  EXPECT_EQ(templ.field(1).wrapped_type(), ts::ValueType::kReading);
}

}  // namespace
}  // namespace agilla::core
