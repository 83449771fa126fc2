// The canonical agents assemble and behave as the paper describes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "agilla_test_helpers.h"
#include "core/agent_library.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

/// 64-bit FNV-1a over an agent's bytecode.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash = (hash ^ b) * 0x100000001b3ULL;
  }
  return hash;
}

std::string location_text(sim::Location loc) {
  std::ostringstream os;
  os << loc.x << "," << loc.y;
  return os.str();
}

/// Every library wrapper over a fixed argument grid, keyed by call text.
std::vector<std::pair<std::string, std::string>> agent_grid() {
  std::vector<std::pair<std::string, std::string>> grid;
  const auto add = [&grid](std::string call, std::string source) {
    grid.emplace_back(std::move(call), std::move(source));
  };
  for (const sim::Location to : {sim::Location{0, 0}, sim::Location{1, 1},
                                 sim::Location{1.5, 2}}) {
    for (const int threshold : {180, 200}) {
      for (const int sample : {8, 32, 80}) {
        for (const int every : {0, 32}) {
          add("fire_detector(" + location_text(to) + "," +
                  std::to_string(threshold) + "," + std::to_string(sample) +
                  "," + std::to_string(every) + ")",
              agents::fire_detector(to, threshold, sample, every));
        }
      }
    }
  }
  add("fire_tracker(180,16)", agents::fire_tracker(180, 16));
  add("fire_tracker(200,8)", agents::fire_tracker(200, 8));
  add("sentinel(8)", agents::sentinel(8));
  add("pursuer(8)", agents::pursuer(8));
  for (const int ticks : {8, 40, 64}) {
    add("habitat_monitor(" + std::to_string(ticks) + ")",
        agents::habitat_monitor(ticks));
  }
  for (const int ticks : {4, 8}) {
    add("blinker(" + std::to_string(ticks) + ")", agents::blinker(ticks));
  }
  add("smove_round_trip(5,1;1,1)",
      agents::smove_round_trip({5, 1}, {1, 1}));
  add("move_once(smove,2,1)", agents::move_once("smove", {2, 1}));
  add("move_once(wclone,2,1)", agents::move_once("wclone", {2, 1}));
  add("rout_once(5,1)", agents::rout_once({5, 1}));
  for (const sim::Location target : {sim::Location{2, 1}, sim::Location{5, 1},
                                     sim::Location{4, 3}}) {
    add("smove_trial(" + location_text(target) + ")",
        agents::smove_trial(target));
    add("rout_trial(" + location_text(target) + ")",
        agents::rout_trial(target));
  }
  for (const int ticks : {1, 8, 32}) {
    add("reporter(" + std::to_string(ticks) + ")", agents::reporter(ticks));
  }
  return grid;
}

/// Bytecode digests of agent_grid(), recorded when the library was still
/// built with string formatting: rewriting an agent's source must keep
/// every image byte-identical, so no simulated result moves.
const std::map<std::string, std::uint64_t>& pinned_digests() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"fire_detector(0,0,180,8,0)", 0x75b60b751bc9d90aULL},
      {"fire_detector(0,0,180,8,32)", 0xd4bfb2fda86ddc02ULL},
      {"fire_detector(0,0,180,32,0)", 0xeceb9482b3abe5b2ULL},
      {"fire_detector(0,0,180,32,32)", 0x3e4dc674b0eb7eeaULL},
      {"fire_detector(0,0,180,80,0)", 0xd8629163dd2f1fc2ULL},
      {"fire_detector(0,0,180,80,32)", 0xcc3372504db3a93aULL},
      {"fire_detector(0,0,200,8,0)", 0xa81222142802791eULL},
      {"fire_detector(0,0,200,8,32)", 0x97819353170dbedeULL},
      {"fire_detector(0,0,200,32,0)", 0x2e06025928c0afa6ULL},
      {"fire_detector(0,0,200,32,32)", 0xb51837c8aa80bf46ULL},
      {"fire_detector(0,0,200,80,0)", 0x6b1181c30dc3bbd6ULL},
      {"fire_detector(0,0,200,80,32)", 0x7cfbd0ee4cbf0e96ULL},
      {"fire_detector(1,1,180,8,0)", 0x4e1d643f3c443f0aULL},
      {"fire_detector(1,1,180,8,32)", 0x983d402e5fff4e02ULL},
      {"fire_detector(1,1,180,32,0)", 0x6714bd7a3b42a432ULL},
      {"fire_detector(1,1,180,32,32)", 0x61a9c75f6111ae6aULL},
      {"fire_detector(1,1,180,80,0)", 0x528bba5b64c5de42ULL},
      {"fire_detector(1,1,180,80,32)", 0xa8d771659d8d79baULL},
      {"fire_detector(1,1,200,8,0)", 0xcfaac94a0788131eULL},
      {"fire_detector(1,1,200,8,32)", 0xbadd943dc733ee5eULL},
      {"fire_detector(1,1,200,32,0)", 0xa82f2b50b0576e26ULL},
      {"fire_detector(1,1,200,32,32)", 0x7895c4f962123146ULL},
      {"fire_detector(1,1,200,80,0)", 0xf0e858cb862cfd56ULL},
      {"fire_detector(1,1,200,80,32)", 0xb97e43bd952d9c96ULL},
      {"fire_detector(1.5,2,180,8,0)", 0x6b226b4eaa90e9eaULL},
      {"fire_detector(1.5,2,180,8,32)", 0x14ebd96526166722ULL},
      {"fire_detector(1.5,2,180,32,0)", 0xf77f34a924e4d4d2ULL},
      {"fire_detector(1.5,2,180,32,32)", 0xad55b58abd3448aULL},
      {"fire_detector(1.5,2,180,80,0)", 0x6592ad04d6c2fe62ULL},
      {"fire_detector(1.5,2,180,80,32)", 0x6259efe5e5eab91aULL},
      {"fire_detector(1.5,2,200,8,0)", 0x90213a31d1740ebeULL},
      {"fire_detector(1.5,2,200,8,32)", 0xa4c2d4555ae45beULL},
      {"fire_detector(1.5,2,200,32,0)", 0xbb361dfa22548e46ULL},
      {"fire_detector(1.5,2,200,32,32)", 0x744ff369dc951666ULL},
      {"fire_detector(1.5,2,200,80,0)", 0xd3e351bc17e05276ULL},
      {"fire_detector(1.5,2,200,80,32)", 0x2f8e2673853671f6ULL},
      {"fire_tracker(180,16)", 0x4561b55775414f13ULL},
      {"fire_tracker(200,8)", 0x9c16913cf7e978dfULL},
      {"sentinel(8)", 0x32dc8a8526c7810eULL},
      {"pursuer(8)", 0x6fc44274313108feULL},
      {"habitat_monitor(8)", 0xf5be35ad98032511ULL},
      {"habitat_monitor(40)", 0x8910ef51102e1571ULL},
      {"habitat_monitor(64)", 0x7133340031e70729ULL},
      {"blinker(4)", 0xa3bcf1a20b8af192ULL},
      {"blinker(8)", 0x59899dd0241ac532ULL},
      {"smove_round_trip(5,1;1,1)", 0xf4bf8fcf976acddcULL},
      {"move_once(smove,2,1)", 0x596278971565f861ULL},
      {"move_once(wclone,2,1)", 0x597376971574682eULL},
      {"rout_once(5,1)", 0x3453882f9fd7cd21ULL},
      {"smove_trial(2,1)", 0x90381a251b91e9dcULL},
      {"rout_trial(2,1)", 0x363bcfb435fe3221ULL},
      {"smove_trial(5,1)", 0x28e2398d927968c5ULL},
      {"rout_trial(5,1)", 0x3b6999f21ca74378ULL},
      {"smove_trial(4,3)", 0x6abcba73b8248105ULL},
      {"rout_trial(4,3)", 0x1cc15e3ada241138ULL},
      {"reporter(1)", 0xabca3523f1b9e6afULL},
      {"reporter(8)", 0x484d34d5eda42c0ULL},
      {"reporter(32)", 0x967b4a9ca9fd5d8ULL},
  };
  return digests;
}

TEST(AgentLibrary, BytecodePinnedAcrossArgumentGrid) {
  const auto grid = agent_grid();
  EXPECT_EQ(grid.size(), pinned_digests().size());
  for (const auto& [call, source] : grid) {
    const AssemblyResult r = assemble(source);
    ASSERT_TRUE(r.ok()) << call << ":\n" << r.error_text();
    EXPECT_LE(r.code.size(), 440u) << call << " exceeds the code pool";
    std::ostringstream entry;
    entry << "{\"" << call << "\", 0x" << std::hex << fnv1a(r.code)
          << "ULL},";
    const auto it = pinned_digests().find(call);
    if (it == pinned_digests().end()) {
      ADD_FAILURE() << "unpinned: " << entry.str();
      continue;
    }
    EXPECT_EQ(fnv1a(r.code), it->second) << "now: " << entry.str();
  }
}

TEST(AgentLibrary, BlinkerTogglesLeds) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  mesh.at(0).inject(assemble_or_die(agents::blinker(4)));
  mesh.sim.run_for(300 * sim::kMillisecond);
  const std::uint8_t first = mesh.at(0).engine().leds();
  mesh.sim.run_for(600 * sim::kMillisecond);
  const std::uint8_t second = mesh.at(0).engine().leds();
  EXPECT_NE(first, 0);
  EXPECT_NE(first, second);
}

TEST(AgentLibrary, FireDetectorQuietWithoutFire) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(25.0));
  mesh.warm();
  mesh.at(0).inject(
      assemble_or_die(agents::fire_detector({1, 1}, 200, 8)));
  mesh.sim.run_for(20 * sim::kSecond);
  // Detectors spread to both nodes (det markers), but no alert is raised.
  const ts::Template det{ts::Value::string("det"),
                         ts::Value::type_wildcard(ts::ValueType::kLocation)};
  EXPECT_TRUE(mesh.at(0).tuple_space().rdp(det).has_value());
  EXPECT_TRUE(mesh.at(1).tuple_space().rdp(det).has_value());
  const ts::Template alert{
      ts::Value::string("fir"),
      ts::Value::type_wildcard(ts::ValueType::kLocation)};
  EXPECT_FALSE(mesh.at(0).tuple_space().rdp(alert).has_value());
}

TEST(AgentLibrary, FireDetectorRaisesAlertWhenHot) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(300.0));
  mesh.warm();
  mesh.at(1).inject(
      assemble_or_die(agents::fire_detector({1, 1}, 200, 8)));
  mesh.sim.run_for(15 * sim::kSecond);
  // The alert tuple <"fir", detector-location> lands on node (1,1).
  const auto alert = mesh.at(0).tuple_space().rdp(ts::Template{
      ts::Value::string("fir"),
      ts::Value::type_wildcard(ts::ValueType::kLocation)});
  ASSERT_TRUE(alert.has_value());
}

TEST(AgentLibrary, HabitatMonitorLogsAndDiesOnFireAlert) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(20.0));
  mesh.at(0).inject(assemble_or_die(agents::habitat_monitor(8)));
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_GE(mesh.at(0).tuple_space().tcount(ts::Template{
                ts::Value::string("hab"),
                ts::Value::type_wildcard(ts::ValueType::kReading)}),
            1u);
  EXPECT_EQ(mesh.at(0).engine().agents().size(), 1u);
  // A fire alert appears: the habitat monitor voluntarily dies
  // (paper Sec. 2.2 decoupling scenario).
  mesh.at(0).tuple_space().out(
      ts::Tuple{ts::Value::string("fir"), ts::Value::location({1, 1})});
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_EQ(mesh.at(0).engine().agents().size(), 0u);
}

TEST(AgentLibrary, RoutAgentMatchesPaperFig8) {
  const std::string source = agents::rout_once({5, 1});
  // Paper Fig. 8 bottom: pushc 1, pushc 1, pushloc 5 1, rout, halt.
  const AssemblyResult r = assemble(source);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code[0], static_cast<std::uint8_t>(Opcode::kPushc));
  EXPECT_EQ(r.code[2], static_cast<std::uint8_t>(Opcode::kPushc));
  EXPECT_EQ(r.code[4], static_cast<std::uint8_t>(Opcode::kPushloc));
  EXPECT_EQ(r.code[9], static_cast<std::uint8_t>(Opcode::kROut));
  EXPECT_EQ(r.code[10], static_cast<std::uint8_t>(Opcode::kHalt));
}

}  // namespace
}  // namespace agilla::core
