// Agent toolchain guarantees: the disassembler/assembler round trip
// (assemble(disassemble(code)) == code for ANY byte string), synthetic
// label reconstruction, the engine's instruction trace taps (identical
// across dispatch modes, zero observable effect when unset), and the
// api::Deployment::inject_file path reproducing the hand-built
// fire-detector byte-for-byte and tuple-for-tuple.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "agilla_test_helpers.h"
#include "api/deployment.h"
#include "core/agent_library.h"
#include "core/assembler.h"
#include "sim/rng.h"

namespace agilla {
namespace {

namespace fs = std::filesystem;

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry :
       fs::directory_iterator(fs::path(AGILLA_SOURCE_DIR) / "tests" /
                              "agents")) {
    if (entry.path().extension() == ".aga") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// ------------------------------------------------------------- round trip

TEST(RoundTrip, CorpusFilesSurviveDisassembleReassemble) {
  const std::vector<fs::path> files = corpus_files();
  ASSERT_GE(files.size(), 10u) << "conformance corpus went missing";
  for (const fs::path& file : files) {
    const core::AssemblyResult original = core::assemble_file(file.string());
    ASSERT_TRUE(original.ok()) << file << "\n" << original.error_text();
    const std::string listing = core::disassemble(original.code);
    const core::AssemblyResult again = core::assemble(listing);
    ASSERT_TRUE(again.ok()) << file << "\n"
                            << again.error_text() << "\n"
                            << listing;
    EXPECT_EQ(again.code, original.code) << file << "\n" << listing;
  }
}

TEST(RoundTrip, ArbitraryBytecodeSurvives) {
  // The disassembler must never lose information: undefined opcodes,
  // truncated operands, and non-canonical encodings all come back as
  // .byte lines that reassemble to the original image.
  for (const std::uint64_t seed : {3u, 14u, 159u, 2653u}) {
    sim::Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      std::vector<std::uint8_t> code(rng.uniform(65));
      for (auto& b : code) {
        b = static_cast<std::uint8_t>(rng.uniform(256));
      }
      const std::string listing = core::disassemble(code);
      const core::AssemblyResult again = core::assemble(listing);
      ASSERT_TRUE(again.ok())
          << "seed " << seed << " case " << i << "\n"
          << again.error_text() << "\n"
          << listing;
      ASSERT_EQ(again.code, code)
          << "seed " << seed << " case " << i << "\n"
          << listing;
    }
  }
}

TEST(RoundTrip, MacroSourcesReassembleFromListing) {
  // Macro-generated code disassembles to plain instructions that round
  // trip; the golden corpus already covers this per file, this pins the
  // inline path.
  const core::AssemblyResult original = core::assemble(R"(
      .macro CLAIM name
          pushn name
          loc
          pushc 2
          out
      .endm
      BEGIN CLAIM det
            pushc 0
            setvar 1
      LOOP  getvar 1
            inc
            setvar 1
            rjump LOOP
  )");
  ASSERT_TRUE(original.ok()) << original.error_text();
  const std::string listing = core::disassemble(original.code);
  EXPECT_EQ(core::assemble(listing).code, original.code) << listing;
}

TEST(Disassembler, ReconstructsJumpLabels) {
  const core::AssemblyResult r = core::assemble(R"(
      BEGIN pushc 1
            rjumpc FWD
            rjump BEGIN
      FWD   halt
  )");
  ASSERT_TRUE(r.ok());
  const std::string listing = core::disassemble(r.code);
  // Both targets land on decode boundaries, so they come back as
  // synthetic L_<addr> labels, not raw numeric offsets.
  EXPECT_NE(listing.find("L_0:"), std::string::npos) << listing;
  EXPECT_NE(listing.find("L_6:"), std::string::npos) << listing;
  EXPECT_NE(listing.find("rjumpc L_6"), std::string::npos) << listing;
  EXPECT_NE(listing.find("rjump L_0"), std::string::npos) << listing;
  EXPECT_EQ(core::assemble(listing).code, r.code);
}

TEST(Disassembler, MidInstructionTargetStaysNumeric) {
  // rjump -1 points into the middle of its own encoding: no label can
  // represent that, so the offset must stay numeric (and round trip).
  const std::vector<std::uint8_t> code = {
      0x60, 7,                              // pushc 7
      0x28, static_cast<std::uint8_t>(-1),  // rjump into the operand byte
  };
  const std::string listing = core::disassemble(code);
  EXPECT_EQ(listing.find("L_"), std::string::npos) << listing;
  EXPECT_NE(listing.find("rjump -1"), std::string::npos) << listing;
  EXPECT_EQ(core::assemble(listing).code, code);
}

// ------------------------------------------------------- instruction records

/// Every kInsn record a simulator emits.
struct InsnLog final : sim::EventSink {
  std::vector<sim::Event> records;

  void attach(sim::Simulator& simulator) {
    simulator.set_sink(this, sim::mask_of(sim::EventKind::kInsn));
  }
  void on_event(const sim::Event& e) override { records.push_back(e); }

  /// One line per record: mote, agent, pc, opcode.
  [[nodiscard]] std::vector<std::string> lines() const {
    std::vector<std::string> out;
    for (const sim::Event& e : records) {
      std::ostringstream os;
      os << "m" << e.node.value << " a" << e.agent << " pc" << e.pc << " op"
         << static_cast<int>(e.opcode);
      out.push_back(os.str());
    }
    return out;
  }
};

std::vector<std::string> traced_run(core::DispatchMode mode,
                                    const std::vector<std::uint8_t>& code) {
  MeshOptions options;
  options.width = 3;
  options.height = 3;
  options.seed = 7;
  options.config.engine.dispatch = mode;
  AgillaMesh mesh(options);
  InsnLog log;
  log.attach(mesh.sim);
  mesh.warm();
  mesh.at(0).inject(code);
  mesh.sim.run_for(30 * sim::kSecond);
  return log.lines();
}

TEST(InsnRecords, IdenticalAcrossDispatchModes) {
  // Every corpus program, switch vs threaded: the instruction record
  // stream (mote, agent, pc, opcode) must match exactly.
  for (const fs::path& file : corpus_files()) {
    const core::AssemblyResult r = core::assemble_file(file.string());
    ASSERT_TRUE(r.ok()) << file;
    const auto sw = traced_run(core::DispatchMode::kSwitch, r.code);
    const auto th = traced_run(core::DispatchMode::kThreaded, r.code);
    ASSERT_FALSE(sw.empty()) << file;
    EXPECT_EQ(sw, th) << file;
  }
}

TEST(InsnRecords, OneRecordPerDispatchedInstruction) {
  MeshOptions options;
  options.width = 1;
  options.height = 1;
  AgillaMesh mesh(options);
  InsnLog log;
  log.attach(mesh.sim);
  mesh.at(0).inject(core::assemble_or_die("pushc 1\nhalt"));
  mesh.sim.run_for(sim::kSecond);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].pc, 0);
  EXPECT_EQ(log.records[0].opcode,
            static_cast<std::uint8_t>(core::Opcode::kPushc));
  EXPECT_EQ(log.records[1].pc, 2);
  EXPECT_EQ(log.records[1].opcode,
            static_cast<std::uint8_t>(core::Opcode::kHalt));
  EXPECT_EQ(log.records[0].agent, log.records[1].agent);
}

std::string final_state(core::DispatchMode mode, bool trace,
                        const std::vector<std::uint8_t>& code) {
  MeshOptions options;
  options.width = 1;
  options.height = 1;
  options.seed = 7;
  options.config.engine.dispatch = mode;
  AgillaMesh mesh(options);
  InsnLog log;
  if (trace) {
    log.attach(mesh.sim);
  }
  mesh.warm();
  mesh.at(0).inject(code);
  mesh.sim.run_for(20 * sim::kSecond);
  std::ostringstream os;
  const core::EngineStats& s = mesh.at(0).engine().stats();
  os << s.instructions << " " << s.slices << " " << s.vm_errors << " "
     << s.agents_halted << "\n";
  for (const ts::Tuple& t : mesh.at(0).tuple_space().store().snapshot()) {
    os << t.to_string() << "\n";
  }
  EXPECT_EQ(log.records.empty(), !trace);
  return os.str();
}

TEST(InsnRecords, TracingDoesNotPerturbSimulation) {
  const auto code = core::assemble_file(
      (fs::path(AGILLA_SOURCE_DIR) / "tests/agents/arith.aga").string());
  ASSERT_TRUE(code.ok());
  const std::string off = final_state(core::DispatchMode::kThreaded, false,
                                      code.code);
  const std::string on = final_state(core::DispatchMode::kThreaded, true,
                                     code.code);
  EXPECT_EQ(off, on);
  EXPECT_EQ(final_state(core::DispatchMode::kSwitch, false, code.code), off);
}

// ------------------------------------------------------------ inject_file

api::DeploymentOptions small_grid() {
  api::DeploymentOptions options;
  options.width = 3;
  options.height = 3;
  options.packet_loss = 0.0;
  options.per_byte_loss = 0.0;
  options.seed = 11;
  return options;
}

std::string tuple_dump(api::Deployment& d) {
  std::ostringstream os;
  for (std::size_t m = 0; m < d.mote_count(); ++m) {
    for (const ts::Tuple& t : d.mote(m).tuple_space().store().snapshot()) {
      os << m << " " << t.to_string() << "\n";
    }
  }
  return os.str();
}

TEST(InjectFile, FireDetectorMatchesHandBuiltAgent) {
  const fs::path source =
      fs::path(AGILLA_SOURCE_DIR) / "tests/agents/fire_detector.aga";
  // Byte-for-byte: the corpus file is the library builder's program.
  const core::AssemblyResult from_file =
      core::assemble_file(source.string());
  ASSERT_TRUE(from_file.ok()) << from_file.error_text();
  const std::vector<std::uint8_t> hand = core::assemble_or_die(
      core::agents::fire_detector({0, 0}, 200, 80, 0));
  ASSERT_EQ(from_file.code, hand);

  // And behaviourally: same seed, file-injected vs hand-built, identical
  // tuple spaces after the detector floods the mesh.
  api::Deployment via_file(small_grid());
  ASSERT_TRUE(via_file.inject_file(source.string()).has_value());
  via_file.run_for(30 * sim::kSecond);

  api::Deployment via_library(small_grid());
  ASSERT_TRUE(via_library.mote(0).inject(hand).has_value());
  via_library.run_for(30 * sim::kSecond);

  const std::string dump = tuple_dump(via_file);
  EXPECT_EQ(dump, tuple_dump(via_library));
  // Every mote got claimed by exactly one <"det", loc> tuple.
  EXPECT_EQ(via_file.motes_matching(
                ts::Template{ts::Value::string("det"),
                             ts::Value::type_wildcard(ts::ValueType::kLocation)}),
            via_file.mote_count());
  EXPECT_NE(dump.find("<\"det\", (1,1)>"), std::string::npos) << dump;
}

TEST(InjectFile, BadSourceThrowsWithDiagnostics) {
  api::Deployment d(small_grid());
  const fs::path bad = fs::path(::testing::TempDir()) / "bad_agent.aga";
  std::ofstream(bad) << "halt\nbogus 1\n";
  try {
    d.inject_file(bad.string());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad_agent.aga:2"), std::string::npos) << what;
  }
  EXPECT_THROW(d.inject_file("/nonexistent/nope.aga"), std::runtime_error);
}

}  // namespace
}  // namespace agilla
