// Fuzz-style robustness sweeps: random bytes into every wire parser and
// random bytecode into the VM. Nothing may crash; malformed input must be
// rejected or contained (a dying agent frees everything it held).
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "agilla_test_helpers.h"
#include "api/events.h"
#include "core/agent_library.h"
#include "core/agent_serializer.h"
#include "core/assembler.h"
#include "core/gateway.h"
#include "mate/capsule.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "tuplespace/tuple_match.h"

namespace agilla {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::code_memory_balanced;
using agilla::testing::MeshOptions;

std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.uniform(max_len + 1));
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, TupleAndTemplateDecodeNeverCrash) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 48);
    net::Reader r1(bytes);
    const auto tuple = ts::Tuple::decode(r1);
    if (tuple.has_value()) {
      // Whatever decoded must re-encode without tripping size invariants.
      EXPECT_LE(tuple->arity(), 48u);
    }
    net::Reader r2(bytes);
    const auto templ = ts::Template::decode(r2);
    if (templ.has_value() && tuple.has_value()) {
      (void)templ->matches(*tuple);  // must not crash
    }
  }
}

TEST_P(ParserFuzz, HeadersNeverCrash) {
  sim::Rng rng(GetParam() + 1);
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 32);
    {
      net::Reader r(bytes);
      net::GeoHeader::read(r);
    }
    {
      net::Reader r(bytes);
      net::LinkHeader::read(r);
    }
    {
      net::Reader r(bytes);
      mate::Capsule::read(r);
    }
    {
      net::Reader r(bytes);
      ts::Value::decode_compact(r);
      ts::Value::decode_padded(r);
    }
  }
}

TEST_P(ParserFuzz, ImageAssemblerRejectsGarbage) {
  sim::Rng rng(GetParam() + 2);
  const sim::AmType kinds[] = {
      sim::AmType::kAgentState, sim::AmType::kAgentCode,
      sim::AmType::kAgentStack, sim::AmType::kAgentHeap,
      sim::AmType::kAgentReaction};
  for (int round = 0; round < 200; ++round) {
    core::ImageAssembler assembler;
    for (int msg = 0; msg < 10; ++msg) {
      const auto bytes = random_bytes(rng, 40);
      assembler.feed(kinds[rng.uniform(5)], bytes);  // must not crash
      if (assembler.complete()) {
        // Vanishingly unlikely but legal: the image must be well-formed.
        const core::AgentImage image = assembler.take();
        EXPECT_FALSE(image.code.empty());
        break;
      }
    }
  }
}

TEST_P(ParserFuzz, ImageAssemblerSurvivesFieldEdgeMutants) {
  // Valid transfers with one or two messages mutated at a field's edge:
  // heap addresses 11, 12 and 0xFF; stack starts 12 and 16 with counts 4
  // and 5; a code block index equal to the block count and valid-byte
  // counts 22 and 23; a reaction index equal to the reaction count and
  // template field counts 4 and 5. feed must never crash or throw, and an
  // image that completes must stay within the agent's bounds.
  sim::Rng rng(GetParam() + 7);
  int completed = 0;
  for (int round = 0; round < 300; ++round) {
    core::AgentImage image;
    image.agent_id = static_cast<std::uint16_t>(rng.uniform(1u << 16));
    image.op = static_cast<core::MigrationOp>(rng.uniform(4));
    image.code.assign(1 + rng.uniform(440), 0x07);
    image.stack_depth =
        static_cast<std::uint8_t>(rng.uniform(core::Agent::kStackDepth + 1));
    for (std::size_t i = 0; i < image.stack_depth; ++i) {
      image.stack[i] = ts::Value::number(static_cast<std::int16_t>(i));
    }
    for (ts::Value& slot : image.heap) {
      if (rng.chance(0.5)) {
        slot = ts::Value::number(3);
      }
    }
    image.reactions.resize(rng.uniform(4));
    for (ts::Reaction& rxn : image.reactions) {
      rxn.agent_id = image.agent_id;
      for (std::size_t f = rng.uniform(5); f > 0; --f) {
        rxn.templ.add(ts::Value::type_wildcard(ts::ValueType::kNumber));
      }
    }
    const core::MessageCounts counts = core::message_counts(image);
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<sim::AmType> kinds;
    for (std::size_t i = 0; i < counts.total(); ++i) {
      const core::MigrationMessage m = core::encode_message(image, 1, i);
      payloads.emplace_back(m.payload.begin(), m.payload.end());
      kinds.push_back(m.am);
    }
    // Byte offsets after the agent id and transfer id.
    for (int mutation = 1 + static_cast<int>(rng.uniform(2)); mutation > 0;
         --mutation) {
      const std::size_t i = 1 + rng.uniform(payloads.size() - 1);
      std::vector<std::uint8_t>& p = payloads[i];
      const auto pick = [&rng](std::initializer_list<std::uint8_t> edges) {
        return edges.begin()[rng.uniform(edges.size())];
      };
      switch (kinds[i]) {
        case sim::AmType::kAgentHeap:
          p[4 + 7 * rng.uniform(core::kVarsPerMessage)] =
              pick({11, 12, 0xFF});
          break;
        case sim::AmType::kAgentStack:
          if (rng.chance(0.5)) {
            p[3] = pick({12, 16});
          }
          if (rng.chance(0.5)) {
            p[4] = pick({4, 5});
          }
          break;
        case sim::AmType::kAgentCode:
          if (rng.chance(0.5)) {
            p[3] = static_cast<std::uint8_t>(counts.code);
          } else {
            p[4] = pick({22, 23});
          }
          break;
        case sim::AmType::kAgentReaction:
          if (rng.chance(0.5)) {
            p[3] = static_cast<std::uint8_t>(image.reactions.size());
          } else {
            p[6] = pick({4, 5});
          }
          break;
        default:
          break;
      }
    }
    core::ImageAssembler assembler;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_NO_THROW(assembler.feed(kinds[i], payloads[i]));
    }
    if (assembler.complete()) {
      ++completed;
      const core::AgentImage got = assembler.take();
      EXPECT_LE(got.stack_depth, core::Agent::kStackDepth);
      EXPECT_LE(got.heap_slots(), core::kHeapSlots);
      EXPECT_EQ(got.code.size(), image.code.size());
      for (const ts::Reaction& rxn : got.reactions) {
        EXPECT_LE(rxn.templ.arity(), core::kMaxReactionTemplateFields);
      }
    }
  }
  // Some mutants stay within their message's share and complete.
  EXPECT_GT(completed, 0);
}

TEST_P(ParserFuzz, AssemblerSurvivesRandomText) {
  sim::Rng rng(GetParam() + 3);
  const char charset[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 \n\t:,#/-.\"";
  for (int i = 0; i < 300; ++i) {
    std::string source;
    const std::size_t len = rng.uniform(200);
    for (std::size_t c = 0; c < len; ++c) {
      source.push_back(charset[rng.uniform(sizeof(charset) - 1)]);
    }
    const core::AssemblyResult result = core::assemble(source);
    if (result.ok()) {
      // If it assembled, it must disassemble without crashing.
      core::disassemble(result.code);
    }
  }
}

TEST_P(ParserFuzz, AgentSourceMutantsRoundTrip) {
  // Mutants of every library agent's source (helper macros included):
  // dropped, duplicated and swapped lines plus flipped bytes. The
  // assembler must never crash, and every mutant that assembles must
  // survive disassemble -> assemble byte for byte.
  sim::Rng rng(GetParam() + 6);
  namespace agents = core::agents;
  const std::vector<std::string> seeds = {
      agents::smove_round_trip({5, 1}, {1, 1}),
      agents::move_once("wclone", {2, 1}),
      agents::rout_once({5, 1}),
      agents::fire_detector({1.5, 2}, 200, 32, 0),
      agents::fire_detector({1, 1}, 180, 8, 32),
      agents::fire_tracker(180, 16),
      agents::habitat_monitor(40),
      agents::blinker(8),
      agents::sentinel(8),
      agents::pursuer(8),
      agents::smove_trial({4, 3}),
      agents::rout_trial({5, 1}),
      agents::reporter(8)};
  int assembled = 0;
  for (const std::string& seed : seeds) {
    for (int mutant = 0; mutant < 30; ++mutant) {
      std::vector<std::string> lines;
      std::istringstream in(seed);
      for (std::string line; std::getline(in, line);) {
        lines.push_back(line);
      }
      for (int edit = 0; edit < 3; ++edit) {
        const std::size_t at = rng.uniform(lines.size());
        switch (rng.uniform(4)) {
          case 0:
            lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
            break;
          case 1:
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                         lines[at]);
            break;
          case 2:
            std::swap(lines[at], lines[rng.uniform(lines.size())]);
            break;
          default:
            if (!lines[at].empty()) {
              lines[at][rng.uniform(lines[at].size())] ^=
                  static_cast<char>(1 + rng.uniform(255));
            }
            break;
        }
      }
      std::string source;
      for (const std::string& line : lines) {
        source += line + "\n";
      }
      const core::AssemblyResult result = core::assemble(source);
      if (!result.ok()) {
        continue;
      }
      ++assembled;
      const core::AssemblyResult again =
          core::assemble(core::disassemble(result.code));
      ASSERT_TRUE(again.ok()) << again.error_text() << "\nmutant:\n"
                              << source;
      ASSERT_EQ(again.code, result.code) << "mutant:\n" << source;
    }
  }
  EXPECT_GT(assembled, 0);
}

TEST_P(ParserFuzz, VmContainsRandomBytecode) {
  sim::Rng rng(GetParam() + 4);
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  for (int round = 0; round < 60; ++round) {
    auto code = random_bytes(rng, 64);
    if (code.empty()) {
      code.assign(1, 0x00);
    }
    mesh.at(0).inject(code);
    mesh.sim.run_for(5 * sim::kSecond);
    // Whatever the agent did, it must be gone (halt, vm error, or a
    // migration attempt that failed and ran to exhaustion) or asleep on a
    // legitimate sleep — and resources must balance.
    ASSERT_TRUE(code_memory_balanced(mesh.at(0))) << "round " << round;
    // Clean the slate for the next round.
    mesh.sim.run_for(60 * sim::kSecond);
    for (const auto& agent : mesh.at(0).engine().agents()) {
      // Long sleepers are acceptable; nothing else should linger. 16-bit
      // tick sleeps cap at ~2.3 hours, so just drop them explicitly.
      EXPECT_TRUE(agent->run_state() == core::AgentRunState::kSleeping ||
                  agent->run_state() == core::AgentRunState::kBlockedTs ||
                  agent->run_state() == core::AgentRunState::kWaitingRxn ||
                  agent->run_state() == core::AgentRunState::kBlockedOp);
    }
  }
}

/// The console's own token split: what `>>` skips in the C locale.
std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

/// One random edit of a console command line: a byte flip, a dropped or
/// duplicated token, a truncation, or a number swapped for a hostile one.
std::string mutate_command(sim::Rng& rng, std::string line) {
  static const char* const kHostileNumbers[] = {"1e308", "-0", "nan",
                                                "0x7fffffff", "--5"};
  std::vector<std::string> tokens = split_tokens(line);
  const auto join = [&tokens] {
    std::string out;
    for (const std::string& token : tokens) {
      out += (out.empty() ? "" : " ") + token;
    }
    return out;
  };
  switch (rng.uniform(5)) {
    case 0:  // byte flip
      if (!line.empty()) {
        line[rng.uniform(line.size())] ^=
            static_cast<char>(1u << rng.uniform(8));
      }
      return line;
    case 1:  // token drop
      if (!tokens.empty()) {
        tokens.erase(tokens.begin() +
                     static_cast<std::ptrdiff_t>(rng.uniform(tokens.size())));
      }
      return join();
    case 2:  // token duplicate
      if (!tokens.empty()) {
        const std::size_t at = rng.uniform(tokens.size());
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                      tokens[at]);
      }
      return join();
    case 3:  // truncation
      line.resize(rng.uniform(line.size() + 1));
      return line;
    default: {  // a number (or the value after a "type:") made hostile
      std::vector<std::size_t> numeric;
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].find_first_of("0123456789") != std::string::npos) {
          numeric.push_back(i);
        }
      }
      if (numeric.empty()) {
        return line;
      }
      std::string& token = tokens[numeric[rng.uniform(numeric.size())]];
      const std::string hostile = kHostileNumbers[rng.uniform(5)];
      const std::size_t colon = token.rfind(':');
      token = colon == std::string::npos ? hostile
                                         : token.substr(0, colon + 1) + hostile;
      return join();
    }
  }
}

TEST_P(ParserFuzz, ConsoleSurvivesMutatedCommands) {
  // The console's text grammar is a trust boundary: remote clients drive
  // it through the gateway daemon. Mutants of every command form the
  // console tests use must each get a response, never an exception, with
  // the deployment running between batches.
  const std::vector<std::string> corpus = {
      "inject asm pushc 9; pushc 1; out; halt",
      "inject agent blinker",
      "inject agent firedetector 2 2",
      "inject at 3 1 asm pushn arr; pushc 1; out; halt",
      "inject at 2 3 asm pushloc 1 1; smove; halt",
      "rout 3 1 str:cmd num:7",
      "rout 2 2 reading:0,5 loc:1,2 agent:7",
      "rrdp 3 1 str:cmd ?num",
      "rinp 3 1 ?num",
      "region 2 1 1.2 all str:evc num:1",
      "region 2 2 1.5 any str:x",
      "subscribe node",
      "subscribe agent",
      "subscribe tuple",
      "unsubscribe node",
      "unsubscribe",
      "status",
      "help",
  };
  sim::Rng rng(GetParam() + 6);
  AgillaMesh mesh;  // 3x3
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(21.0));
  mesh.warm();
  core::BaseStation base(mesh.at(0));
  api::EventBus bus(&mesh.sim);
  core::GatewayConsole console(base);
  console.attach_bus(bus);
  std::size_t async_results = 0;
  std::size_t events = 0;
  console.set_async_sink(
      [&](std::uint64_t, bool, const std::string&) { async_results++; });
  console.set_event_sink(
      [&](const std::string&, const std::string&, sim::SimTime) { events++; });

  constexpr int kBatches = 20;
  constexpr int kPerBatch = 25;
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int i = 0; i < kPerBatch; ++i) {
      std::string line = corpus[rng.uniform(corpus.size())];
      const std::uint64_t edits = 1 + rng.uniform(3);
      for (std::uint64_t e = 0; e < edits; ++e) {
        line = mutate_command(rng, line);
      }
      std::string response;
      ASSERT_NO_THROW(response = console.execute(line)) << line;
      // Only a line with no token is answered with nothing.
      EXPECT_EQ(response.empty(), split_tokens(line).empty())
          << "batch " << batch << ": '" << line << "'";
    }
    mesh.sim.run_for(2 * sim::kSecond);
  }
  console.execute("unsubscribe");
  EXPECT_EQ(bus.observer_count(), 0u);
  // The run did reach the network, not only the parsers.
  EXPECT_GT(async_results + events, 0u);
}

TEST_P(ParserFuzz, TupleRefMatchingAgreesWithEagerDecodeAndMatch) {
  // The tuple_match.h equivalence contract over an adversarial corpus:
  // random bytes, truncations of valid encodings, valid encodings with
  // trailing bytes, and single-byte mutations of valid encodings. For
  // every (bytes, template) pair the zero-copy wire match must equal
  // eager decode-then-match, a hit must return the decoded tuple, and
  // (under ASan) nothing may read outside the span. The templates cover
  // both matcher paths: exact fields compared by their wire bytes (up to
  // 12 of them, int16 extremes included) and wildcard, reading-type and
  // non-canonical fields that decode.
  sim::Rng rng(GetParam() + 5);

  auto random_concrete = [&rng]() -> ts::Value {
    constexpr std::array<std::int16_t, 3> kExtremes = {-32768, -1, 32767};
    switch (rng.uniform(6)) {
      case 0:
        return ts::Value::number(static_cast<std::int16_t>(rng.uniform(8)));
      case 1:
        return ts::Value::string(std::string(1, 'a' + rng.uniform(3)));
      case 2:
        return ts::Value::location({static_cast<double>(rng.uniform(3)),
                                    static_cast<double>(rng.uniform(3))});
      case 3:
        return ts::Value::reading(sim::SensorType::kPhoto,
                                  static_cast<std::int16_t>(rng.uniform(4)));
      case 4:
        return ts::Value::agent_id(
            static_cast<std::uint16_t>(rng.uniform(4)));
      default: {
        const std::int16_t v = kExtremes[rng.uniform(kExtremes.size())];
        switch (rng.uniform(3)) {
          case 0:
            return ts::Value::number(v);
          case 1:
            return ts::Value::reading(sim::SensorType::kPhoto, v);
          default:
            return ts::Value::agent_id(static_cast<std::uint16_t>(v));
        }
      }
    }
  };

  // [count][fields...] for any number of fields: past the 25-byte tuple
  // budget only the decoders accept them, which is how a wire record or
  // a remote template can carry up to 12 exact fields.
  auto encode_record = [](const std::vector<ts::Value>& fields) {
    std::vector<std::uint8_t> out{static_cast<std::uint8_t>(fields.size())};
    for (const ts::Value& f : fields) {
      net::Writer w;
      f.encode_compact(w);
      out.insert(out.end(), w.data().begin(), w.data().end());
    }
    return out;
  };
  auto padded = [](std::initializer_list<std::uint8_t> bytes) {
    const std::vector<std::uint8_t> wire(bytes);
    net::Reader r(wire);
    return ts::Value::decode_padded(r);
  };
  // Non-canonical values the compact form cannot carry: a number with a
  // nonzero second half and a reading whose sensor is over 255. A byte
  // compare would take them for number 3 and a sensor-44 reading of 2.
  const ts::Value odd_number = padded({1, 3, 0, 1, 0, 0});
  const ts::Value odd_reading = padded({4, 2, 0, 0x2C, 0x01, 0});
  const ts::Value number3 = ts::Value::number(3);
  const ts::Value reading44 =
      ts::Value::reading(static_cast<sim::SensorType>(0x2C), 2);

  // A pool of templates compiled once, fuzzed bytes matched against all.
  std::vector<ts::Template> templates;
  for (int i = 0; i < 24; ++i) {
    ts::Template t;
    const std::size_t arity = rng.uniform(4);  // includes the empty template
    for (std::size_t f = 0; f < arity; ++f) {
      switch (rng.uniform(4)) {
        case 0:
          t.add(ts::Value::type_wildcard(random_concrete().type()));
          break;
        case 1:
          t.add(ts::Value::reading_type(sim::SensorType::kPhoto));
          break;
        default:
          t.add(random_concrete());
          break;
      }
    }
    templates.push_back(t);
  }
  // All-exact templates of 1..12 fields, each with its own record (a hit).
  std::vector<std::vector<std::uint8_t>> exact_records;
  for (int i = 0; i < 12; ++i) {
    std::vector<ts::Value> fields(1 + static_cast<std::size_t>(i));
    for (ts::Value& f : fields) {
      f = random_concrete();
    }
    exact_records.push_back(encode_record(fields));
    net::Reader r(exact_records.back());
    const auto t = ts::Template::decode(r);
    ASSERT_TRUE(t.has_value());
    templates.push_back(*t);
  }
  const std::size_t first_odd = templates.size();
  templates.push_back(ts::Template{odd_number});
  templates.push_back(ts::Template{odd_number, number3});
  templates.push_back(ts::Template{odd_reading});
  templates.push_back(ts::Template{number3, odd_reading});
  std::vector<ts::CompiledTemplate> compiled(templates.begin(),
                                             templates.end());

  auto check_all = [&](const std::vector<std::uint8_t>& bytes) {
    // Exact-sized heap span: ASan catches any out-of-bounds read.
    const ts::TupleRef ref{std::span<const std::uint8_t>(bytes)};
    net::Reader r(bytes);
    const auto eager = ts::Tuple::decode(r);
    ASSERT_EQ(ref.encoded_size().has_value(), eager.has_value());
    ASSERT_EQ(ref.materialize(), eager);
    for (std::size_t i = 0; i < templates.size(); ++i) {
      const bool expected =
          eager.has_value() && templates[i].matches(*eager);
      ASSERT_EQ(compiled[i].matches(ref), expected)
          << templates[i].to_string() << " over "
          << (eager ? eager->to_string() : "<malformed>");
      ASSERT_FALSE(expected && i >= first_odd)
          << "a non-canonical template field matched";
      if (expected) {
        ASSERT_EQ(compiled[i].hit(ref), eager);
      }
    }
  };

  // The records a byte compare of the non-canonical fields would hit.
  check_all(encode_record({number3}));
  check_all(encode_record({number3, number3}));
  check_all(encode_record({reading44}));
  check_all(encode_record({number3, reading44}));

  for (int round = 0; round < 400; ++round) {
    check_all(random_bytes(rng, 32));

    std::vector<std::uint8_t> encoded;
    if (round % 4 == 0) {
      encoded = exact_records[rng.uniform(exact_records.size())];
    } else {
      ts::Tuple valid;
      const std::size_t arity = 1 + rng.uniform(3);
      for (std::size_t f = 0; f < arity; ++f) {
        valid.add(random_concrete());
      }
      net::Writer w;
      valid.encode(w);
      encoded.assign(w.data().begin(), w.data().end());
    }
    check_all(encoded);  // the untouched encoding must agree too

    std::vector<std::uint8_t> trailing = encoded;
    const std::vector<std::uint8_t> tail = random_bytes(rng, 4);
    trailing.insert(trailing.end(), tail.begin(), tail.end());
    check_all(trailing);

    std::vector<std::uint8_t> truncated(
        encoded.begin(),
        encoded.begin() + static_cast<std::ptrdiff_t>(
                              rng.uniform(encoded.size())));
    check_all(truncated);

    std::vector<std::uint8_t> mutated = encoded;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.uniform(255));
    check_all(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(101, 202, 303));

TEST(FuzzRegression, AllOnesStateMessage) {
  core::ImageAssembler assembler;
  const std::vector<std::uint8_t> ones(core::kStateMessageBytes, 0xFF);
  EXPECT_FALSE(assembler.feed(sim::AmType::kAgentState, ones));
  EXPECT_FALSE(assembler.complete());
}

TEST(FuzzRegression, EmptyPayloads) {
  core::ImageAssembler assembler;
  EXPECT_FALSE(assembler.feed(sim::AmType::kAgentState, {}));
  net::Reader r(std::span<const std::uint8_t>{});
  EXPECT_FALSE(ts::Tuple::decode(r).has_value());
}

}  // namespace
}  // namespace agilla
