#include "core/assembler.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "net/packet.h"
#include "tuplespace/value.h"

namespace agilla::core {
namespace {

TEST(Assembler, SingleInstruction) {
  const AssemblyResult r = assemble("halt");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.code, (std::vector<std::uint8_t>{0x00}));
}

TEST(Assembler, CommentsAndBlankLines) {
  const AssemblyResult r = assemble(R"(
      // comment only
      halt   // trailing comment
      # another style

      loc    ; semicolon comment
  )");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.code, (std::vector<std::uint8_t>{0x00, 0x01}));
}

TEST(Assembler, PushcOperand) {
  const AssemblyResult r = assemble("pushc 200");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code, (std::vector<std::uint8_t>{0x60, 200}));
}

TEST(Assembler, PushclLittleEndian) {
  const AssemblyResult r = assemble("pushcl 4800");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code,
            (std::vector<std::uint8_t>{0x61, 4800 & 0xFF, 4800 >> 8}));
}

TEST(Assembler, PushclNegative) {
  const AssemblyResult r = assemble("pushcl -2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code, (std::vector<std::uint8_t>{0x61, 0xFE, 0xFF}));
}

TEST(Assembler, PushnPacksString) {
  const AssemblyResult r = assemble("pushn fir");
  ASSERT_TRUE(r.ok());
  const std::uint16_t packed = ts::pack_string("fir");
  EXPECT_EQ(r.code, (std::vector<std::uint8_t>{
                        0x62, static_cast<std::uint8_t>(packed & 0xFF),
                        static_cast<std::uint8_t>(packed >> 8)}));
}

TEST(Assembler, PushnQuoted) {
  EXPECT_EQ(assemble("pushn \"abc\"").code, assemble("pushn abc").code);
}

TEST(Assembler, PushtTypeNames) {
  const AssemblyResult r = assemble("pusht LOCATION");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code[1],
            static_cast<std::uint8_t>(ts::ValueType::kLocation));
  EXPECT_FALSE(assemble("pusht BANANA").ok());
}

TEST(Assembler, PushrtSensorNames) {
  const AssemblyResult r = assemble("pushrt TEMPERATURE");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code[1],
            static_cast<std::uint8_t>(sim::SensorType::kTemperature));
}

TEST(Assembler, PushcAcceptsSensorNames) {
  // Paper Fig. 13 line 1: "pushc TEMPERATURE".
  const AssemblyResult r = assemble("pushc TEMPERATURE");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code[1], 0);
}

TEST(Assembler, PushlocEncodesFixedPoint) {
  const AssemblyResult r = assemble("pushloc 5 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.code.size(), 5u);
  const auto x = static_cast<std::int16_t>(r.code[1] | (r.code[2] << 8));
  const auto y = static_cast<std::int16_t>(r.code[3] | (r.code[4] << 8));
  EXPECT_DOUBLE_EQ(net::decode_coordinate(x), 5.0);
  EXPECT_DOUBLE_EQ(net::decode_coordinate(y), 1.0);
}

TEST(Assembler, PushlocFractional) {
  const AssemblyResult r = assemble("pushloc 2.5 3.25");
  ASSERT_TRUE(r.ok());
  const auto x = static_cast<std::int16_t>(r.code[1] | (r.code[2] << 8));
  EXPECT_DOUBLE_EQ(net::decode_coordinate(x), 2.5);
}

TEST(Assembler, LabelsPaperStyle) {
  // The paper writes labels as bare leading words: "BEGIN pushn fir".
  const AssemblyResult r = assemble(R"(
      BEGIN pushc 1
            rjump BEGIN
  )");
  ASSERT_TRUE(r.ok()) << r.error_text();
  // rjump offset: target(0) - (addr(2) + 2) = -4.
  EXPECT_EQ(r.code,
            (std::vector<std::uint8_t>{0x60, 1, 0x28,
                                       static_cast<std::uint8_t>(-4)}));
}

TEST(Assembler, LabelsColonStyleAndLabelOnlyLines) {
  const AssemblyResult r = assemble(R"(
      START:
        pushc 7
        rjumpc START
  )");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.code[2], 0x29);
  EXPECT_EQ(static_cast<std::int8_t>(r.code[3]), -4);
}

TEST(Assembler, ForwardReferences) {
  const AssemblyResult r = assemble(R"(
      rjump END
      halt
      END halt
  )");
  ASSERT_TRUE(r.ok()) << r.error_text();
  // rjump at 0, len 2; halt at 2; END at 3. offset = 3 - 2 = 1.
  EXPECT_EQ(static_cast<std::int8_t>(r.code[1]), 1);
}

TEST(Assembler, PushcWithLabelOperand) {
  // Paper Fig. 2 line 4: "pushc FIRE" pushes a handler address.
  const AssemblyResult r = assemble(R"(
      pushc FIRE
      halt
      FIRE halt
  )");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.code[1], 3);  // FIRE sits after pushc(2) + halt(1)
}

TEST(Assembler, NumericLinePrefixesTolerated) {
  // The paper's listings carry line numbers ("7: FIRE pop").
  const AssemblyResult r = assemble(R"(
      1: pushc 1
      2: FIRE pop
      3: rjump FIRE
  )");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.code.size(), 5u);
}

TEST(Assembler, GetvarSetvarEmbedSlot) {
  const AssemblyResult r = assemble("setvar 3\ngetvar 11");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code, (std::vector<std::uint8_t>{0x53, 0x4b}));
  EXPECT_FALSE(assemble("getvar 12").ok());
  EXPECT_FALSE(assemble("setvar -1").ok());
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  const AssemblyResult r = assemble("halt\nbogus\npushc 5");
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].line, 2u);
  EXPECT_TRUE(r.code.empty());
}

TEST(Assembler, DuplicateLabelRejected) {
  const AssemblyResult r = assemble("A halt\nA halt");
  EXPECT_FALSE(r.ok());
}

TEST(Assembler, UnknownJumpTargetRejected) {
  EXPECT_FALSE(assemble("rjump NOWHERE").ok());
}

TEST(Assembler, PushlocRejectsNonFiniteCoordinates) {
  // NaN would reach the fixed-point cast in net::encode_coordinate.
  for (const char* source :
       {"pushloc nan 1", "pushloc 1 NaN", "pushloc inf 1", "pushloc 1 -inf",
        "pushloc 1e999 1"}) {
    const AssemblyResult r = assemble(source);
    ASSERT_FALSE(r.ok()) << source;
    EXPECT_NE(r.error_text().find("finite"), std::string::npos) << source;
  }
  EXPECT_TRUE(assemble("pushloc -511.5 511.5").ok());
}

TEST(Assembler, OperandCountValidated) {
  EXPECT_FALSE(assemble("pushc").ok());
  EXPECT_FALSE(assemble("pushc 1 2").ok());
  EXPECT_FALSE(assemble("halt 1").ok());
  EXPECT_FALSE(assemble("pushloc 1").ok());
}

TEST(Assembler, PushcRangeValidated) {
  EXPECT_TRUE(assemble("pushc 255").ok());
  EXPECT_FALSE(assemble("pushc 256").ok());
  EXPECT_FALSE(assemble("pushc -1").ok());
}

TEST(Assembler, RelativeJumpRangeValidated) {
  // Build a program whose label is ~200 bytes away: out of int8 range.
  std::string source = "rjump FAR\n";
  for (int i = 0; i < 100; ++i) {
    source += "pushc 1\n";  // 2 bytes each
  }
  source += "FAR halt\n";
  EXPECT_FALSE(assemble(source).ok());
}

TEST(Assembler, HexLiterals) {
  const AssemblyResult r = assemble("pushc 0x1f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.code[1], 0x1F);
}

TEST(Assembler, PaperFig2FiretrackerPrologueAssembles) {
  const AssemblyResult r = assemble(R"(
      1: BEGIN pushn fir
      2:       pusht LOCATION
      3:       pushc 2
      4:       pushc FIRE
      5:       regrxn      // register fire alert reaction
      6:       wait        // wait for reaction to fire
      7: FIRE  pop
      8:       sclone      // strong clone to the fire
  )");
  ASSERT_TRUE(r.ok()) << r.error_text();
  // pushn(3) pusht(2) pushc(2) pushc(2) regrxn(1) wait(1) = 11 -> FIRE=11.
  EXPECT_EQ(r.code[8], 11);  // operand of "pushc FIRE" (opcode at 7)
  EXPECT_EQ(r.code[11], static_cast<std::uint8_t>(Opcode::kPop));
  EXPECT_EQ(r.code[12], static_cast<std::uint8_t>(Opcode::kSClone));
}

TEST(Disassembler, RoundTripReadable) {
  const AssemblyResult r = assemble("pushc 5\nsmove\nhalt");
  ASSERT_TRUE(r.ok());
  const std::string text = disassemble(r.code);
  EXPECT_NE(text.find("pushc"), std::string::npos);
  EXPECT_NE(text.find("smove"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(AssembleOrDie, ReturnsCodeForValidSource) {
  EXPECT_EQ(assemble_or_die("halt").size(), 1u);
}

// ---------------------------------------------------------------------------
// Source-language directives: .const, .macro, .tuple, .byte, .include.
// ---------------------------------------------------------------------------

TEST(AssemblerDirectives, ConstSubstitutesInOperands) {
  const AssemblyResult r = assemble(R"(
      .const THRESH 200
      .equ SLOT 3
      pushc THRESH
      setvar SLOT
  )");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.code, assemble("pushc 200\nsetvar 3").code);
}

TEST(AssemblerDirectives, ConstUnknownNameStillErrors) {
  const AssemblyResult r = assemble("pushc NOPE");
  EXPECT_FALSE(r.ok());
}

TEST(AssemblerDirectives, MacroGoldenMatchesHandWritten) {
  const AssemblyResult expanded = assemble(R"(
      .macro OUT2 name value
          pushn name
          pushc value
          pushc 2
          out
      .endm
      BEGIN OUT2 fir 7
            OUT2 hab 9
            halt
  )");
  const AssemblyResult hand = assemble(R"(
      BEGIN pushn fir
            pushc 7
            pushc 2
            out
            pushn hab
            pushc 9
            pushc 2
            out
            halt
  )");
  ASSERT_TRUE(expanded.ok()) << expanded.error_text();
  ASSERT_TRUE(hand.ok());
  EXPECT_EQ(expanded.code, hand.code);
}

TEST(AssemblerDirectives, MacroLabelOperandsResolve) {
  // A macro body can reference labels that only exist at the call site.
  const AssemblyResult r = assemble(R"(
      .macro JUMPTO where
          rjump where
      .endm
      BEGIN JUMPTO END
            halt
      END   halt
  )");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(static_cast<std::int8_t>(r.code[1]), 1);
}

TEST(AssemblerDirectives, MacroErrorNamesInvocationSite) {
  const AssemblyResult r = assemble(R"(.macro BAD
pushc 999
.endm
BAD)");
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.errors.size(), 1u);
  // The faulty line is line 2 (the body), with context naming line 4 (the
  // invocation).
  EXPECT_EQ(r.errors[0].line, 2u);
  EXPECT_NE(r.errors[0].message.find("in macro 'BAD'"), std::string::npos)
      << r.errors[0].message;
  EXPECT_NE(r.errors[0].message.find("invoked from <source>:4"),
            std::string::npos)
      << r.errors[0].message;
}

TEST(AssemblerDirectives, MacroArgumentCountChecked) {
  const AssemblyResult r = assemble(R"(
      .macro PAIR a b
          pushc a
          pushc b
      .endm
      PAIR 1
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("argument"), std::string::npos)
      << r.error_text();
}

TEST(AssemblerDirectives, TupleLiteralExpandsToPushSequence) {
  const AssemblyResult tuple = assemble(".tuple \"fir\", 7\nout");
  const AssemblyResult hand = assemble("pushn fir\npushc 7\npushc 2\nout");
  ASSERT_TRUE(tuple.ok()) << tuple.error_text();
  EXPECT_EQ(tuple.code, hand.code);
}

TEST(AssemblerDirectives, TupleWideAndTypedFields) {
  const AssemblyResult tuple = assemble(".tuple \"b\", 300, NUMBER, loc");
  const AssemblyResult hand =
      assemble("pushn b\npushcl 300\npusht NUMBER\nloc\npushc 4");
  ASSERT_TRUE(tuple.ok()) << tuple.error_text();
  EXPECT_EQ(tuple.code, hand.code);
}

TEST(AssemblerDirectives, TupleStringFieldLengthChecked) {
  const AssemblyResult r = assemble(".tuple \"toolong\", 1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("1..3"), std::string::npos) << r.error_text();
}

TEST(AssemblerDirectives, ByteEmitsRawBytes) {
  const AssemblyResult r = assemble("halt\n.byte 0x70 0xff 2\nhalt");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.code, (std::vector<std::uint8_t>{0x00, 0x70, 0xFF, 2, 0x00}));
}

TEST(AssemblerDirectives, ByteRangeValidated) {
  EXPECT_FALSE(assemble(".byte 256").ok());
  EXPECT_FALSE(assemble(".byte -1").ok());
}

namespace fs = std::filesystem;

class AssemblerIncludeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "agilla_as_test";
    fs::create_directories(dir_ / "lib");
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write(const std::string& rel, const std::string& text) {
    const fs::path p = dir_ / rel;
    std::ofstream(p) << text;
    return p;
  }

  fs::path dir_;
};

TEST_F(AssemblerIncludeTest, IncludeResolvesRelativeToIncludingFile) {
  write("lib/util.aga", ".macro HALT2\nhalt\nhalt\n.endm\n");
  const fs::path main =
      write("main.aga", ".include \"lib/util.aga\"\nHALT2\n");
  const AssemblyResult r = assemble_file(main.string());
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.code, (std::vector<std::uint8_t>{0x00, 0x00}));
}

TEST_F(AssemblerIncludeTest, ErrorsKeepIncludedFileAndLine) {
  write("lib/bad.aga", "halt\nbogus\n");
  const fs::path main = write("main.aga", ".include \"lib/bad.aga\"\n");
  const AssemblyResult r = assemble_file(main.string());
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].line, 2u);
  EXPECT_NE(r.errors[0].file.find("bad.aga"), std::string::npos)
      << r.errors[0].file;
  // error_text renders file:line for file-based sources.
  EXPECT_NE(r.error_text().find("bad.aga:2:"), std::string::npos)
      << r.error_text();
}

TEST_F(AssemblerIncludeTest, MacroErrorNamesCrossFileInvocation) {
  write("lib/util.aga", ".macro OUT1 v\npushc v\n.endm\n");
  const fs::path main =
      write("main.aga", ".include \"lib/util.aga\"\nOUT1 999\n");
  const AssemblyResult r = assemble_file(main.string());
  ASSERT_FALSE(r.ok());
  // Fault is in the macro body (util.aga:2), invoked from main.aga:2.
  EXPECT_NE(r.error_text().find("util.aga:2:"), std::string::npos)
      << r.error_text();
  EXPECT_NE(r.error_text().find("invoked from"), std::string::npos);
  EXPECT_NE(r.error_text().find("main.aga:2"), std::string::npos)
      << r.error_text();
}

TEST_F(AssemblerIncludeTest, IncludeCycleDetected) {
  write("a.aga", ".include \"b.aga\"\n");
  write("b.aga", ".include \"a.aga\"\n");
  const AssemblyResult r = assemble_file((dir_ / "a.aga").string());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("cycle"), std::string::npos)
      << r.error_text();
}

TEST_F(AssemblerIncludeTest, StringSourceRefusesInclude) {
  // A string source (console text, a remote client's agent) must not
  // read host files: .include is refused before any path is opened,
  // whether the file exists or not, and from inside a macro body too.
  const fs::path lib = write("lib/util.aga", "halt\n");
  for (const std::string& source :
       {".include \"" + lib.string() + "\"\n",
        ".include \"" + (dir_ / "gone.aga").string() + "\"\n",
        ".macro INC\n.include \"" + lib.string() + "\"\n.endm\nINC\n"}) {
    const AssemblyResult r = assemble(source);
    ASSERT_FALSE(r.ok()) << source;
    EXPECT_NE(r.error_text().find("only allowed in file sources"),
              std::string::npos)
        << r.error_text();
    EXPECT_EQ(r.error_text().find("cannot open"), std::string::npos)
        << r.error_text();
  }
  // Named sources keep .include.
  const AssemblyResult named = assemble(".include \"lib/util.aga\"\n",
                                        (dir_ / "main.aga").string());
  ASSERT_TRUE(named.ok()) << named.error_text();
  EXPECT_EQ(named.code, (std::vector<std::uint8_t>{0x00}));
}

TEST_F(AssemblerIncludeTest, MissingIncludeReportsIncludingLine) {
  const fs::path main = write("main.aga", "halt\n.include \"gone.aga\"\n");
  const AssemblyResult r = assemble_file(main.string());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("main.aga:2:"), std::string::npos)
      << r.error_text();
}

}  // namespace
}  // namespace agilla::core
