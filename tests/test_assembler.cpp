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

TEST(Assembler, MalformedNumbersRejected) {
  // One optional leading '-', then decimal digits or 0x + hex digits.
  for (const char* source :
       {"pushc --5", "pushc +5", "pushcl 0x-5", "pushcl -0x-5", "pushc 0x",
        "pushc -", "pushc 5x", "pushc 0x+5", ".byte --1", "getvar --1",
        "jump -+3", ".const N --2\npushc N"}) {
    EXPECT_FALSE(assemble(source).ok()) << source;
  }
  const AssemblyResult r = assemble("pushcl -0x10\npushc 0X1f\npushcl -7");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.code, (std::vector<std::uint8_t>{0x61, 0xf0, 0xff, 0x60, 0x1f,
                                                0x61, 0xf9, 0xff}));
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

// Every mnemonic and every operand spelling the assembler accepts —
// aliases, labels, named constants, hex, .tuple, and .byte runs the
// disassembler cannot print as instructions (undefined bytes, pusht/
// pushrt/pushn operands with no canonical spelling, a truncated tail) —
// and the exact listing disassemble() prints for it.
constexpr const char* kEverySpelling = R"(.const ANSWER 42
.const ANSWER_SLOT 7
START: halt
  loc
  aid
  rand
  numnbrs
  sense
  sleep
  putled
  copy
  pop
  swap
  wait
  jumps
  depth
  clear
  cpush
  add
  sub
  and
  or
  not
  mod
  inc
  dec
  eq
  mul
  smove
  wmove
  sclone
  wclone
  getnbr
  randnbr
  ceq
  clt
  cgt
BACK rjump BACK
  rjumpc FWD
  rjump -3
  rjumpc 100
  jump START
  jump 0xff
FWD: out
  inp
  rdp
  in
  rd
  tcount
  rout
  rinp
  rrdp
  regrxn
  deregrxn
  getvar 0
  getvar 0xb
  setvar 11
  setvar ANSWER_SLOT
  pushc 0
  pushc 255
  pushc 0x1F
  pushc ANSWER
  pushc FWD
  pushc TEMPERATURE
  pushc temp
  pushc PHOTO
  pushc light
  pushc MIC
  pushc microphone
  pushc sound
  pushc MAGNETOMETER
  pushc mag
  pushc ACCEL
  pushc accelerometer
  pushcl -32768
  pushcl 32767
  pushcl 65535
  pushcl -0x10
  pushcl FWD
  pushn fir
  pushn "ab"
  pushn Z
  pusht NUMBER
  pusht value
  pusht int
  pusht STRING
  pusht LOCATION
  pusht READING
  pusht AGENTID
  pusht READINGTYPE
  pushrt TEMPERATURE
  pushrt TEMP
  pushrt PHOTO
  pushrt LIGHT
  pushrt MIC
  pushrt MICROPHONE
  pushrt SOUND
  pushrt MAGNETOMETER
  pushrt MAG
  pushrt ACCEL
  pushrt ACCELEROMETER
  pushrt 4
  pushloc 3 -2
  pushloc 1.5 0.015625
  pushloc -511.984375 511.984375
  .tuple "abc", 7, 300, LOCATION, PHOTO, loc, x
  .byte 0xff
  .byte 0x22 0x23 0x27 0x2b 0x30 0x3c 0x4c 0x5f 0x66
  .byte 0x63 0x00
  .byte 0x63 0x03
  .byte 0x65 0x05
  .byte 0x62 0x00 0x00
  .byte 0x62 0xff 0xff
  .byte 0x61 0x01
)";

constexpr const char* kEverySpellingListing = R"(L_0:
  halt                    ; 0x00
  loc                     ; 0x01
  aid                     ; 0x02
  rand                    ; 0x03
  numnbrs                 ; 0x04
  sense                   ; 0x05
  sleep                   ; 0x06
  putled                  ; 0x07
  copy                    ; 0x08
  pop                     ; 0x09
  swap                    ; 0x0a
  wait                    ; 0x0b
  jumps                   ; 0x0c
  depth                   ; 0x0d
  clear                   ; 0x0e
  cpush                   ; 0x0f
  add                     ; 0x10
  sub                     ; 0x11
  and                     ; 0x12
  or                      ; 0x13
  not                     ; 0x14
  mod                     ; 0x15
  inc                     ; 0x16
  dec                     ; 0x17
  eq                      ; 0x18
  mul                     ; 0x19
  smove                   ; 0x1a
  wmove                   ; 0x1b
  sclone                  ; 0x1c
  wclone                  ; 0x1d
  getnbr                  ; 0x1e
  randnbr                 ; 0x1f
  ceq                     ; 0x20
  clt                     ; 0x21
  cgt                     ; 0x22
L_35:
  rjump L_35              ; 0x23
  rjumpc L_47             ; 0x25
  rjump -3                ; 0x27
  rjumpc 100              ; 0x29
  jump L_0                ; 0x2b
  jump 255                ; 0x2d
L_47:
  out                     ; 0x2f
  inp                     ; 0x30
  rdp                     ; 0x31
  in                      ; 0x32
  rd                      ; 0x33
  tcount                  ; 0x34
  rout                    ; 0x35
  rinp                    ; 0x36
  rrdp                    ; 0x37
  regrxn                  ; 0x38
  deregrxn                ; 0x39
  getvar 0                ; 0x3a
  getvar 11               ; 0x3b
  setvar 11               ; 0x3c
  setvar 7                ; 0x3d
  pushc 0                 ; 0x3e
  pushc 255               ; 0x40
  pushc 31                ; 0x42
  pushc 42                ; 0x44
  pushc 47                ; 0x46
  pushc 0                 ; 0x48
  pushc 0                 ; 0x4a
  pushc 1                 ; 0x4c
  pushc 1                 ; 0x4e
  pushc 2                 ; 0x50
  pushc 2                 ; 0x52
  pushc 2                 ; 0x54
  pushc 3                 ; 0x56
  pushc 3                 ; 0x58
  pushc 4                 ; 0x5a
  pushc 4                 ; 0x5c
  pushcl -32768           ; 0x5e
  pushcl 32767            ; 0x61
  pushcl -1               ; 0x64
  pushcl -16              ; 0x67
  pushcl 47               ; 0x6a
  pushn fir               ; 0x6d
  pushn ab                ; 0x70
  pushn z                 ; 0x73
  pusht NUMBER            ; 0x76
  pusht NUMBER            ; 0x78
  pusht NUMBER            ; 0x7a
  pusht STRING            ; 0x7c
  pusht LOCATION          ; 0x7e
  pusht READING           ; 0x80
  pusht AGENTID           ; 0x82
  pusht READINGTYPE       ; 0x84
  pushrt TEMPERATURE      ; 0x86
  pushrt TEMPERATURE      ; 0x88
  pushrt PHOTO            ; 0x8a
  pushrt PHOTO            ; 0x8c
  pushrt MIC              ; 0x8e
  pushrt MIC              ; 0x90
  pushrt MIC              ; 0x92
  pushrt MAGNETOMETER     ; 0x94
  pushrt MAGNETOMETER     ; 0x96
  pushrt ACCEL            ; 0x98
  pushrt ACCEL            ; 0x9a
  pushrt ACCEL            ; 0x9c
  pushloc 3 -2            ; 0x9e
  pushloc 1.5 0.015625    ; 0xa3
  pushloc -511.984375 511.984375; 0xa8
  pushn abc               ; 0xad
  pushc 7                 ; 0xb0
  pushcl 300              ; 0xb2
  pusht LOCATION          ; 0xb5
  pushrt PHOTO            ; 0xb7
  loc                     ; 0xb9
  pushn x                 ; 0xba
  pushc 7                 ; 0xbd
  .byte 0xff              ; 0xbf
  .byte 0x22              ; 0xc0
  .byte 0x23              ; 0xc1
  .byte 0x27              ; 0xc2
  .byte 0x2b              ; 0xc3
  .byte 0x30              ; 0xc4
  .byte 0x3c              ; 0xc5
  .byte 0x4c              ; 0xc6
  .byte 0x5f              ; 0xc7
  .byte 0x66              ; 0xc8
  .byte 0x63 0x00         ; 0xc9
  .byte 0x63 0x03         ; 0xcb
  .byte 0x65 0x05         ; 0xcd
  .byte 0x62 0x00 0x00    ; 0xcf
  .byte 0x62 0xff 0xff    ; 0xd2
  .byte 0x61              ; 0xd5
  loc                     ; 0xd6
)";

TEST(Disassembler, ListingOfEverySpellingIsPinned) {
  const AssemblyResult r = assemble(kEverySpelling);
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(disassemble(r.code), kEverySpellingListing);
  const AssemblyResult back = assemble(kEverySpellingListing);
  ASSERT_TRUE(back.ok()) << back.error_text();
  EXPECT_EQ(back.code, r.code);
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
