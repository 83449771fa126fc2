// A two-pass assembler for the textual agent language used throughout the
// paper (Figs. 2, 8, 13), grown into a small source language for `.aga`
// files (DESIGN.md "Agent toolchain").
//
// Syntax, matching the paper's listings:
//   * one instruction per line; `//`, `#` or `;` start a comment;
//   * an optional leading label — either `NAME:` or, as printed in the
//     paper, a bare word that is not a mnemonic (`BEGIN pushn fir`);
//   * operands, parsed by the opcode's OperandKind (core/isa.h): numbers
//     (an optional `-`, then decimal digits or 0x + hex digits), named
//     constants, label names, 3-letter strings (for pushn), field-type
//     names for pusht, sensor names for pushrt/pushc (the name tables in
//     assembler.cpp, aliases included), and `x y` coordinate pairs for
//     pushloc (fractions allowed).
//
// Directives (all but .include usable from string sources too):
//   .include "file"        splice another source file (cycle-checked,
//                          resolved relative to the including file;
//                          file-named sources only)
//   .const NAME value      named integer constant, usable wherever a
//                          number is (also spelled .equ)
//   .macro NAME p1 p2 ...  record lines up to .endm; invoking `NAME a b`
//   .endm                  splices the body with parameters substituted
//   .tuple f1, f2, ...     expands to the push sequence + field count for
//                          a tuple literal; fields may be quoted strings,
//                          numbers, field-type names (-> pusht), sensor
//                          names (-> pushrt), `loc`, or bare 1..3-letter
//                          strings (-> pushn)
//   .byte b0 b1 ...        raw bytes, verbatim (the disassembler's escape
//                          hatch for undefined encodings)
//
// Errors carry file:line through includes and macro expansions.
//
// Relative jumps (rjump/rjumpc) store a signed byte offset from the address
// of the *following* instruction; the assembler computes it from a label.
// `disassemble()` emits re-assemblable text: synthetic `L_<addr>` labels
// for in-range jump targets and `.byte` for undefined encodings, so
// assemble(disassemble(code)) == code for any byte string.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/isa.h"

namespace agilla::core {

struct AssemblyError {
  std::size_t line = 0;  ///< 1-based source line
  std::string message;
  std::string file;  ///< empty for string sources
};

struct AssemblyResult {
  std::vector<std::uint8_t> code;
  std::vector<AssemblyError> errors;

  [[nodiscard]] bool ok() const { return errors.empty(); }
  /// All error messages joined with newlines (for test failure output):
  /// "line N: msg" for string sources, "file:N: msg" when a file is known.
  [[nodiscard]] std::string error_text() const;
};

/// Assembles `source` into Agilla bytecode. Under a `file_name`, errors
/// carry it and `.include` paths resolve relative to its directory; with
/// none, `.include` is an error (a string source must not read files).
AssemblyResult assemble(std::string_view source,
                        std::string_view file_name = {});

/// Reads and assembles a `.aga` source file (errors carry file:line).
AssemblyResult assemble_file(const std::string& path);

/// Convenience: assemble-or-abort, for code known good at build time.
std::vector<std::uint8_t> assemble_or_die(std::string_view source);

/// Disassembles bytecode into re-assemblable source: one instruction per
/// line, synthetic `L_<addr>` labels on jump targets, `; 0xNN` address
/// comments, and `.byte` lines for undefined or truncated encodings.
std::string disassemble(std::span<const std::uint8_t> code);

}  // namespace agilla::core
