// The engine's decode/execute layer: each agent's immutable decoded
// program, run by pre-decoded direct-threaded dispatch or by the
// fetch-and-decode-per-execution switch interpreter kept as the reference
// mode (DESIGN.md "VM dispatch").
//
// This header is engine-internal. It is deliberately excluded from the
// public include set that `api_header_selfcheck` compiles, and
// core/engine.h must not include it — the generated self-check TU for
// engine.h errors out if AGILLA_CORE_VM_DISPATCH_H leaks in. Hence the
// classic include guard instead of `#pragma once`: the gate needs a
// testable macro.
#ifndef AGILLA_CORE_VM_DISPATCH_H
#define AGILLA_CORE_VM_DISPATCH_H

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/agent.h"
#include "core/agent_serializer.h"
#include "core/isa.h"
#include "core/program_table.h"
#include "core/vm_costs.h"
#include "sim/types.h"
#include "tuplespace/tuple.h"

namespace agilla::core {

class AgillaEngine;

// clang-format off
/// The one list of op classes: X(Class, handler) per entry, in dispatch
/// order. It generates the OpClass enumerators (k##Class), the handler
/// declarations (h_##handler), the threaded loop's label table and labels,
/// and the reference switch in execute() — so the four cannot disagree.
/// Which opcode byte maps to which class is the last column of the
/// instruction table, AGILLA_OPCODES in core/isa.h.
#define AGILLA_OP_CLASSES(X)                                               \
  X(Halt, halt)                                                            \
  X(Loc, loc)                                                              \
  X(Aid, aid)                                                              \
  X(Rand, rand)                                                            \
  X(NumNbrs, numnbrs)                                                      \
  X(Sense, sense)                                                          \
  X(Sleep, sleep)                                                          \
  X(PutLed, putled)                                                        \
  X(Copy, copy)                                                            \
  X(Pop, pop)                                                              \
  X(Swap, swap)                                                            \
  X(Wait, wait)                                                            \
  X(Jumps, jumps)                                                          \
  X(Depth, depth)                                                          \
  X(Clear, clear)                                                          \
  X(Cpush, cpush)                                                          \
  X(Arith, arith)      /* add/sub/and/or/mod/mul/eq, selected by `raw` */  \
  X(Not, not)                                                              \
  X(IncDec, incdec)    /* inc/dec, selected by `raw` */                    \
  X(Migrate, migrate)  /* smove/wmove/sclone/wclone */                     \
  X(GetNbr, getnbr)                                                        \
  X(RandNbr, randnbr)                                                      \
  X(Compare, compare)  /* ceq/clt/cgt, selected by `raw` */                \
  X(Rjump, rjump)                                                          \
  X(Rjumpc, rjumpc)                                                        \
  X(Jump, jump)                                                            \
  X(TupleOp, tuple)    /* out/inp/rdp/in/rd/tcount/regrxn/deregrxn */      \
  X(Remote, remote)    /* rout/rinp/rrdp */                                \
  X(GetVar, getvar)                                                        \
  X(SetVar, setvar)                                                        \
  X(Push, push)        /* pushc/pushcl/pushn/pusht/pushrt/pushloc */       \
  X(Undefined, undefined)  /* no such opcode: "undefined opcode" */        \
  X(Truncated, truncated)  /* operands run past the code end */
// clang-format on

/// Dense semantic classes behind the sparse opcode byte. Every opcode maps
/// onto one class; the threaded loop indexes its label table with this.
enum class OpClass : std::uint8_t {
#define AGILLA_OP_CLASS_ENUM(cls, handler) k##cls,
  AGILLA_OP_CLASSES(AGILLA_OP_CLASS_ENUM)
#undef AGILLA_OP_CLASS_ENUM
  kCount,
};

/// One fully decoded instruction. Everything the fetch/decode phase of the
/// switch interpreter derives per execution — length, heap slot, the
/// fixed-cost charge, even the pushed Value — is resolved once here.
struct DecodedInsn {
  OpClass cls = OpClass::kUndefined;
  std::uint8_t raw = 0;
  std::uint8_t length = 1;       ///< bytes consumed (1 for undefined)
  std::uint8_t profile_key = 0;  ///< opcode_index(raw): engine profile slot
  std::uint8_t slot = 0;         ///< heap slot for getvar/setvar
  std::array<std::uint8_t, 4> operand{};
  sim::SimTime precharge = 0;  ///< instruction_cost(raw, 0, false)
  ts::Value imm;               ///< prebuilt operand for OpClass::kPush
};

/// Decodes `raw` + its operand bytes into a DecodedInsn.
/// `operands_available` is how many operand bytes actually exist after the
/// opcode; fewer than the instruction needs yields OpClass::kTruncated.
DecodedInsn decode_insn(std::uint8_t raw,
                        const std::array<std::uint8_t, 4>& operand,
                        std::size_t operands_available);

/// FNV-1a over the code bytes: compared before the bytes when a new agent
/// looks for a live program to share, and the program table's key.
[[nodiscard]] std::uint64_t hash_code_bytes(
    std::span<const std::uint8_t> code);

/// An agent's code: the image bytes, decoded at EVERY byte offset, and
/// their content hash; immutable once built, and shared by every agent of
/// the deployment with the same bytes (core/program_table.h). Agilla jump
/// targets are arbitrary byte addresses (jumps pops any number), so
/// pre-decoding only at instruction boundaries would diverge from the
/// reference interpreter; with ≤440-byte images, one DecodedInsn per
/// offset is cheap.
class DecodedProgram {
 public:
  /// `hash` must be hash_code_bytes(code), computed once by the caller.
  DecodedProgram(std::span<const std::uint8_t> code, std::uint64_t hash);

  [[nodiscard]] std::uint16_t size() const {
    return static_cast<std::uint16_t>(insns_.size());
  }
  [[nodiscard]] const DecodedInsn& at(std::uint16_t pc) const {
    return insns_[pc];
  }
  [[nodiscard]] std::uint64_t content_hash() const { return hash_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<DecodedInsn> insns_;
  std::uint64_t hash_ = 0;
};

/// Executes agent slices for one engine. Finds each admitted agent's
/// program — among this engine's live agents, then in the deployment's
/// program table, so clones anywhere in the deployment decode once — and
/// runs both dispatch front-ends over a single set of opcode handlers:
///   - run_slice_switch: fetches the opcode and operand bytes at the PC
///     from the program's bytes, decodes them on every execution and
///     dispatches through a switch — the reference interpreter.
///   - run_slice_threaded: walks the DecodedProgram with computed-goto
///     labels-as-values. GCC/Clang only: other compilers run every slice
///     through the switch, whatever the dispatch mode.
/// Both produce byte-identical simulated behaviour; only host speed
/// differs.
class VmDispatcher {
 public:
  enum class StepResult : std::uint8_t {
    kContinue,  ///< keep executing this slice
    kYield,     ///< long-running op issued; end slice, agent stays ready
    kBlocked,   ///< agent left the ready state
    kGone,      ///< agent died or migrated away
  };

  struct CacheStats {
    std::uint64_t programs_compiled = 0;
    std::uint64_t cache_hits = 0;  ///< an admitted image reused a program
  };

  VmDispatcher(AgillaEngine& engine, ProgramTable& programs)
      : e_(engine), programs_(programs) {}

  VmDispatcher(const VmDispatcher&) = delete;
  VmDispatcher& operator=(const VmDispatcher&) = delete;

  /// The program for a new agent with `code`, hashed once and found in a
  /// fixed order: a live agent's on this engine when one holds equal
  /// bytes (hash compared first; counts a cache hit, takes no lock), else
  /// the deployment table's live program with these bytes, else a fresh
  /// decode entered into the table. Both of the latter count a compile:
  /// the counts are this engine's alone, as if every mote decoded its own.
  std::shared_ptr<const DecodedProgram> program_for(
      std::span<const std::uint8_t> code);

  /// Runs one scheduler slice (up to kInstructionsPerSlice instructions)
  /// for a ready agent, accumulating simulated cost into `cost`.
  void run_slice(Agent& agent, sim::SimTime& cost);

  [[nodiscard]] const CacheStats& cache_stats() const {
    return cache_stats_;
  }

 private:
  // Shared opcode handlers, one per op class: each mirrors one case of
  // the historical engine switch, byte-for-byte in simulated effect.
#define AGILLA_OP_CLASS_HANDLER(cls, handler)               \
  StepResult h_##handler(Agent& agent, const DecodedInsn& d, \
                         sim::SimTime& cost);
  AGILLA_OP_CLASSES(AGILLA_OP_CLASS_HANDLER)
#undef AGILLA_OP_CLASS_HANDLER

  // Composite instruction groups (moved out of the historical engine).
  StepResult exec_tuple_op(Agent& agent, Opcode op, sim::SimTime& cost);
  StepResult exec_migration(Agent& agent, Opcode op);
  StepResult exec_remote(Agent& agent, Opcode op);
  /// Room for the most fields one tuple operation can pop.
  using FieldBuffer = std::array<ts::Value, Agent::kStackDepth>;
  /// Pops a field count and that many fields into `buf`, back to front,
  /// and points `*out` at them in push order (field 0 first). False once
  /// it has killed the agent (bad count or underflow).
  bool pop_fields(Agent& agent, FieldBuffer& buf,
                  std::span<const ts::Value>* out);
  AgentImage make_image(Agent& agent, MigrationOp op, sim::Location dest);
  bool push_or_die(Agent& agent, const ts::Value& v);

  /// Emits the kInsn record for the instruction about to execute.
  void emit_insn(const Agent& agent, std::uint16_t pc, std::uint8_t raw);

  /// Dispatches one decoded instruction through the reference switch.
  StepResult execute(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);

  /// Fetch + decode at the agent's PC from the program's bytes. Returns
  /// false when the PC is out of range (the agent died; not profiled).
  bool fetch_decode(Agent& agent, const DecodedProgram& program,
                    DecodedInsn* out);

  void run_slice_switch(Agent& agent, const DecodedProgram& program,
                        sim::SimTime& cost);
  void run_slice_threaded(Agent& agent, const DecodedProgram& program,
                          sim::SimTime& cost);

  AgillaEngine& e_;
  ProgramTable& programs_;
  CacheStats cache_stats_;
};

}  // namespace agilla::core

#endif  // AGILLA_CORE_VM_DISPATCH_H
