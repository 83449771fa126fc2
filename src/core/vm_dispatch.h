// The engine's decode/execute layer: pre-decoded direct-threaded dispatch
// with a per-image template cache, plus the fetch-per-byte switch
// interpreter kept as the reference mode (DESIGN.md "VM dispatch").
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
#include <unordered_map>
#include <vector>

#include "core/agent.h"
#include "core/agent_serializer.h"
#include "core/isa.h"
#include "core/vm_costs.h"
#include "sim/types.h"
#include "tuplespace/tuple.h"

namespace agilla::core {

class AgillaEngine;

/// Dense semantic classes behind the sparse opcode byte. Every opcode maps
/// onto one class; the threaded loop indexes its label table with this, so
/// the order here must match the label tables in vm_dispatch.cpp.
enum class OpClass : std::uint8_t {
  kHalt = 0,
  kLoc,
  kAid,
  kRand,
  kNumNbrs,
  kSense,
  kSleep,
  kPutLed,
  kCopy,
  kPop,
  kSwap,
  kWait,
  kJumps,
  kDepth,
  kClear,
  kCpush,
  kArith,    ///< add/sub/and/or/mod/mul/eq — selected by `raw`
  kNot,
  kIncDec,   ///< inc/dec — selected by `raw`
  kMigrate,  ///< smove/wmove/sclone/wclone
  kGetNbr,
  kRandNbr,
  kCompare,  ///< ceq/clt/cgt — selected by `raw`
  kRjump,
  kRjumpc,
  kJump,
  kTupleOp,  ///< out/inp/rdp/in/rd/tcount/regrxn/deregrxn
  kRemote,   ///< rout/rinp/rrdp
  kGetVar,
  kSetVar,
  kPush,       ///< pushc/pushcl/pushn/pusht/pushrt/pushloc via prebuilt imm
  kUndefined,  ///< no such opcode: dies with "undefined opcode"
  kTruncated,  ///< operands run past the code end: "truncated instruction"
  kCount,
};

/// One fully decoded instruction. Everything the fetch/decode phase of the
/// switch interpreter derives per execution — length, heap slot, the
/// fixed-cost charge, even the pushed Value — is resolved once here.
struct DecodedInsn {
  OpClass cls = OpClass::kUndefined;
  std::uint8_t raw = 0;
  std::uint8_t length = 1;       ///< bytes consumed (1 for undefined)
  std::uint8_t profile_key = 0;  ///< raw, with getvar/setvar folded to base
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
                        std::size_t operands_available,
                        const VmCostModel& costs);

/// FNV-1a over the code bytes: the template-cache key.
[[nodiscard]] std::uint64_t hash_code_bytes(
    std::span<const std::uint8_t> code);

/// A code image decoded at EVERY byte offset. Agilla jump targets are
/// arbitrary byte addresses (jumps pops any number), so pre-decoding only
/// at instruction boundaries would diverge from the reference interpreter;
/// with ≤440-byte images, one DecodedInsn per offset is cheap.
class DecodedProgram {
 public:
  DecodedProgram(std::span<const std::uint8_t> code,
                 const VmCostModel& costs);

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

/// Executes agent slices for one engine. Owns the decoded-program cache
/// (content-hash keyed, so clones of the same agent share one compiled
/// template) and both dispatch front-ends over a single set of opcode
/// handlers:
///   - run_slice_switch: fetches byte-by-byte through the CodePool chain
///     and dispatches through a switch — the reference interpreter.
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
    std::uint64_t cache_hits = 0;  ///< a stored image reused a template
  };

  explicit VmDispatcher(AgillaEngine& engine) : e_(engine) {}

  VmDispatcher(const VmDispatcher&) = delete;
  VmDispatcher& operator=(const VmDispatcher&) = delete;

  /// Called after `code` was stored under `handle`. In threaded mode,
  /// compiles (or reuses) the decoded template and returns it; in switch
  /// mode returns nullptr. The agent keeps a shared reference so a
  /// mid-slice release cannot free a template still being executed.
  std::shared_ptr<const DecodedProgram> on_code_stored(
      CodeHandle handle, std::span<const std::uint8_t> code);

  /// Called before `handle`'s blocks are released; drops the cache entry
  /// once no live handle references its template.
  void on_code_released(CodeHandle handle);

  /// Runs one scheduler slice (up to instructions_per_slice instructions)
  /// for a ready agent, accumulating simulated cost into `cost`.
  void run_slice(Agent& agent, sim::SimTime& cost);

  [[nodiscard]] const CacheStats& cache_stats() const {
    return cache_stats_;
  }
  [[nodiscard]] std::size_t cached_programs() const {
    return by_hash_.size();
  }

 private:
  // Shared opcode handlers: each mirrors one case of the historical
  // engine switch, byte-for-byte in simulated effect.
  StepResult h_halt(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_loc(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_aid(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_rand(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_numnbrs(Agent& agent, const DecodedInsn& d,
                       sim::SimTime& cost);
  StepResult h_sense(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_sleep(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_putled(Agent& agent, const DecodedInsn& d,
                      sim::SimTime& cost);
  StepResult h_copy(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_pop(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_swap(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_wait(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_jumps(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_depth(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_clear(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_cpush(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_arith(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_not(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_incdec(Agent& agent, const DecodedInsn& d,
                      sim::SimTime& cost);
  StepResult h_migrate(Agent& agent, const DecodedInsn& d,
                       sim::SimTime& cost);
  StepResult h_getnbr(Agent& agent, const DecodedInsn& d,
                      sim::SimTime& cost);
  StepResult h_randnbr(Agent& agent, const DecodedInsn& d,
                       sim::SimTime& cost);
  StepResult h_compare(Agent& agent, const DecodedInsn& d,
                       sim::SimTime& cost);
  StepResult h_rjump(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_rjumpc(Agent& agent, const DecodedInsn& d,
                      sim::SimTime& cost);
  StepResult h_jump(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_tuple(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_remote(Agent& agent, const DecodedInsn& d,
                      sim::SimTime& cost);
  StepResult h_getvar(Agent& agent, const DecodedInsn& d,
                      sim::SimTime& cost);
  StepResult h_setvar(Agent& agent, const DecodedInsn& d,
                      sim::SimTime& cost);
  StepResult h_push(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);
  StepResult h_undefined(Agent& agent, const DecodedInsn& d,
                         sim::SimTime& cost);
  StepResult h_truncated(Agent& agent, const DecodedInsn& d,
                         sim::SimTime& cost);

  // Composite instruction groups (moved out of the historical engine).
  StepResult exec_tuple_op(Agent& agent, Opcode op, sim::SimTime& cost);
  StepResult exec_migration(Agent& agent, Opcode op);
  StepResult exec_remote(Agent& agent, Opcode op);
  bool pop_fields(Agent& agent, std::vector<ts::Value>* out);
  AgentImage make_image(Agent& agent, MigrationOp op, sim::Location dest);
  bool push_or_die(Agent& agent, const ts::Value& v);

  /// Dispatches one decoded instruction through the reference switch.
  StepResult execute(Agent& agent, const DecodedInsn& d, sim::SimTime& cost);

  /// Fetch + decode at the agent's PC through the CodePool chain. Returns
  /// false when the PC is out of range (the agent died; not profiled).
  bool fetch_decode(Agent& agent, DecodedInsn* out);

  void run_slice_switch(Agent& agent, sim::SimTime& cost);
  void run_slice_threaded(Agent& agent, const DecodedProgram& program,
                          sim::SimTime& cost);

  [[nodiscard]] static std::uint32_t handle_key(CodeHandle handle) {
    return (static_cast<std::uint32_t>(
                static_cast<std::uint16_t>(handle.first_block))
            << 16) |
           handle.size;
  }

  AgillaEngine& e_;
  /// Live handle -> its decoded template (keeps the template alive).
  std::unordered_map<std::uint32_t, std::shared_ptr<const DecodedProgram>>
      by_handle_;
  /// Content hash -> templates with that hash (collision chain; bytes are
  /// compared before reuse).
  std::unordered_map<std::uint64_t,
                     std::vector<std::shared_ptr<const DecodedProgram>>>
      by_hash_;
  CacheStats cache_stats_;
};

}  // namespace agilla::core

#endif  // AGILLA_CORE_VM_DISPATCH_H
