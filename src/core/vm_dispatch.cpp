#include "core/vm_dispatch.h"

#include <algorithm>
#include <utility>

#include "core/engine.h"
#include "energy/energy_model.h"
#include "net/packet.h"

namespace agilla::core {
namespace {

/// Sleep ticks are 1/8 s: paper Fig. 13 sleeps 10 minutes with 4800 ticks.
constexpr sim::SimTime kSleepTick = sim::kSecond / 8;

/// Mixed-type comparisons use the numeric view (a sensor reading compares
/// with a pushed constant, per paper Fig. 13); same-type values compare
/// exactly.
bool values_equal(const ts::Value& a, const ts::Value& b) {
  if (a.type() == b.type()) {
    return a == b;
  }
  return a.as_number() == b.as_number();
}

/// Adds `fields` in order to a Tuple or a Template; false at the first
/// field that does not fit.
template <typename Fields>
bool add_all(Fields& out, std::span<const ts::Value> fields) {
  return std::ranges::all_of(
      fields, [&out](const ts::Value& f) { return out.add(f); });
}

/// Dense opcode index -> handler class: the dispatcher's byte-to-class
/// map, generated from the instruction table in core/isa.h.
constexpr std::array<OpClass, kDefinedOpcodes> kClassByIndex = {
#define AGILLA_OPCODE_CLASS(name, value, mnemonic, operand, cost, cls) \
  OpClass::k##cls,
    AGILLA_OPCODES(AGILLA_OPCODE_CLASS)
#undef AGILLA_OPCODE_CLASS
};

/// The Value an operand pushes, resolved at decode time; only the push
/// handler reads it. All Value factories are total, so prebuilding from
/// unreachable or garbage operand bytes is safe.
ts::Value operand_value(OperandKind kind,
                        const std::array<std::uint8_t, 4>& operand) {
  const auto u16 = [&](std::size_t at) {
    return static_cast<std::uint16_t>(operand[at] | (operand[at + 1] << 8));
  };
  switch (kind) {
    case OperandKind::kU8:
      return ts::Value::number(operand[0]);
    case OperandKind::kS16:
      return ts::Value::number(static_cast<std::int16_t>(u16(0)));
    case OperandKind::kPackedString:
      return ts::Value::packed_string(u16(0));
    case OperandKind::kFieldType:
      return ts::Value::type_wildcard(static_cast<ts::ValueType>(operand[0]));
    case OperandKind::kSensor:
      return ts::Value::reading_type(
          static_cast<sim::SensorType>(operand[0]));
    case OperandKind::kLocation:
      return ts::Value::location(sim::Location{
          net::decode_coordinate(static_cast<std::int16_t>(u16(0))),
          net::decode_coordinate(static_cast<std::int16_t>(u16(2)))});
    default:  // no operand, a heap slot or a jump: nothing to push
      return ts::Value();
  }
}

}  // namespace

// --------------------------------------------------------------------------
// Decoding
// --------------------------------------------------------------------------

DecodedInsn decode_insn(std::uint8_t raw,
                        const std::array<std::uint8_t, 4>& operand,
                        std::size_t operands_available) {
  DecodedInsn d;
  d.raw = raw;
  d.profile_key = static_cast<std::uint8_t>(opcode_index(raw));
  d.operand = operand;
  const OpcodeInfo* info = opcode_info(raw);
  if (info == nullptr) {
    d.cls = OpClass::kUndefined;
    d.length = 1;
    return d;
  }
  // getvar/setvar carry their heap slot in the opcode byte.
  if (info->operand == OperandKind::kHeapSlot) {
    d.slot = static_cast<std::uint8_t>(raw - static_cast<std::uint8_t>(
                                                 info->opcode));
  }
  d.length = static_cast<std::uint8_t>(1 + operand_width(info->operand));
  if (operands_available + 1 < d.length) {
    d.cls = OpClass::kTruncated;
    return d;
  }
  d.cls = kClassByIndex[d.profile_key];
  d.precharge = instruction_cost(raw, 0, false);
  d.imm = operand_value(info->operand, operand);
  return d;
}

std::uint64_t hash_code_bytes(std::span<const std::uint8_t> code) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const std::uint8_t b : code) {
    h ^= b;
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

DecodedProgram::DecodedProgram(std::span<const std::uint8_t> code,
                               std::uint64_t hash)
    : bytes_(code.begin(), code.end()), hash_(hash) {
  insns_.reserve(bytes_.size());
  for (std::size_t pc = 0; pc < bytes_.size(); ++pc) {
    std::array<std::uint8_t, 4> operand{};
    const std::size_t available =
        std::min<std::size_t>(4, bytes_.size() - pc - 1);
    for (std::size_t i = 0; i < available; ++i) {
      operand[i] = bytes_[pc + 1 + i];
    }
    insns_.push_back(decode_insn(bytes_[pc], operand, available));
  }
}

// --------------------------------------------------------------------------
// Program sharing
// --------------------------------------------------------------------------

std::shared_ptr<const DecodedProgram> ProgramTable::intern(
    std::span<const std::uint8_t> code, std::uint64_t hash) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto [it, end] = entries_.equal_range(hash);
  while (it != end) {
    if (std::shared_ptr<const DecodedProgram> program = it->second.lock()) {
      if (std::ranges::equal(program->bytes(), code)) {
        return program;
      }
      ++it;
    } else {
      it = entries_.erase(it);
    }
  }
  // Expired entries of other hashes go in sweeps spaced by the table's
  // growth, so each insert costs amortized O(1).
  if (entries_.size() >= sweep_at_) {
    std::erase_if(entries_,
                  [](const auto& entry) { return entry.second.expired(); });
    sweep_at_ = std::max(kFirstSweep, 2 * entries_.size());
  }
  auto program = std::make_shared<const DecodedProgram>(code, hash);
  entries_.emplace(hash, program);
  return program;
}

std::size_t ProgramTable::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::shared_ptr<const DecodedProgram> VmDispatcher::program_for(
    std::span<const std::uint8_t> code) {
  // A live agent on this engine (at most max_agents) may already hold
  // these bytes: clones share its program without taking the table's
  // lock. A program dies with its last holder, so nothing is evicted.
  const std::uint64_t hash = hash_code_bytes(code);
  for (const auto& agent : e_.agents_) {
    const std::shared_ptr<const DecodedProgram>& program = agent->program();
    if (program->content_hash() == hash &&
        std::ranges::equal(program->bytes(), code)) {
      cache_stats_.cache_hits++;
      return program;
    }
  }
  cache_stats_.programs_compiled++;
  return programs_.intern(code, hash);
}

// --------------------------------------------------------------------------
// Slice execution front-ends
// --------------------------------------------------------------------------

void VmDispatcher::run_slice(Agent& agent, sim::SimTime& cost) {
  // The stack copy pins the program for the whole slice: a handler that
  // destroys the agent (halt, completed smove) drops the agent's reference
  // mid-slice, and the threaded loop's profiling epilogue still reads the
  // current instruction.
  const std::shared_ptr<const DecodedProgram> program = agent.program();
#if defined(__GNUC__)
  // The threaded loop needs labels-as-values (GCC and Clang); any other
  // compiler runs the reference switch, with identical simulated results.
  if (e_.options_.dispatch == DispatchMode::kThreaded) {
    run_slice_threaded(agent, *program, cost);
    return;
  }
#endif
  run_slice_switch(agent, *program, cost);
}

bool VmDispatcher::fetch_decode(Agent& agent, const DecodedProgram& program,
                                DecodedInsn* out) {
  const std::vector<std::uint8_t>& code = program.bytes();
  const std::size_t pc = agent.pc();
  if (pc >= code.size()) {
    e_.die(agent, "program counter out of range");
    return false;
  }
  const std::uint8_t raw = code[pc];
  std::array<std::uint8_t, 4> operand{};
  const std::size_t end = pc + instruction_length(raw);
  std::size_t operands_available = 0;
  for (std::size_t at = pc + 1; at < end && at < code.size(); ++at) {
    operand[operands_available++] = code[at];
  }
  *out = decode_insn(raw, operand, operands_available);
  return true;
}

void VmDispatcher::emit_insn(const Agent& agent, std::uint16_t pc,
                             std::uint8_t raw) {
  sim::Event event(sim::EventKind::kInsn, e_.sim_.now(), e_.node_);
  event.agent = agent.id().value;
  event.pc = pc;
  event.opcode = raw;
  e_.sim_.emit(event);
}

void VmDispatcher::run_slice_switch(Agent& agent,
                                    const DecodedProgram& program,
                                    sim::SimTime& cost) {
  const std::size_t per_slice = AgillaEngine::kInstructionsPerSlice;
  // Hoisted per slice: with nobody observing instructions this is the
  // only branch the instruction stream costs on the hot path.
  const bool trace = e_.sim_.observes(sim::EventKind::kInsn);
  StepResult result = StepResult::kContinue;
  for (std::size_t i = 0; i < per_slice && result == StepResult::kContinue;
       ++i) {
    DecodedInsn d;
    if (!fetch_decode(agent, program, &d)) {
      return;  // PC out of range: the agent died, nothing is profiled
    }
    if (trace) {
      emit_insn(agent, agent.pc(), d.raw);
    }
    const sim::SimTime cost_before = cost;
    if (d.cls != OpClass::kUndefined && d.cls != OpClass::kTruncated) {
      // Advance the PC before executing, so that relative jumps and
      // migration resume points refer to the next instruction.
      agent.set_pc(static_cast<std::uint16_t>(agent.pc() + d.length));
      e_.stats_.instructions++;
    }
    result = execute(agent, d, cost);
    OpcodeProfile& entry = (*e_.profile_)[d.profile_key];
    entry.count++;
    entry.total_cost += cost - cost_before;
  }
}

#if defined(__GNUC__)
void VmDispatcher::run_slice_threaded(Agent& agent,
                                      const DecodedProgram& program,
                                      sim::SimTime& cost) {
  const std::size_t per_slice = AgillaEngine::kInstructionsPerSlice;
  // Hoisted per slice, exactly as in run_slice_switch.
  const bool trace = e_.sim_.observes(sim::EventKind::kInsn);
  std::size_t executed = 0;

  // Label table indexed by OpClass, generated from the same list.
  static const void* const kLabels[] = {
#define AGILLA_OP_CLASS_LABEL(cls, handler) &&lbl_##handler,
      AGILLA_OP_CLASSES(AGILLA_OP_CLASS_LABEL)
#undef AGILLA_OP_CLASS_LABEL
  };

  const DecodedInsn* d = nullptr;
  sim::SimTime cost_before = 0;
  StepResult result = StepResult::kContinue;

next_insn : {
  const std::uint16_t pc = agent.pc();
  if (pc >= program.size()) {
    e_.die(agent, "program counter out of range");
    return;
  }
  d = &program.at(pc);
  if (trace) {
    emit_insn(agent, pc, d->raw);
  }
  cost_before = cost;
  if (d->cls != OpClass::kUndefined && d->cls != OpClass::kTruncated) {
    agent.set_pc(static_cast<std::uint16_t>(pc + d->length));
    e_.stats_.instructions++;
  }
  goto* kLabels[static_cast<std::size_t>(d->cls)];
}
#define AGILLA_OP_CLASS_LABEL(cls, handler)              \
  lbl_##handler : result = h_##handler(agent, *d, cost); \
  goto insn_done;
  AGILLA_OP_CLASSES(AGILLA_OP_CLASS_LABEL)
#undef AGILLA_OP_CLASS_LABEL

insn_done : {
  OpcodeProfile& entry = (*e_.profile_)[d->profile_key];
  entry.count++;
  entry.total_cost += cost - cost_before;
  if (result == StepResult::kContinue && ++executed < per_slice) {
    goto next_insn;
  }
  return;
}
}
#endif

VmDispatcher::StepResult VmDispatcher::execute(Agent& agent,
                                               const DecodedInsn& d,
                                               sim::SimTime& cost) {
  switch (d.cls) {
#define AGILLA_OP_CLASS_CASE(cls, handler) \
  case OpClass::k##cls:                    \
    return h_##handler(agent, d, cost);
    AGILLA_OP_CLASSES(AGILLA_OP_CLASS_CASE)
#undef AGILLA_OP_CLASS_CASE
    case OpClass::kCount:
      break;
  }
  return h_truncated(agent, d, cost);
}

// --------------------------------------------------------------------------
// Opcode handlers (shared by all front-ends)
// --------------------------------------------------------------------------

bool VmDispatcher::push_or_die(Agent& agent, const ts::Value& v) {
  if (!agent.push(v)) {
    e_.die(agent, "stack overflow");
    return false;
  }
  return true;
}

VmDispatcher::StepResult VmDispatcher::h_halt(Agent& agent,
                                              const DecodedInsn& /*d*/,
                                              sim::SimTime& /*cost*/) {
  e_.stats_.agents_halted++;
  e_.emit_agent(sim::EventKind::kAgentKill, agent.id(), "halt");
  e_.destroy(agent);
  return StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_loc(Agent& agent,
                                             const DecodedInsn& d,
                                             sim::SimTime& cost) {
  cost += d.precharge;
  return push_or_die(agent, ts::Value::location(e_.context_.location()))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_aid(Agent& agent,
                                             const DecodedInsn& d,
                                             sim::SimTime& cost) {
  cost += d.precharge;
  return push_or_die(agent, ts::Value::agent_id(agent.id().value))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_rand(Agent& agent,
                                              const DecodedInsn& d,
                                              sim::SimTime& cost) {
  cost += d.precharge;
  return push_or_die(agent,
                     ts::Value::number(static_cast<std::int16_t>(
                         e_.sim_.node_rng(e_.node_).next() & 0xFFFF)))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_numnbrs(Agent& agent,
                                                 const DecodedInsn& d,
                                                 sim::SimTime& cost) {
  cost += d.precharge;
  return push_or_die(agent, ts::Value::number(static_cast<std::int16_t>(
                                e_.context_.num_neighbors())))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_sense(Agent& agent,
                                               const DecodedInsn& /*d*/,
                                               sim::SimTime& cost) {
  const ts::Value designator = agent.pop();
  const auto sensor =
      designator.type() == ts::ValueType::kReadingType
          ? designator.sensor()
          : static_cast<sim::SensorType>(designator.as_number());
  const auto reading = e_.sensors_.read(sensor, e_.sim_.now());
  cost += kSenseCost;
  if (e_.battery_ != nullptr) {
    e_.battery_->drain(energy::EnergyComponent::kSense,
                       energy::kSenseMjPerSample);
  }
  if (reading.has_value()) {
    agent.set_condition(1);
    if (!push_or_die(agent, ts::Value::reading(sensor, *reading))) {
      return StepResult::kGone;
    }
  } else {
    agent.set_condition(0);
    if (!push_or_die(agent, ts::Value::reading(sensor, 0))) {
      return StepResult::kGone;
    }
  }
  return StepResult::kYield;
}

VmDispatcher::StepResult VmDispatcher::h_sleep(Agent& agent,
                                               const DecodedInsn& d,
                                               sim::SimTime& cost) {
  const std::int16_t ticks = agent.pop().as_number();
  cost += d.precharge;
  const sim::SimTime duration =
      ticks <= 0 ? 0 : static_cast<sim::SimTime>(ticks) * kSleepTick;
  e_.block_agent(agent, AgentRunState::kSleeping, "sleep");
  // The agent cancels this timer when it dies, so the pointer is live
  // whenever the wakeup runs.
  agent.sleep_timer() = e_.sim_.schedule_in(duration, [this, a = &agent] {
    if (a->run_state() == AgentRunState::kSleeping) {
      e_.make_ready(*a);
    }
  });
  return StepResult::kBlocked;
}

VmDispatcher::StepResult VmDispatcher::h_putled(Agent& agent,
                                                const DecodedInsn& d,
                                                sim::SimTime& cost) {
  cost += d.precharge;
  e_.leds_ = static_cast<std::uint8_t>(agent.pop().as_number() & 0x7);
  return StepResult::kContinue;
}

VmDispatcher::StepResult VmDispatcher::h_copy(Agent& agent,
                                              const DecodedInsn& d,
                                              sim::SimTime& cost) {
  cost += d.precharge;
  if (agent.stack_depth() == 0) {
    e_.die(agent, "stack underflow (copy)");
    return StepResult::kGone;
  }
  return push_or_die(agent, agent.peek(0)) ? StepResult::kContinue
                                           : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_pop(Agent& agent,
                                             const DecodedInsn& d,
                                             sim::SimTime& cost) {
  cost += d.precharge;
  if (agent.stack_depth() == 0) {
    e_.die(agent, "stack underflow (pop)");
    return StepResult::kGone;
  }
  agent.pop();
  return StepResult::kContinue;
}

VmDispatcher::StepResult VmDispatcher::h_swap(Agent& agent,
                                              const DecodedInsn& d,
                                              sim::SimTime& cost) {
  cost += d.precharge;
  if (agent.stack_depth() < 2) {
    e_.die(agent, "stack underflow (swap)");
    return StepResult::kGone;
  }
  const ts::Value a = agent.pop();
  const ts::Value b = agent.pop();
  return (agent.push(a) && agent.push(b)) ? StepResult::kContinue
                                          : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_wait(Agent& agent,
                                              const DecodedInsn& d,
                                              sim::SimTime& cost) {
  cost += d.precharge;
  e_.block_agent(agent, AgentRunState::kWaitingRxn, "wait");
  return StepResult::kBlocked;
}

VmDispatcher::StepResult VmDispatcher::h_jumps(Agent& agent,
                                               const DecodedInsn& d,
                                               sim::SimTime& cost) {
  cost += d.precharge;
  const ts::Value target = agent.pop();
  agent.set_pc(static_cast<std::uint16_t>(target.as_number()));
  return StepResult::kContinue;
}

VmDispatcher::StepResult VmDispatcher::h_depth(Agent& agent,
                                               const DecodedInsn& d,
                                               sim::SimTime& cost) {
  cost += d.precharge;
  return push_or_die(agent, ts::Value::number(static_cast<std::int16_t>(
                                agent.stack_depth())))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_clear(Agent& agent,
                                               const DecodedInsn& d,
                                               sim::SimTime& cost) {
  cost += d.precharge;
  agent.clear_stack();
  return StepResult::kContinue;
}

VmDispatcher::StepResult VmDispatcher::h_cpush(Agent& agent,
                                               const DecodedInsn& d,
                                               sim::SimTime& cost) {
  cost += d.precharge;
  return push_or_die(agent, ts::Value::number(agent.condition()))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_arith(Agent& agent,
                                               const DecodedInsn& d,
                                               sim::SimTime& cost) {
  cost += d.precharge;
  if (agent.stack_depth() < 2) {
    e_.die(agent, "stack underflow (arithmetic)");
    return StepResult::kGone;
  }
  const ts::Value a = agent.pop();  // top
  const ts::Value b = agent.pop();  // second
  std::int16_t result = 0;
  const std::int16_t av = a.as_number();
  const std::int16_t bv = b.as_number();
  switch (static_cast<Opcode>(d.raw)) {
    case Opcode::kAdd:
      result = static_cast<std::int16_t>(bv + av);
      break;
    case Opcode::kSub:
      result = static_cast<std::int16_t>(bv - av);
      break;
    case Opcode::kAnd:
      result = static_cast<std::int16_t>(bv & av);
      break;
    case Opcode::kOr:
      result = static_cast<std::int16_t>(bv | av);
      break;
    case Opcode::kMul:
      result = static_cast<std::int16_t>(bv * av);
      break;
    case Opcode::kMod:
      if (av == 0) {
        e_.die(agent, "mod by zero");
        return StepResult::kGone;
      }
      result = static_cast<std::int16_t>(bv % av);
      break;
    case Opcode::kEq:
      result = values_equal(a, b) ? 1 : 0;
      break;
    default:
      break;
  }
  return push_or_die(agent, ts::Value::number(result))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_not(Agent& agent,
                                             const DecodedInsn& d,
                                             sim::SimTime& cost) {
  cost += d.precharge;
  const ts::Value v = agent.pop();
  return push_or_die(agent, ts::Value::number(v.as_number() == 0 ? 1 : 0))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_incdec(Agent& agent,
                                                const DecodedInsn& d,
                                                sim::SimTime& cost) {
  cost += d.precharge;
  const std::int16_t v = agent.pop().as_number();
  const std::int16_t delta =
      (static_cast<Opcode>(d.raw) == Opcode::kInc) ? 1 : -1;
  return push_or_die(agent,
                     ts::Value::number(static_cast<std::int16_t>(v + delta)))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_migrate(Agent& agent,
                                                 const DecodedInsn& d,
                                                 sim::SimTime& cost) {
  cost += d.precharge;
  return exec_migration(agent, static_cast<Opcode>(d.raw));
}

VmDispatcher::StepResult VmDispatcher::h_getnbr(Agent& agent,
                                                const DecodedInsn& d,
                                                sim::SimTime& cost) {
  cost += d.precharge;
  const std::int16_t index = agent.pop().as_number();
  const auto loc = index >= 0 ? e_.context_.neighbor_location(
                                    static_cast<std::size_t>(index))
                              : std::nullopt;
  agent.set_condition(loc.has_value() ? 1 : 0);
  return push_or_die(agent, ts::Value::location(
                                loc.value_or(e_.context_.location())))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_randnbr(Agent& agent,
                                                 const DecodedInsn& d,
                                                 sim::SimTime& cost) {
  cost += d.precharge;
  const auto loc = e_.context_.random_neighbor(e_.sim_.node_rng(e_.node_));
  agent.set_condition(loc.has_value() ? 1 : 0);
  return push_or_die(agent, ts::Value::location(
                                loc.value_or(e_.context_.location())))
             ? StepResult::kContinue
             : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_compare(Agent& agent,
                                                 const DecodedInsn& d,
                                                 sim::SimTime& cost) {
  cost += d.precharge;
  if (agent.stack_depth() < 2) {
    e_.die(agent, "stack underflow (comparison)");
    return StepResult::kGone;
  }
  const ts::Value a = agent.pop();  // top
  const ts::Value b = agent.pop();  // second
  bool cond = false;
  switch (static_cast<Opcode>(d.raw)) {
    case Opcode::kCeq:
      cond = values_equal(a, b);
      break;
    case Opcode::kClt:
      cond = a.as_number() < b.as_number();
      break;
    case Opcode::kCgt:
      cond = a.as_number() > b.as_number();
      break;
    default:
      break;
  }
  agent.set_condition(cond ? 1 : 0);
  return StepResult::kContinue;
}

VmDispatcher::StepResult VmDispatcher::h_rjump(Agent& agent,
                                               const DecodedInsn& d,
                                               sim::SimTime& cost) {
  cost += d.precharge;
  const auto offset = static_cast<std::int8_t>(d.operand[0]);
  agent.set_pc(static_cast<std::uint16_t>(agent.pc() + offset));
  return StepResult::kContinue;
}

VmDispatcher::StepResult VmDispatcher::h_rjumpc(Agent& agent,
                                                const DecodedInsn& d,
                                                sim::SimTime& cost) {
  cost += d.precharge;
  if (agent.condition() != 0) {
    const auto offset = static_cast<std::int8_t>(d.operand[0]);
    agent.set_pc(static_cast<std::uint16_t>(agent.pc() + offset));
  }
  return StepResult::kContinue;
}

VmDispatcher::StepResult VmDispatcher::h_jump(Agent& agent,
                                              const DecodedInsn& d,
                                              sim::SimTime& cost) {
  cost += d.precharge;
  agent.set_pc(d.operand[0]);
  return StepResult::kContinue;
}

VmDispatcher::StepResult VmDispatcher::h_tuple(Agent& agent,
                                               const DecodedInsn& d,
                                               sim::SimTime& cost) {
  return exec_tuple_op(agent, static_cast<Opcode>(d.raw), cost);
}

VmDispatcher::StepResult VmDispatcher::h_remote(Agent& agent,
                                                const DecodedInsn& d,
                                                sim::SimTime& cost) {
  cost += d.precharge;
  return exec_remote(agent, static_cast<Opcode>(d.raw));
}

VmDispatcher::StepResult VmDispatcher::h_getvar(Agent& agent,
                                                const DecodedInsn& d,
                                                sim::SimTime& cost) {
  cost += d.precharge;
  return push_or_die(agent, agent.heap(d.slot)) ? StepResult::kContinue
                                                : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_setvar(Agent& agent,
                                                const DecodedInsn& d,
                                                sim::SimTime& cost) {
  cost += d.precharge;
  agent.set_heap(d.slot, agent.pop());
  return StepResult::kContinue;
}

VmDispatcher::StepResult VmDispatcher::h_push(Agent& agent,
                                              const DecodedInsn& d,
                                              sim::SimTime& cost) {
  cost += d.precharge;
  return push_or_die(agent, d.imm) ? StepResult::kContinue
                                   : StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_undefined(Agent& agent,
                                                   const DecodedInsn& d,
                                                   sim::SimTime& /*cost*/) {
  // The dispatch epilogue counts this into the shared undefined slot; the
  // per-byte record opcode_profile() reports is kept here.
  auto& undefined = e_.undefined_profile_;
  const auto seen = std::find_if(
      undefined.begin(), undefined.end(),
      [&](const auto& entry) { return entry.first == d.raw; });
  if (seen != undefined.end()) {
    seen->second++;
  } else {
    undefined.emplace_back(d.raw, 1);
  }
  e_.die(agent, "undefined opcode");
  return StepResult::kGone;
}

VmDispatcher::StepResult VmDispatcher::h_truncated(Agent& agent,
                                                   const DecodedInsn& /*d*/,
                                                   sim::SimTime& /*cost*/) {
  e_.die(agent, "truncated instruction");
  return StepResult::kGone;
}

// --------------------------------------------------------------------------
// Composite instruction groups
// --------------------------------------------------------------------------

bool VmDispatcher::pop_fields(Agent& agent, FieldBuffer& buf,
                              std::span<const ts::Value>* out) {
  const ts::Value count_value = agent.pop();
  const std::int16_t count = count_value.as_number();
  if (!count_value.valid() || count < 0 ||
      count > static_cast<std::int16_t>(Agent::kStackDepth)) {
    e_.die(agent, "bad field count for tuple operation");
    return false;
  }
  // Popped last-pushed-first, so filling from the back leaves field 0
  // first.
  for (auto i = static_cast<std::size_t>(count); i-- > 0;) {
    buf[i] = agent.pop();
    if (!buf[i].valid()) {
      e_.die(agent, "stack underflow building tuple");
      return false;
    }
  }
  *out = std::span<const ts::Value>(buf.data(),
                                    static_cast<std::size_t>(count));
  return true;
}

AgentImage VmDispatcher::make_image(Agent& agent, MigrationOp op,
                                    sim::Location dest) {
  AgentImage image;
  image.agent_id = agent.id().value;
  image.op = op;
  image.dest = dest;
  image.pc = agent.pc();
  image.condition = agent.condition();
  image.code = agent.program()->bytes();
  if (is_strong(op)) {
    image.stack_depth = static_cast<std::uint8_t>(agent.stack_depth());
    std::ranges::copy(agent.stack(), image.stack.begin());
    for (std::size_t slot = 0; slot < kHeapSlots; ++slot) {
      image.heap[slot] = agent.heap(slot);
    }
    image.reactions =
        e_.tuple_space_.reactions().owned_by(agent.id().value);
  } else {
    image.weaken();
  }
  return image;
}

VmDispatcher::StepResult VmDispatcher::exec_tuple_op(Agent& agent, Opcode op,
                                                     sim::SimTime& cost) {
  auto charge = [&](bool blocking) {
    cost += instruction_cost(
        static_cast<std::uint8_t>(op),
        e_.tuple_space_.store().last_op_bytes_touched(), blocking);
  };

  switch (op) {
    case Opcode::kOut: {
      FieldBuffer buf;
      std::span<const ts::Value> fields;
      if (!pop_fields(agent, buf, &fields)) {
        return StepResult::kGone;
      }
      ts::Tuple tuple;
      if (!add_all(tuple, fields)) {
        e_.die(agent, "field not storable in a tuple (out)");
        return StepResult::kGone;
      }
      const bool ok = e_.tuple_space_.out(tuple);
      charge(false);
      // The write may fire this agent's own reactions, and a delivery that
      // overflows its stack kills it (and frees it, clearing running_).
      if (e_.running_ != &agent) {
        return StepResult::kGone;
      }
      agent.set_condition(ok ? 1 : 0);
      return StepResult::kContinue;
    }
    case Opcode::kInp:
    case Opcode::kRdp:
    case Opcode::kIn:
    case Opcode::kRd:
    case Opcode::kTCount: {
      FieldBuffer buf;
      std::span<const ts::Value> fields;
      if (!pop_fields(agent, buf, &fields)) {
        return StepResult::kGone;
      }
      ts::Template templ;
      if (!add_all(templ, fields)) {
        e_.die(agent, "template too large");
        return StepResult::kGone;
      }
      // Compile once; the probe (and any blocked re-probes) reuse it.
      ts::CompiledTemplate compiled(templ);
      if (op == Opcode::kTCount) {
        const std::size_t n = e_.tuple_space_.tcount(compiled);
        charge(false);
        if (!agent.push(ts::Value::number(static_cast<std::int16_t>(n)))) {
          e_.die(agent, "stack overflow (tcount)");
          return StepResult::kGone;
        }
        return StepResult::kContinue;
      }
      const bool removes = (op == Opcode::kInp || op == Opcode::kIn);
      const bool blocking = (op == Opcode::kIn || op == Opcode::kRd);
      const auto result = removes ? e_.tuple_space_.inp(compiled)
                                  : e_.tuple_space_.rdp(compiled);
      charge(blocking);
      if (result.has_value()) {
        if (!agent.push_fields(*result)) {
          e_.die(agent, "stack overflow pushing tuple result");
          return StepResult::kGone;
        }
        agent.set_condition(1);
        return StepResult::kContinue;
      }
      if (!blocking) {
        agent.set_condition(0);
        return StepResult::kContinue;
      }
      // Blocking probe failed: park the agent until an insertion.
      agent.set_blocked_probe(
          Agent::BlockedProbe{std::move(compiled), removes});
      e_.block_agent(agent, AgentRunState::kBlockedTs, "tuple");
      return StepResult::kBlocked;
    }
    case Opcode::kRegRxn: {
      const ts::Value handler = agent.pop();
      if (!handler.valid()) {
        e_.die(agent, "stack underflow (regrxn handler)");
        return StepResult::kGone;
      }
      FieldBuffer buf;
      std::span<const ts::Value> fields;
      if (!pop_fields(agent, buf, &fields)) {
        return StepResult::kGone;
      }
      if (fields.size() > kMaxReactionTemplateFields) {
        e_.die(agent, "reaction template exceeds 4 fields");
        return StepResult::kGone;
      }
      ts::Reaction reaction;
      reaction.agent_id = agent.id().value;
      reaction.handler_pc = static_cast<std::uint16_t>(handler.as_number());
      add_all(reaction.templ, fields);
      const bool ok = e_.tuple_space_.register_reaction(std::move(reaction));
      agent.set_condition(ok ? 1 : 0);
      cost += instruction_cost(static_cast<std::uint8_t>(op), 0, false);
      return StepResult::kContinue;
    }
    case Opcode::kDeregRxn: {
      FieldBuffer buf;
      std::span<const ts::Value> fields;
      if (!pop_fields(agent, buf, &fields)) {
        return StepResult::kGone;
      }
      ts::Template templ;
      for (const ts::Value& f : fields) {
        templ.add(f);  // a field that does not fit is skipped
      }
      const bool ok =
          e_.tuple_space_.deregister_reaction(agent.id().value, templ);
      agent.set_condition(ok ? 1 : 0);
      cost += instruction_cost(static_cast<std::uint8_t>(op), 0, false);
      return StepResult::kContinue;
    }
    default:
      e_.die(agent, "internal: not a tuple op");
      return StepResult::kGone;
  }
}

VmDispatcher::StepResult VmDispatcher::exec_migration(Agent& agent,
                                                      Opcode op) {
  const ts::Value dest_value = agent.pop();
  if (dest_value.type() != ts::ValueType::kLocation) {
    e_.die(agent, "migration destination is not a location");
    return StepResult::kGone;
  }
  const sim::Location dest = dest_value.as_location();
  MigrationOp mop = MigrationOp::kSMove;
  switch (op) {
    case Opcode::kSMove:
      mop = MigrationOp::kSMove;
      break;
    case Opcode::kWMove:
      mop = MigrationOp::kWMove;
      break;
    case Opcode::kSClone:
      mop = MigrationOp::kSClone;
      break;
    case Opcode::kWClone:
      mop = MigrationOp::kWClone;
      break;
    default:
      e_.die(agent, "internal: not a migration op");
      return StepResult::kGone;
  }

  // Destination is this node: moves are no-ops, clones fork locally.
  if (within(e_.context_.location(), dest, sim::kAddressEpsilon)) {
    if (is_clone(mop)) {
      AgentImage image = make_image(agent, mop, dest);
      image.agent_id = e_.next_id().value;
      e_.install(std::move(image), true);
      agent.set_condition(2);
    } else {
      agent.set_condition(1);
    }
    return StepResult::kYield;
  }

  e_.stats_.migrations_started++;
  e_.emit_agent(sim::EventKind::kAgentMigrate, agent.id(), nullptr, dest);
  AgentImage image = make_image(agent, mop, dest);
  if (is_clone(mop)) {
    image.agent_id = e_.next_id().value;
  }
  e_.block_agent(agent, AgentRunState::kBlockedOp, "migrate");
  const AgentId id = agent.id();
  e_.migration_.send(std::move(image), [this, id, mop](bool success) {
    Agent* a = e_.find(id);
    if (a == nullptr) {
      return;
    }
    if (is_clone(mop)) {
      if (success) {
        a->set_condition(2);
      } else {
        e_.stats_.migrations_failed++;
        a->set_condition(0);
      }
      e_.make_ready(*a);
      return;
    }
    // Moves: on success the agent now lives on the next hop.
    if (success) {
      e_.emit_agent(sim::EventKind::kAgentKill, id, "migrated");
      e_.destroy(*a);
      return;
    }
    e_.stats_.migrations_failed++;
    a->set_condition(0);
    e_.make_ready(*a);
  });
  return StepResult::kBlocked;
}

VmDispatcher::StepResult VmDispatcher::exec_remote(Agent& agent, Opcode op) {
  const ts::Value dest_value = agent.pop();
  if (dest_value.type() != ts::ValueType::kLocation) {
    e_.die(agent, "remote op destination is not a location");
    return StepResult::kGone;
  }
  const sim::Location dest = dest_value.as_location();
  FieldBuffer buf;
  std::span<const ts::Value> fields;
  if (!pop_fields(agent, buf, &fields)) {
    return StepResult::kGone;
  }

  e_.stats_.remote_ops++;
  e_.block_agent(agent, AgentRunState::kBlockedOp, "remote");
  const AgentId id = agent.id();
  auto completion = [this, id](bool success,
                               std::optional<ts::Tuple> result) {
    Agent* a = e_.find(id);
    if (a == nullptr) {
      return;
    }
    if (success && result.has_value() && !a->push_fields(*result)) {
      e_.die(*a, "stack overflow pushing remote result");
      return;
    }
    a->set_condition(success ? 1 : 0);
    e_.make_ready(*a);
  };

  if (op == Opcode::kROut) {
    ts::Tuple tuple;
    if (!add_all(tuple, fields)) {
      e_.die(agent, "field not storable in a tuple (rout)");
      return StepResult::kGone;
    }
    e_.remote_ts_.request_out(dest, tuple, std::move(completion));
  } else {
    ts::Template templ;
    if (!add_all(templ, fields)) {
      e_.die(agent, "template too large (remote probe)");
      return StepResult::kGone;
    }
    e_.remote_ts_.request_probe(
        op == Opcode::kRInp ? RemoteOp::kInp : RemoteOp::kRdp, dest, templ,
        std::move(completion));
  }
  return StepResult::kBlocked;
}

}  // namespace agilla::core
