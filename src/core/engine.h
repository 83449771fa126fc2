// The Agilla Engine (paper Fig. 4 / Sec. 3.2): the virtual-machine kernel
// that runs every agent on a node with round-robin scheduling, "each agent
// can execute a fixed number of instructions (default 4) before switching
// context", yielding immediately on long-running instructions (sleep,
// sense, wait, migration, remote tuple-space ops, blocked in/rd). It is
// also the paper's Agent Manager: it owns the node's agents, their slots
// (default 4 per node) and their ids.
//
// This header is the embedding-facing surface: lifecycle (launch/install),
// stats, and knob-style Options. Agent lifecycle and every dispatched
// instruction are observed as sim::Event records on the simulator. The
// decode/execute machinery lives in the engine-internal core/vm_dispatch.h
// and must not leak through here (enforced by the api_header_selfcheck
// gate).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "core/agent_serializer.h"
#include "core/code_pool.h"
#include "core/context_manager.h"
#include "core/isa.h"
#include "core/migration.h"
#include "core/remote_ts.h"
#include "core/sensors.h"
#include "core/vm_costs.h"
#include "energy/battery.h"
#include "sim/fifo.h"
#include "sim/simulator.h"

namespace agilla::core {

class ProgramTable;
class VmDispatcher;

/// How the engine executes bytecode. Both modes produce byte-identical
/// simulated behaviour (cost ledger, traces, stats, tuple-space state);
/// they differ only in host-side speed. kSwitch is the fetch-per-byte
/// reference interpreter; kThreaded runs the agent's program pre-decoded
/// when the agent was admitted (DESIGN.md "VM dispatch").
enum class DispatchMode : std::uint8_t {
  kSwitch = 0,
  kThreaded = 1,
};

[[nodiscard]] const char* to_string(DispatchMode mode);

/// Accumulated simulated execution cost per opcode — the raw data behind
/// the paper's Fig. 12 local-instruction latencies.
struct OpcodeProfile {
  std::uint64_t count = 0;
  sim::SimTime total_cost = 0;

  [[nodiscard]] double mean_us() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_cost) /
                            static_cast<double>(count);
  }
};

struct EngineStats {
  std::uint64_t instructions = 0;
  std::uint64_t slices = 0;
  std::uint64_t vm_errors = 0;
  std::uint64_t agents_launched = 0;
  std::uint64_t agents_halted = 0;
  std::uint64_t agents_installed = 0;   ///< arrived via migration
  std::uint64_t agents_rejected = 0;    ///< arrival refused (no resources)
  std::uint64_t agents_power_lost = 0;  ///< killed by node death/reboot
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_failed = 0;  ///< resumed with condition 0
  std::uint64_t remote_ops = 0;
  std::uint64_t reactions_fired = 0;
};

class AgillaEngine {
 public:
  /// Instructions an agent runs before the round-robin switch (paper
  /// default, as in Mate).
  static constexpr std::size_t kInstructionsPerSlice = 4;

  struct Options {
    /// Bytecode execution strategy; see DispatchMode.
    DispatchMode dispatch = DispatchMode::kThreaded;
    /// Ready-queue slices drained per engine wakeup. Batching amortizes
    /// the host-side event-queue overhead across slices; every slice still
    /// pays its full simulated cost (instructions + context switch), so
    /// the VM cost ledger is unaffected. The clock advances once per
    /// batch, so timer timestamps can shift by microseconds relative to
    /// batch_slices = 1; outcomes are invariant (tested).
    std::size_t batch_slices = 8;
    /// Agent slots on the node (paper Sec. 3.2 default).
    std::size_t max_agents = 4;
  };

  /// `programs` is the deployment's program table (core/program_table.h),
  /// shared by every engine of the deployment; it must outlive the engine.
  AgillaEngine(sim::Simulator& sim, sim::NodeId node, Options options,
               CodePool& code_pool,
               ts::TupleSpace& tuple_space, ContextManager& context,
               SensorBoard& sensors, MigrationManager& migration,
               RemoteTsManager& remote_ts, ProgramTable& programs);
  ~AgillaEngine();

  AgillaEngine(const AgillaEngine&) = delete;
  AgillaEngine& operator=(const AgillaEngine&) = delete;

  /// Injects a locally-created agent (base-station injection or test).
  /// Returns the new agent's id, or nullopt when out of resources.
  std::optional<AgentId> launch(std::span<const std::uint8_t> code);

  /// Installs an agent arriving via migration. `reached_dest` false means
  /// custody resume: the agent continues with condition 0.
  bool install(AgentImage image, bool reached_dest);

  /// Tuple-space hooks (wired by the middleware facade).
  void on_tuple_inserted(const ts::Tuple& tuple);
  void on_reaction(const ts::Reaction& reaction, const ts::Tuple& tuple);

  /// Connects the node's battery so every simulated CPU microsecond the
  /// cost model charges also drains energy (and sense drains per sample).
  /// `battery` may be nullptr (mains-powered / energy disabled).
  void set_energy(energy::Battery* battery) { battery_ = battery; }

  /// Kills every agent on this node (node death / reboot): reactions are
  /// dropped, code blocks released, pending wakeups cancelled.
  void kill_all_agents();

  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  /// Per-opcode execution profile (key: raw opcode byte; getvar/setvar
  /// collapse onto their base opcode). Materialized from the engine's
  /// dense per-opcode table and its undefined-byte list; only executed
  /// opcodes appear; empty until the engine has admitted an agent.
  [[nodiscard]] std::unordered_map<std::uint8_t, OpcodeProfile>
  opcode_profile() const;

  [[nodiscard]] std::uint8_t leds() const { return leds_; }

  /// Live agents in creation order.
  [[nodiscard]] std::span<const std::unique_ptr<Agent>> agents() const {
    return agents_;
  }
  /// The live agent with `id`, or nullptr.
  [[nodiscard]] Agent* find(AgentId id);

  /// Fresh network-unique id for an agent created by this node: the high
  /// byte derives from the node, the low byte counts creations (16-bit ids
  /// as in paper Fig. 6; wraparound after 256 creations is documented in
  /// DESIGN.md).
  [[nodiscard]] AgentId next_id() {
    const auto high = static_cast<std::uint16_t>((node_.value & 0xFF) << 8);
    return AgentId{static_cast<std::uint16_t>(high | id_counter_++)};
  }

  /// The decode/execute layer (engine-internal; include
  /// core/vm_dispatch.h to use it, e.g. to read program-sharing stats).
  [[nodiscard]] const VmDispatcher& dispatcher() const {
    return *dispatcher_;
  }

  /// True when any agent is alive on this node.
  [[nodiscard]] bool busy() const { return !agents_.empty(); }

 private:
  friend class VmDispatcher;

  /// Reserves `code`'s blocks and creates its agent (a fresh id unless
  /// `id` is given) holding its program; nullptr, counted as a rejection,
  /// when the pool refuses it, every slot is taken or an agent with that
  /// id lives here.
  Agent* admit(std::span<const std::uint8_t> code, std::optional<AgentId> id);
  void make_ready(Agent& agent);
  /// Emits one agent-lifecycle record for this node (`reason` must be a
  /// static string; see sim::EventKind).
  void emit_agent(sim::EventKind kind, AgentId agent,
                  const char* reason = nullptr, sim::Location dest = {});
  void block_agent(Agent& agent, AgentRunState state, const char* reason);
  void schedule_tick(sim::SimTime delay);
  void tick();
  void charge_cpu(sim::SimTime cost);
  void die(Agent& agent, const char* reason);
  /// Drops the agent's reactions, cancels its wakeup, releases its code
  /// blocks and frees it.
  void destroy(Agent& agent);

  /// Pushes the return PC and the tuple's fields and jumps to the
  /// handler; false when that overflows the stack and kills the agent.
  bool deliver_reaction(Agent& agent, std::uint16_t handler_pc,
                        const ts::Tuple& tuple);

  sim::Simulator& sim_;
  Options options_;
  CodePool& code_pool_;
  ts::TupleSpace& tuple_space_;
  ContextManager& context_;
  SensorBoard& sensors_;
  MigrationManager& migration_;
  RemoteTsManager& remote_ts_;
  energy::Battery* battery_ = nullptr;
  std::unique_ptr<VmDispatcher> dispatcher_;

  /// The live agents in creation order, one block each. An agent leaves
  /// only through destroy(), which erases it at once: a walk over them
  /// that can kill the agent it visits checks that slot again.
  std::vector<std::unique_ptr<Agent>> agents_;
  /// Round-robin order. destroy() erases an agent's entries, so every
  /// entry names a live agent.
  sim::Fifo<Agent*> ready_;
  /// The agent whose slice tick() is running; destroy() clears it, so
  /// tick() and the slice's handlers see a death without a lookup.
  Agent* running_ = nullptr;
  // The small members sit together: no padding between them.
  bool tick_scheduled_ = false;
  bool in_tick_ = false;  ///< make_ready defers scheduling to the batch end
  std::uint8_t leds_ = 0;
  std::uint8_t id_counter_ = 0;  ///< low byte of the next fresh id
  sim::NodeId node_;
  EngineStats stats_;
  /// One slot per defined opcode, indexed by opcode_index() (precomputed
  /// as DecodedInsn::profile_key): a single indexed add on the instruction
  /// hot path. The extra last slot absorbs undefined bytes, whose exact
  /// per-byte counts live in undefined_profile_ (they kill the agent and
  /// cost nothing, so a count per byte is the whole record). Allocated by
  /// the first admit(), so it exists whenever an agent does, and kept
  /// after the agents die.
  using OpcodeTable = std::array<OpcodeProfile, kDefinedOpcodes + 1>;
  std::unique_ptr<OpcodeTable> profile_;
  std::vector<std::pair<std::uint8_t, std::uint64_t>> undefined_profile_;
};

}  // namespace agilla::core
