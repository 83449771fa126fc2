// The paper's memory claim (abstract / Sec. 1): "The implementation
// consumes a mere 41.6KB of code and 3.59KB of data memory." This bench
// prints the per-node data-RAM ledger of the default configuration and
// checks it fits the MICA2's 4 KB with comparable headroom.
//
// (The 41.6 KB flash figure is a property of the nesC binary and has no
// meaningful analogue in a host-compiled simulator; see EXPERIMENTS.md.)
#include "bench_common.h"

using namespace agilla;
using namespace agilla::bench;

int main() {
  print_header("Memory footprint — per-node data RAM ledger",
               "Fok et al., abstract / Sec. 1 (3.59 KB of 4 KB data memory)");

  Testbed bed(1, 0.0, core::AgillaConfig(), 1, 1);
  const core::MemoryBudget budget = bed.mote(0).memory_budget();
  std::printf("%s\n", budget.to_table().c_str());

  const double kb = static_cast<double>(budget.total_bytes()) / 1024.0;
  std::printf("paper: 3.59 KB; this configuration: %.2f KB -> %s\n", kb,
              budget.total_bytes() <= core::MemoryBudget::kMica2RamBytes
                  ? "fits the MICA2's 4 KB RAM"
                  : "DOES NOT FIT");

  // The same paper defaults, line by line.
  std::printf(
      "\npaper-visible defaults reproduced: 600 B tuple store, 400 B\n"
      "reaction registry (10 reactions), 440 B instruction memory (20 x\n"
      "22-byte blocks), 4 agent contexts.\n");

  // Not in the paper: the energy subsystem's per-node state (src/energy/),
  // sized as the 16-bit mote structs would be — the battery's five-component
  // draw ledger plus the LPL duty-cycler schedule. Cheap on purpose: a
  // lifetime-aware Agilla still fits the MICA2 with the paper's headroom.
  std::size_t energy_bytes = 0;
  for (const core::MemoryBudget::Item& item : budget.items()) {
    if (item.label.find("battery") != std::string::npos ||
        item.label.find("duty cycler") != std::string::npos) {
      energy_bytes += item.bytes;
    }
  }
  std::printf(
      "\nenergy/duty-cycle state (battery ledger + LPL schedule): %zu B\n"
      "of the %zu B total (%.1f %%).\n",
      energy_bytes, budget.total_bytes(),
      100.0 * static_cast<double>(energy_bytes) /
          static_cast<double>(budget.total_bytes()));

  // A smaller configuration for extremely constrained motes.
  core::AgillaConfig lean;
  lean.engine.max_agents = 2;
  lean.code_pool_blocks = 10;
  lean.tuple_space.store_capacity_bytes = 300;
  lean.tuple_space.registry.capacity_bytes = 200;
  Testbed lean_bed(1, 0.0, lean, 1, 1);
  std::printf("\nlean configuration (2 agents, 220 B code, 300 B store):\n%s",
              lean_bed.mote(0).memory_budget().to_table().c_str());
  return 0;
}
