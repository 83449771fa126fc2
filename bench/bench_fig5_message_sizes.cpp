// Paper Fig. 5: "Messages used during migration" — the exact wire size of
// each migration message type, plus the message breakdown for
// representative agents ("At a minimum, a migration requires two messages:
// one state and one code").
#include <numeric>

#include "bench_common.h"
#include "core/agent_serializer.h"

using namespace agilla;
using namespace agilla::bench;

namespace {

const char* am_name(sim::AmType am) {
  switch (am) {
    case sim::AmType::kAgentState:
      return "State";
    case sim::AmType::kAgentCode:
      return "Code";
    case sim::AmType::kAgentHeap:
      return "Heap";
    case sim::AmType::kAgentStack:
      return "Stack";
    case sim::AmType::kAgentReaction:
      return "Reaction";
    default:
      return "?";
  }
}

void describe(const char* title, const core::AgentImage& image) {
  const std::size_t count = core::message_counts(image).total();
  std::size_t total = 0;
  std::printf("%s -> %zu messages:", title, count);
  for (std::size_t i = 0; i < count; ++i) {
    const core::MigrationMessage m = core::encode_message(image, 1, i);
    std::printf(" %s(%zuB)", am_name(m.am), m.payload.size());
    total += m.payload.size();
  }
  std::printf("  = %zu payload bytes\n", total);
}

}  // namespace

int main() {
  print_header("Figure 5 (table) — messages used during migration",
               "Fok et al., Sec. 3.2, Fig. 5");

  struct RowSpec {
    const char* type;
    std::size_t ours;
    std::size_t paper;
    const char* content;
  };
  const RowSpec rows[] = {
      {"State", core::kStateMessageBytes, 20,
       "program counter, code size, condition code, stack pointer"},
      {"Code", core::kCodeMessageBytes, 28, "one instruction block"},
      {"Heap", core::kHeapMessageBytes, 32,
       "four variables and their addresses"},
      {"Stack", core::kStackMessageBytes, 30, "four variables"},
      {"Reaction", core::kReactionMessageBytes, 36, "one reaction"},
  };
  std::printf("  type       ours   paper   content\n");
  std::printf("  --------   ----   -----   -------\n");
  bool all_match = true;
  for (const RowSpec& row : rows) {
    std::printf("  %-8s   %3zu B  %3zu B   %s%s\n", row.type, row.ours,
                row.paper, row.content,
                row.ours == row.paper ? "" : "   << MISMATCH");
    all_match = all_match && row.ours == row.paper;
  }
  std::printf("  => %s\n\n",
              all_match ? "all five wire sizes match the paper exactly"
                        : "MISMATCH against the paper");

  // Message breakdowns for representative agents.
  core::AgentImage minimal;
  minimal.agent_id = 1;
  minimal.op = core::MigrationOp::kWMove;
  minimal.code = core::assemble_or_die("halt");
  describe("minimal weak agent        ", minimal);

  core::AgentImage fig8;
  fig8.agent_id = 2;
  fig8.op = core::MigrationOp::kSMove;
  fig8.code =
      core::assemble_or_die(core::agents::smove_round_trip({5, 1}, {1, 1}));
  describe("Fig. 8 smove agent        ", fig8);

  core::AgentImage tracker;
  tracker.agent_id = 3;
  tracker.op = core::MigrationOp::kSClone;
  tracker.code = core::assemble_or_die(core::agents::fire_tracker());
  tracker.stack_depth = 1;
  tracker.stack[0] = ts::Value::number(1);
  tracker.heap[0] = ts::Value::location({3, 3});
  ts::Reaction rxn;
  rxn.agent_id = 3;
  rxn.templ = ts::Template{ts::Value::string("fir"),
                           ts::Value::type_wildcard(ts::ValueType::kLocation)};
  rxn.handler_pc = 11;
  tracker.reactions = {rxn};
  describe("FIRETRACKER (strong clone)", tracker);

  std::printf(
      "\npaper check: 'At a minimum, a migration requires two messages:\n"
      "one state and one code' -> the minimal weak agent above shows "
      "exactly that.\n");
  return 0;
}
