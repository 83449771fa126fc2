// agilla_grade — grader-style conformance runner for `.aga` agents.
//
// Each program in the corpus runs on a small deterministic mesh; the
// grader dumps final tuple-space contents, agent fates, and (optionally)
// selected trace events, then diffs the dump against the program's
// sibling `.expect` file:
//
//   agilla_grade tests/agents            grade every *.aga in a directory
//   agilla_grade prog.aga ...            grade specific programs
//   agilla_grade --update PATH...        (re)write the .expect files
//   agilla_grade --strict PATH...        no xfail inversion (CI's
//                                        broken-expect gate)
//   agilla_grade -v PATH...              print every observed dump
//
// Run parameters come from `;!` directive comments inside the program
// (invisible to the assembler — `;` starts a comment):
//
//   ;! grid 4x3        mesh width x height       (default 3x3)
//   ;! seed 7          deployment seed           (default 1)
//   ;! loss 0.05       per-packet loss           (default 0)
//   ;! duration 30     simulated seconds to run  (default 20)
//   ;! warmup 5        discovery warm-up seconds (default 5)
//   ;! inject 4        mote index to inject on   (default 0)
//   ;! trace out smove trace these mnemonics into the [trace] section
//   ;! trace_max 64    cap on recorded trace events (default 200)
//
// Programs whose name ends in `_xfail.aga` are expected to MISMATCH
// their `.expect` (they prove the grader reports a readable diff instead
// of crashing); `--strict` disables the inversion.
//
// Exit status: 0 all pass, 1 any mismatch, 2 usage / I/O errors.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/deployment.h"
#include "core/assembler.h"
#include "core/engine.h"
#include "core/isa.h"
#include "core/middleware.h"
#include "tuplespace/tuple_space.h"

namespace {

namespace fs = std::filesystem;
using agilla::api::Deployment;
using agilla::api::DeploymentOptions;

struct RunSpec {
  std::size_t width = 3;
  std::size_t height = 3;
  std::uint64_t seed = 1;
  double loss = 0.0;
  double duration_s = 20.0;
  double warmup_s = 5.0;
  std::size_t inject = 0;
  std::vector<std::string> trace;  ///< mnemonics to record
  std::size_t trace_max = 200;
};

/// Parses the `;!` directive comments out of a program source.
bool parse_spec(const std::string& source, const std::string& file,
                RunSpec* spec) {
  std::istringstream stream(source);
  std::string line;
  std::size_t line_no = 0;
  bool ok = true;
  while (std::getline(stream, line)) {
    ++line_no;
    const auto bang = line.find(";!");
    if (bang == std::string::npos ||
        line.find_first_not_of(" \t") != bang) {
      continue;
    }
    std::istringstream rest(line.substr(bang + 2));
    std::string key;
    rest >> key;
    auto fail = [&](const char* what) {
      std::fprintf(stderr, "%s:%zu: bad ;! directive (%s)\n", file.c_str(),
                   line_no, what);
      ok = false;
    };
    if (key == "grid") {
      std::string dims;
      rest >> dims;
      const auto x = dims.find('x');
      std::size_t w = 0;
      std::size_t h = 0;
      if (x == std::string::npos ||
          std::sscanf(dims.c_str(), "%zux%zu", &w, &h) != 2 || w == 0 ||
          h == 0 || w * h > 4096) {
        fail("grid expects WxH");
        continue;
      }
      spec->width = w;
      spec->height = h;
    } else if (key == "seed") {
      if (!(rest >> spec->seed)) {
        fail("seed expects an integer");
      }
    } else if (key == "loss") {
      if (!(rest >> spec->loss) || spec->loss < 0.0 || spec->loss > 1.0) {
        fail("loss expects 0..1");
      }
    } else if (key == "duration") {
      if (!(rest >> spec->duration_s) || spec->duration_s <= 0.0) {
        fail("duration expects seconds > 0");
      }
    } else if (key == "warmup") {
      if (!(rest >> spec->warmup_s) || spec->warmup_s < 0.0) {
        fail("warmup expects seconds >= 0");
      }
    } else if (key == "inject") {
      if (!(rest >> spec->inject)) {
        fail("inject expects a mote index");
      }
    } else if (key == "trace") {
      std::string mnemonic;
      while (rest >> mnemonic) {
        spec->trace.push_back(mnemonic);
      }
    } else if (key == "trace_max") {
      if (!(rest >> spec->trace_max) || spec->trace_max == 0) {
        fail("trace_max expects a positive integer");
      }
    } else {
      fail(("unknown key '" + key + "'").c_str());
    }
  }
  return ok;
}

/// Base mnemonic for a raw opcode byte ("getvar", not "getvar[3]");
/// "undefined" for bytes outside the ISA.
std::string base_mnemonic(std::uint8_t raw) {
  const agilla::core::OpcodeInfo* info = agilla::core::opcode_info(raw);
  return info == nullptr ? "undefined" : info->mnemonic;
}

/// Executes one program and renders the observed dump. Returns false on
/// setup errors (assembly failure, bad directives, bad mote index).
bool run_program(const fs::path& program, std::string* dump_out) {
  std::ifstream in(program);
  if (!in) {
    std::fprintf(stderr, "agilla_grade: cannot read '%s'\n",
                 program.string().c_str());
    return false;
  }
  std::ostringstream source;
  source << in.rdbuf();

  RunSpec spec;
  if (!parse_spec(source.str(), program.string(), &spec)) {
    return false;
  }

  // Trace collection: one bus observer for the kInsn records. Declared
  // before the deployment, so it outlives the bus it is subscribed to.
  struct TraceLog final : agilla::api::Observer {
    explicit TraceLog(const RunSpec& run) : spec(run) {}

    const RunSpec& spec;
    std::vector<agilla::sim::Event> events;
    bool truncated = false;

    void on_event(const agilla::sim::Event& e) override {
      if (std::find(spec.trace.begin(), spec.trace.end(),
                    base_mnemonic(e.opcode)) == spec.trace.end()) {
        return;
      }
      if (events.size() >= spec.trace_max) {
        truncated = true;
        return;
      }
      events.push_back(e);
    }
  };
  TraceLog trace(spec);

  DeploymentOptions options;
  options.width = spec.width;
  options.height = spec.height;
  options.seed = spec.seed;
  options.packet_loss = spec.loss;
  options.per_byte_loss = 0.0;
  options.warmup =
      static_cast<agilla::sim::SimTime>(spec.warmup_s * 1e6);
  Deployment deployment(options);
  if (spec.inject >= deployment.mote_count()) {
    std::fprintf(stderr, "%s: inject mote %zu out of range (grid has %zu)\n",
                 program.string().c_str(), spec.inject,
                 deployment.mote_count());
    return false;
  }
  if (!spec.trace.empty()) {
    deployment.bus().subscribe(
        trace, agilla::sim::mask_of(agilla::sim::EventKind::kInsn));
  }

  try {
    deployment.inject_file(program.string(), spec.inject);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return false;
  }
  deployment.run_for(
      static_cast<agilla::sim::SimTime>(spec.duration_s * 1e6));

  // --- render the dump ----------------------------------------------------
  agilla::core::EngineStats total;
  for (std::size_t m = 0; m < deployment.mote_count(); ++m) {
    const agilla::core::EngineStats& s =
        deployment.mote(m).engine().stats();
    total.instructions += s.instructions;
    total.vm_errors += s.vm_errors;
    total.agents_launched += s.agents_launched;
    total.agents_halted += s.agents_halted;
    total.agents_installed += s.agents_installed;
    total.agents_rejected += s.agents_rejected;
    total.agents_power_lost += s.agents_power_lost;
    total.migrations_started += s.migrations_started;
    total.migrations_failed += s.migrations_failed;
    total.remote_ops += s.remote_ops;
    total.reactions_fired += s.reactions_fired;
  }
  std::ostringstream dump;
  dump << "# agilla_grade v1\n";
  dump << "[agents]\n";
  dump << "alive " << deployment.agent_count() << "\n";
  dump << "launched " << total.agents_launched << " installed "
       << total.agents_installed << " halted " << total.agents_halted
       << " rejected " << total.agents_rejected << " power_lost "
       << total.agents_power_lost << "\n";
  dump << "vm_errors " << total.vm_errors << " migrations "
       << total.migrations_started << "/" << total.migrations_failed
       << " remote_ops " << total.remote_ops << " reactions "
       << total.reactions_fired << "\n";
  dump << "instructions " << total.instructions << "\n";
  dump << "[tuples]\n";
  for (std::size_t m = 0; m < deployment.mote_count(); ++m) {
    for (const agilla::ts::Tuple& tuple :
         deployment.mote(m).tuple_space().store().snapshot()) {
      dump << "mote " << m << " " << tuple.to_string() << "\n";
    }
  }
  if (!spec.trace.empty()) {
    dump << "[trace]\n";
    for (const agilla::sim::Event& e : trace.events) {
      dump << "mote " << e.node.value << " agent " << e.agent << " pc "
           << e.pc << " " << base_mnemonic(e.opcode) << "\n";
    }
    if (trace.truncated) {
      dump << "(trace truncated at " << spec.trace_max << " events)\n";
    }
  }
  *dump_out = dump.str();
  return true;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    lines.push_back(line);
  }
  return lines;
}

/// Position-aligned diff, readable in CI logs: expected on '-', observed
/// on '+', capped so a wildly wrong run stays scannable.
void print_diff(const std::string& expected, const std::string& observed) {
  const std::vector<std::string> want = split_lines(expected);
  const std::vector<std::string> got = split_lines(observed);
  const std::size_t n = std::max(want.size(), got.size());
  std::size_t shown = 0;
  for (std::size_t i = 0; i < n && shown < 24; ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    if (w != nullptr && g != nullptr && *w == *g) {
      continue;
    }
    std::printf("  line %zu:\n", i + 1);
    if (w != nullptr) {
      std::printf("  - %s\n", w->c_str());
    }
    if (g != nullptr) {
      std::printf("  + %s\n", g->c_str());
    }
    ++shown;
  }
  if (shown == 24) {
    std::printf("  (more differences elided)\n");
  }
}

bool is_xfail(const fs::path& program) {
  const std::string stem = program.stem().string();
  return stem.size() > 6 && stem.ends_with("_xfail");
}

}  // namespace

int main(int argc, char** argv) {
  bool update = false;
  bool strict = false;
  bool verbose = false;
  std::vector<fs::path> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--update") {
      update = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else if (arg == "-h" || arg == "--help") {
      std::fprintf(stderr,
                   "usage: agilla_grade [--update] [--strict] [-v] "
                   "PATH...\n       (PATH: .aga file or directory)\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "agilla_grade: unknown option '%s'\n",
                   arg.c_str());
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "agilla_grade: no programs given\n");
    return 2;
  }

  // Expand directories into their sorted *.aga contents.
  std::vector<fs::path> programs;
  for (const fs::path& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      std::vector<fs::path> found;
      for (const auto& entry : fs::directory_iterator(path, ec)) {
        if (entry.path().extension() == ".aga") {
          found.push_back(entry.path());
        }
      }
      std::sort(found.begin(), found.end());
      programs.insert(programs.end(), found.begin(), found.end());
    } else {
      programs.push_back(path);
    }
  }
  if (programs.empty()) {
    std::fprintf(stderr, "agilla_grade: no .aga programs found\n");
    return 2;
  }

  int failures = 0;
  int errors = 0;
  for (const fs::path& program : programs) {
    std::string observed;
    if (!run_program(program, &observed)) {
      std::printf("ERROR %s\n", program.string().c_str());
      ++errors;
      continue;
    }
    if (verbose) {
      std::printf("--- %s observed ---\n%s", program.string().c_str(),
                  observed.c_str());
    }
    fs::path expect_path = program;
    expect_path.replace_extension(".expect");

    const bool xfail = !strict && is_xfail(program);
    if (update) {
      if (xfail) {
        std::printf("SKIP %s (xfail .expect files are curated by hand)\n",
                    program.string().c_str());
        continue;
      }
      std::ofstream out(expect_path);
      out << observed;
      std::printf("WROTE %s\n", expect_path.string().c_str());
      continue;
    }

    std::ifstream expect_in(expect_path);
    if (!expect_in) {
      std::printf("FAIL %s (missing %s)\n", program.string().c_str(),
                  expect_path.string().c_str());
      ++failures;
      continue;
    }
    std::ostringstream expect_buf;
    expect_buf << expect_in.rdbuf();
    const std::string expected = expect_buf.str();

    const bool match = expected == observed;
    if (xfail) {
      if (match) {
        std::printf("FAIL %s (xfail program unexpectedly matched)\n",
                    program.string().c_str());
        ++failures;
      } else {
        std::printf("PASS %s (xfail: grader reported the diff)\n",
                    program.string().c_str());
        print_diff(expected, observed);
      }
      continue;
    }
    if (match) {
      std::printf("PASS %s\n", program.string().c_str());
    } else {
      std::printf("FAIL %s: dump differs from %s\n",
                  program.string().c_str(),
                  expect_path.string().c_str());
      print_diff(expected, observed);
      ++failures;
    }
  }
  std::printf("%zu program(s), %d failure(s), %d error(s)\n",
              programs.size(), failures, errors);
  if (errors > 0) {
    return 2;
  }
  return failures > 0 ? 1 : 0;
}
