// bench_suite: one command that runs a workload of the committed
// benchmark, checks its outputs, and prints every metric by name with its
// unit. bench/suite/README.md documents the workloads, the metrics, and
// the data behind each regression bound; BENCHMARK.json at the repo root
// lists them for tools.
//
//   bench_suite --workload NAME --seed N --seconds S --trace 0|1
//               [--label TEXT] [--trace-dir DIR] [--shards N]
//   bench_suite --smoke [--trace-dir DIR]   every workload at toy size
//   bench_suite --self-test                 statistics/digest helpers
//
// A run repeats the workload (set-up, then the measured phase) until the
// measured phases add up to --seconds, at least twice. With --trace 1 it
// alternates untraced and traced repetitions: end-to-end numbers come
// from the untraced ones, per-layer numbers from the traced ones, and the
// difference is the tracing overhead. The run executes in a forked child
// so its peak RSS belongs to this workload alone. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
// Exit codes: 0 ok; 1 a correctness gate failed; 2 usage; 3 the build is
// not an optimized, unsanitized one; 4 the self-test failed; 5 the child
// crashed or ran out of time.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "suite.h"

namespace bench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// A child that has not finished by then is killed, so a run ends within
/// 180 s even with its start-up.
constexpr int kChildDeadlineS = 170;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, in BENCHMARK.json order. An "op" is one
/// workload's unit of work: a trial (fire_sweep), a virtual second
/// (lifetime_100, agent_dense), a command (gateway_1k).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},
};

/// ops_per_s is the median over windows of at least this much measured
/// time, so a burst of host contention moves it less than a plain total.
constexpr Tick kRateWindow = sec_to_tick(0.5);

/// Setup samples per run; setup_s is their median.
constexpr std::size_t kMinSetups = 5;

/// The per-layer metrics, in BENCHMARK.json order. A layer a workload does
/// not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"api.build_s", "s"},
    {"harness.worker_busy_frac", "frac"},
    {"sim.run_for_frac", "frac"},
    {"sim.run_for_calls", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.pending_events_max", "count"},
    {"net.frames_sent", "count"},
    {"net.frames_delivered", "count"},
    {"net.frames_lost", "count"},
    {"net.bytes_on_air", "bytes"},
    {"net.delivery_ratio", "frac"},
    {"net.link.retransmissions", "count"},
    {"net.link.send_failures", "count"},
    {"net.route.forwarded", "count"},
    {"net.route.no_route", "count"},
    {"core.vm.instructions", "count"},
    {"core.vm.slices", "count"},
    {"core.vm.insns_per_slice", "insn/slice"},
    {"core.vm.insns_per_s", "1/s"},
    {"core.vm.errors", "count"},
    {"core.vm.programs_compiled", "count"},
    {"core.vm.template_cache_hit_ratio", "frac"},
    {"tuplespace.writes", "count"},
    {"tuplespace.reads", "count"},
    {"core.migration.transfers", "count"},
    {"core.migration.messages", "count"},
    {"core.migration.hop_failures", "count"},
    {"core.migration.hop_success_ratio", "frac"},
    {"core.remote_ts.requests", "count"},
    {"core.remote_ts.retransmissions", "count"},
    {"core.remote_ts.timeouts", "count"},
    {"core.remote_ts.completion_ratio", "frac"},
    {"svc.pump_frac", "frac"},
    {"svc.pump_calls", "count"},
    {"svc.wire_frac", "frac"},
    {"svc.transport_frac", "frac"},
    {"svc.frames_in", "count"},
    {"svc.frames_out", "count"},
    {"svc.bytes_out", "bytes"},
    {"svc.events_sent", "count"},
    {"svc.events_dropped", "count"},
    {"svc.event_delivery_ratio", "frac"},
    {"trace.overhead_frac", "frac"},
};

constexpr const char* kWorkloads[] = {"fire_sweep", "lifetime_100",
                                      "agent_dense", "gateway_1k"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool self_test = false;
  std::size_t shards = 0;
  std::string label = "unlabelled";
  std::string trace_dir;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  if (name == "fire_sweep") {
    return make_fire_sweep(config);
  }
  if (name == "lifetime_100") {
    return make_lifetime(config);
  }
  if (name == "agent_dense") {
    return make_agent_dense(config);
  }
  if (name == "gateway_1k") {
    return make_gateway(config);
  }
  return nullptr;
}

// ---------------------------------------------------------------- output

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Ops per second of each window of at least kRateWindow, cut at the
/// reps' progress checkpoints; a window never spans two reps.
std::vector<double> window_rates(const std::vector<RepResult>& reps) {
  std::vector<double> rates;
  for (const RepResult& rep : reps) {
    Tick t0 = 0;
    std::uint64_t n0 = 0;
    for (const auto& [t, n] : rep.progress) {
      if (t - t0 >= kRateWindow) {
        rates.push_back(static_cast<double>(n - n0) / tick_to_sec(t - t0));
        t0 = t;
        n0 = n;
      }
    }
  }
  return rates;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    line += (i == 0 ? "\"" : ", \"") + std::string(def.name) +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" +
            def.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ------------------------------------------------------------- self-test

bool self_test() {
  bool ok = true;
  const auto expect = [&ok](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-12) {
      std::fprintf(stderr, "self-test: %s = %.17g, want %.17g\n", what, got,
                   want);
      ok = false;
    }
  };
  expect("median{3,1,2}", median({3, 1, 2}), 2.0);
  expect("median{4,1,3,2}", median({4, 1, 3, 2}), 2.5);
  // Reference values from Python's statistics.quantiles(data, n=4).
  const std::array<double, 3> q10 =
      quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect("q1[1..10]", q10[0], 2.75);
  expect("q2[1..10]", q10[1], 5.5);
  expect("q3[1..10]", q10[2], 8.25);
  const std::array<double, 3> q2 = quartiles({1, 2});
  expect("q1[1,2]", q2[0], 0.75);
  expect("q3[1,2]", q2[2], 2.25);
  const std::array<double, 3> q5 = quartiles({5, 1, 4, 2, 3});
  expect("q1[5,1,4,2,3]", q5[0], 1.5);
  expect("q3[5,1,4,2,3]", q5[2], 4.5);
  expect("p90[1..5]", percentile({1, 2, 3, 4, 5}, 90), 4.6);
  expect("p99[10]", percentile({10}, 99), 10.0);
  expect("p0[3,1,2]", percentile({3, 1, 2}, 0), 1.0);
  // FNV-1a 64 published test vectors.
  const auto fnv = [](const char* text) {
    Digest d;
    d.add(std::string_view(text));
    return d.value();
  };
  const std::pair<const char*, std::uint64_t> vectors[] = {
      {"", 0xcbf29ce484222325ULL},
      {"a", 0xaf63dc4c8601ec8cULL},
      {"foobar", 0x85944171f73967e8ULL}};
  for (const auto& [text, want] : vectors) {
    if (fnv(text) != want) {
      std::fprintf(stderr, "self-test: fnv1a(\"%s\") = %s\n", text,
                   hex64(fnv(text)).c_str());
      ok = false;
    }
  }
  expect("tick round trip", tick_to_sec(sec_to_tick(1.5)), 1.5);
  return ok;
}

// ------------------------------------------------------------- one run

struct SpanReport {
  std::map<std::string, SpanTotals> totals;
  std::map<std::string, Tick> accumulated;
  std::vector<double> build_s;
  std::vector<double> command_s;  ///< sampled gateway command spans
  std::uint64_t dropped = 0;      ///< spans past a full buffer
};

SpanReport summarize(const std::vector<RepResult>& traced) {
  SpanReport report;
  for (const RepResult& rep : traced) {
    for (const auto& [name, t] : span_totals(rep.trace)) {
      SpanTotals& sum = report.totals[name];
      sum.count += t.count;
      sum.total += t.total;
      sum.self += t.self;
    }
    for (const auto& [name, tick] : rep.trace.accumulated) {
      report.accumulated[name] += tick;
    }
    for (const double s : span_seconds(rep.trace, "api.build")) {
      report.build_s.push_back(s);
    }
    for (const double s : span_seconds(rep.trace, "svc.command")) {
      report.command_s.push_back(s);
    }
    for (const ThreadTrace& thread : rep.trace.threads) {
      report.dropped += thread.dropped;
    }
  }
  return report;
}

std::vector<std::pair<MetricDef, double>> per_layer_metrics(
    const std::vector<RepResult>& plain, const std::vector<RepResult>& traced,
    const SpanReport& spans) {
  const Counts& c = traced.front().counts;
  const auto count = [&c](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto span_s = [&spans](const char* name) {
    const auto it = spans.totals.find(name);
    return it == spans.totals.end() ? 0.0 : tick_to_sec(it->second.total);
  };
  const auto accumulated_s = [&spans](const char* name) {
    const auto it = spans.accumulated.find(name);
    return it == spans.accumulated.end() ? 0.0 : tick_to_sec(it->second);
  };
  double measured_traced = 0.0;
  std::vector<double> traced_s;
  std::vector<double> plain_s;
  for (const RepResult& rep : traced) {
    measured_traced += tick_to_sec(rep.measured);
    traced_s.push_back(tick_to_sec(rep.measured));
  }
  for (const RepResult& rep : plain) {
    plain_s.push_back(tick_to_sec(rep.measured));
  }
  // Per traced rep, so the run_for and VM rates use the same reps' time.
  const double run_for_s = span_s("sim.run_for");
  const double events = count("sim.events") * static_cast<double>(traced.size());
  const double insns = count("core.vm.instructions_measured") *
                       static_cast<double>(traced.size());

  std::map<std::string, double> v;
  v["api.build_s"] = median(spans.build_s);
  v["harness.worker_busy_frac"] =
      ratio(span_s("harness.trial"),
            count("harness.threads") * span_s("harness.run_experiment"));
  v["sim.run_for_frac"] = ratio(run_for_s, measured_traced);
  v["sim.events_per_s"] = ratio(events, run_for_s);
  v["net.delivery_ratio"] =
      ratio(count("net.frames_delivered"),
            count("net.frames_delivered") + count("net.frames_lost"));
  v["core.vm.insns_per_slice"] =
      ratio(count("core.vm.instructions"), count("core.vm.slices"));
  v["core.vm.insns_per_s"] = ratio(insns, run_for_s);
  v["core.vm.template_cache_hit_ratio"] =
      ratio(count("core.vm.cache_hits"),
            count("core.vm.cache_hits") + count("core.vm.programs_compiled"));
  v["core.migration.hop_success_ratio"] =
      ratio(count("core.migration.hops_completed"),
            count("core.migration.hops_completed") +
                count("core.migration.hop_failures"));
  v["core.remote_ts.completion_ratio"] =
      ratio(count("core.remote_ts.completions"),
            count("core.remote_ts.completions") +
                count("core.remote_ts.timeouts"));
  v["svc.pump_frac"] = ratio(span_s("svc.pump"), measured_traced);
  v["svc.wire_frac"] = ratio(accumulated_s("svc.wire"), measured_traced);
  v["svc.transport_frac"] =
      ratio(accumulated_s("svc.transport"), measured_traced);
  v["svc.event_delivery_ratio"] =
      ratio(count("svc.events_sent"),
            count("svc.events_sent") + count("svc.events_dropped"));
  v["trace.overhead_frac"] = ratio(median(traced_s), median(plain_s)) - 1.0;

  std::vector<std::pair<MetricDef, double>> out;
  for (const MetricDef& def : kPerLayer) {
    const auto it = v.find(def.name);
    out.emplace_back(def, it != v.end() ? it->second : count(def.name));
  }
  return out;
}

void print_span_table(const SpanReport& spans) {
  // Self times partition the recorded time of every thread.
  Tick recorded = 0;
  for (const auto& [name, t] : spans.totals) {
    recorded += t.self;
  }
  std::printf("per-layer host time over the traced reps (self = span minus "
              "its children; self %% of all threads' recorded time):\n");
  std::printf("  %-26s %10s %12s %12s %8s\n", "span", "count", "total s",
              "self s", "self %");
  for (const auto& [name, t] : spans.totals) {
    std::printf("  %-26s %10llu %12.6f %12.6f %7.2f%%\n", name.c_str(),
                static_cast<unsigned long long>(t.count), tick_to_sec(t.total),
                tick_to_sec(t.self),
                100.0 * ratio(static_cast<double>(t.self),
                              static_cast<double>(recorded)));
  }
  for (const auto& [name, tick] : spans.accumulated) {
    std::printf("  %-26s %10s %12.6f %12s %8s  (accumulated, no spans)\n",
                name.c_str(), "-", tick_to_sec(tick), "-", "-");
  }
  if (spans.dropped != 0) {
    std::printf("  %llu spans dropped: a thread's buffer was full\n",
                static_cast<unsigned long long>(spans.dropped));
  }
  if (!spans.command_s.empty()) {
    std::printf("  svc.command (sampled clients, send to reply): %zu spans, "
                "median %.6f s\n",
                spans.command_s.size(), median(spans.command_s));
  }
}

/// Runs one workload in this process and prints its report. Returns the
/// exit code.
int run_workload(const std::string& name, const Options& options) {
  Config config;
  config.seed = options.seed;
  config.smoke = options.smoke;
  config.shards = options.shards;
  config.agents_dir = BENCH_SUITE_AGENTS_DIR;
  const std::unique_ptr<Workload> workload = make_workload(name, config);

  std::printf("stamp: workload=%s label=%s seed=%llu seconds=%s trace=%d "
              "smoke=%d nproc=%ld compiler=\"%s\" build=release\n",
              name.c_str(), options.label.c_str(),
              static_cast<unsigned long long>(options.seed),
              number(options.seconds).c_str(), options.trace ? 1 : 0,
              options.smoke ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              compiler().c_str());

  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::vector<double> setups;
  const Tick budget = sec_to_tick(options.seconds);
  Tick spent = 0;
  // Peak RSS after the first rep: later reps add allocator churn, and
  // their number depends on the host's speed.
  double peak_rss_mib = 0.0;
  for (int i = 0;; ++i) {
    const bool traced_rep = options.trace && i % 2 == 1;
    trace::set_enabled(traced_rep);
    RepResult rep;
    {
      const trace::Scope root("rep");
      rep = workload->run_rep();
    }
    trace::set_enabled(false);
    if (i == 0) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    if (traced_rep) {
      rep.trace = trace::take();
    } else {
      setups.push_back(rep.setup_s);
    }
    spent += rep.measured;
    std::printf("rep %d%s: setup %.6f s, measured %.6f s, %llu %s, "
                "digest %s\n",
                i + 1, traced_rep ? " (traced)" : "", rep.setup_s,
                tick_to_sec(rep.measured),
                static_cast<unsigned long long>(rep.ops), workload->op_unit(),
                hex64(rep.digest).c_str());
    std::fflush(stdout);
    (traced_rep ? traced : plain).push_back(std::move(rep));
    const bool enough = options.trace
                            ? !traced.empty() && traced.size() == plain.size()
                            : plain.size() >= 2;
    if (enough && spent >= budget) {
      break;
    }
  }
  while (!options.trace && setups.size() < kMinSetups) {
    setups.push_back(workload->setup_only());
  }

  // Correctness gates.
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const RepResult& first = plain.front();
  for (const std::vector<RepResult>* reps : {&plain, &traced}) {
    for (const RepResult& rep : *reps) {
      attempted += rep.attempted;
      failed += rep.failed;
      errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
      if (rep.digest != first.digest) {
        errors.push_back("outcome digests differ across reps");
      }
      if (rep.counts != first.counts) {
        errors.push_back(reps == &traced
                             ? "per-layer counts differ between traced and "
                               "untraced reps"
                             : "per-layer counts differ across reps");
      }
    }
  }
  std::printf("outcome_digest: %s\n", hex64(first.digest).c_str());

  std::vector<std::pair<MetricDef, double>> metrics;
  if (options.trace) {
    const SpanReport spans = summarize(traced);
    print_span_table(spans);
    metrics = per_layer_metrics(plain, traced, spans);
    if (!options.trace_dir.empty()) {
      std::filesystem::create_directories(options.trace_dir);
      const std::string path = options.trace_dir + "/" + name + ".trace.json";
      std::vector<const TraceData*> data;
      for (const RepResult& rep : traced) {
        data.push_back(&rep.trace);
      }
      if (write_chrome_trace(path, data)) {
        std::printf("trace: %s (Chrome trace-event JSON; open in "
                    "https://ui.perfetto.dev)\n",
                    path.c_str());
      } else {
        errors.push_back("cannot write " + path);
      }
    }
  } else {
    std::uint64_t ops = 0;
    double measured = 0.0;
    std::vector<double> op_ms;
    for (const RepResult& rep : plain) {
      ops += rep.ops;
      measured += tick_to_sec(rep.measured);
      for (const std::uint32_t ns : rep.op_ns) {
        op_ms.push_back(static_cast<double>(ns) * 1e-6);
      }
    }
    std::vector<double> rates = window_rates(plain);
    if (rates.empty()) {
      rates.push_back(ratio(static_cast<double>(ops), measured));
    }
    const double values[] = {
        median(setups),
        peak_rss_mib,
        median(rates),
        percentile(op_ms, 50.0),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
    // The tail and the plain average are reported, not bounded: on a
    // shared host they move with the neighbours' load (README.md).
    const std::array<double, 3> rate_q = quartiles(rates);
    const std::array<double, 3> op_q = quartiles(op_ms);
    std::printf("samples: %zu setups; %zu rate windows, quartiles %.6g %.6g "
                "%.6g ops/s; %zu op times (%s), quartiles %.6g %.6g %.6g ms, "
                "p%g %.6g ms; %llu ops in %.3f measured s = %.6g ops/s\n",
                setups.size(), rates.size(), rate_q[0], rate_q[1], rate_q[2],
                op_ms.size(), workload->op_unit(), op_q[0], op_q[1], op_q[2],
                workload->tail_percentile(),
                percentile(op_ms, workload->tail_percentile()),
                static_cast<unsigned long long>(ops), measured,
                ratio(static_cast<double>(ops), measured));
  }
  for (const auto& [def, value] : metrics) {
    std::printf("  %-34s %18s %s\n", def.name, number(value).c_str(),
                def.unit);
  }
  for (const std::string& error : errors) {
    std::printf("GATE FAILED: %s\n", error.c_str());
  }
  print_result(errors.empty(), attempted, failed, metrics);
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

/// Runs `body` in a forked child (peak RSS is per child) and returns its
/// exit code; 5 when it crashed or missed the deadline.
int in_child(const std::function<int()>& body) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_suite: fork");
    return 5;
  }
  if (pid == 0) {
    int code = 5;
    try {
      code = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: %s\n", e.what());
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(kChildDeadlineS);
  int status = 0;
  for (;;) {
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      break;
    }
    if (done < 0 || std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "bench_suite: child timed out, killing it\n");
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return 5;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  std::fprintf(stderr, "bench_suite: child died (signal %d)\n",
               WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  return 5;
}

/// Every workload at toy size through the same code paths (traced and
/// untraced reps, gates, trace output), plus lifetime's digest at
/// sim_shards 1 and 2.
int run_smoke(const Options& base) {
  int worst = 0;
  for (const char* name : kWorkloads) {
    Options options = base;
    options.workload = name;
    options.trace = true;
    options.seconds = 0.0;
    const int code = in_child([&] { return run_workload(name, options); });
    worst = std::max(worst, code);
  }
  const int shards = in_child([&] {
    std::uint64_t digests[2] = {};
    for (std::size_t k = 1; k <= 2; ++k) {
      Config config;
      config.seed = base.seed;
      config.smoke = true;
      config.shards = k;
      digests[k - 1] = make_lifetime(config)->run_rep().digest;
    }
    std::printf("lifetime digest at sim_shards 1: %s, at 2: %s\n",
                hex64(digests[0]).c_str(), hex64(digests[1]).c_str());
    return digests[0] == digests[1] ? 0 : 1;
  });
  worst = std::max(worst, shards);
  std::printf("smoke: %s\n", worst == 0 ? "PASS" : "FAIL");
  return worst;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite --workload NAME --seed N --seconds S "
               "--trace 0|1 [--label TEXT] [--trace-dir DIR] [--shards N]\n"
               "       bench_suite --smoke [--trace-dir DIR]\n"
               "       bench_suite --self-test\n"
               "workloads: fire_sweep lifetime_100 agent_dense gateway_1k\n",
               message);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  const char* end = text + std::strlen(text);
  const auto result = std::from_chars(text, end, *out);
  return result.ec == std::errc() && result.ptr == end && end != text;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (arg == "--self-test") {
      options.self_test = true;
      continue;
    }
    if (value == nullptr) {
      return usage(("missing value for " + arg).c_str());
    }
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed" && parse_u64(value, &n)) {
      options.seed = n;
    } else if (arg == "--seconds" && parse_u64(value, &n) && n <= 120) {
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && parse_u64(value, &n) && n <= 1) {
      options.trace = n == 1;
    } else if (arg == "--shards" && parse_u64(value, &n) && n >= 1 &&
               n <= 256) {
      options.shards = n;
    } else if (arg == "--label") {
      options.label = value;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("bad option " + arg + " " + value).c_str());
    }
  }

  if (!self_test()) {
    std::fprintf(stderr, "bench_suite: self-test FAILED\n");
    return 4;
  }
  if (options.self_test) {
    std::printf("self-test: ok\n");
    return 0;
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "bench_suite: refusing to measure a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 kSanitized ? "sanitized" : "non-NDEBUG");
    return 3;
  }
  if (options.smoke) {
    return run_smoke(options);
  }
  bool known = false;
  for (const char* name : kWorkloads) {
    known = known || options.workload == name;
  }
  if (!known) {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  return in_child([&] { return run_workload(options.workload, options); });
}
