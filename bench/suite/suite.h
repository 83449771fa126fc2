// bench_suite: the committed end-to-end benchmark of the Agilla
// reproduction (bench/suite/README.md has the metric map and the data
// behind each regression bound).
//
// This header holds what the four workloads share: the one tick clock,
// summary statistics, FNV-1a digests, the in-memory span recorder, the
// deterministic counter snapshot of a deployment, and the workload
// interface that bench_suite.cpp runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace agilla::api {
class Deployment;
}

namespace bench {

// ------------------------------------------------------------------ ticks

/// The single time unit of every measurement: steady_clock nanoseconds.
/// Conversions are explicit so a unit is never guessed.
using Tick = std::int64_t;

[[nodiscard]] inline Tick now_tick() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] constexpr Tick sec_to_tick(double seconds) {
  return static_cast<Tick>(seconds * 1e9);
}
[[nodiscard]] constexpr double tick_to_sec(Tick tick) {
  return static_cast<double>(tick) * 1e-9;
}

// ------------------------------------------------------------- statistics

/// Middle value (mean of the two middle values for an even count); 0 for
/// an empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Q1, Q2, Q3 exactly as Python's statistics.quantiles(values, n=4) (its
/// default 'exclusive' method), so the README's spreads can be recomputed
/// from the printed numbers. Needs at least two values.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> values);

/// Linearly interpolated percentile, p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

// ----------------------------------------------------------------- digest

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// FNV-1a 64 over everything added, in order.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::uint64_t value) { add_bytes(&value, sizeof(value)); }
  void add(std::string_view text) { add_bytes(text.data(), text.size()); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

[[nodiscard]] std::string hex64(std::uint64_t value);

// ------------------------------------------------------------------ spans

/// One recorded interval. `parent` indexes the same thread's span list
/// (-1 = a root span). Gateway command spans carry their client and
/// request id; they live on a per-client track instead of a thread stack.
struct Span {
  const char* name = "";
  Tick start = 0;
  Tick end = 0;
  std::int32_t parent = -1;
  std::int64_t client = -1;
  std::int64_t request = -1;
};

/// Everything one thread recorded while tracing was on.
struct ThreadTrace {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
  std::vector<Span> async_spans;
  std::uint64_t dropped = 0;
};

/// What a traced repetition hands back: per-thread spans plus the named
/// accumulators used for calls too hot to record one span each.
struct TraceData {
  std::vector<ThreadTrace> threads;
  std::map<std::string, Tick> accumulated;
};

namespace trace {

/// Spans are recorded only while enabled; when disabled every entry point
/// is one relaxed atomic load.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Records [construction, destruction) as a child of the innermost open
/// scope on this thread.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_ = -1;
  bool active_ = false;
};

/// A span that does not nest on this thread's stack: a gateway command is
/// sent in one service turn and answered in a later one.
void record_async(const char* name, Tick start, Tick end, std::int64_t client,
                  std::int64_t request);

/// Adds `elapsed` to a named per-thread total (no span is kept).
void accumulate(const char* name, Tick elapsed);

/// Moves every thread's recording out; call only while no traced thread
/// runs. Buffers are preallocated per thread, so recording never
/// allocates once a thread has its buffer.
[[nodiscard]] TraceData take();

}  // namespace trace

/// Per span name: count, total time, and self time (each span minus the
/// time its direct children cover). Async spans are not included: they
/// overlap the thread's own spans.
struct SpanTotals {
  std::uint64_t count = 0;
  Tick total = 0;
  Tick self = 0;
};
[[nodiscard]] std::map<std::string, SpanTotals> span_totals(
    const TraceData& data);

/// Durations of every span (async ones included) named `name`, in seconds.
[[nodiscard]] std::vector<double> span_seconds(const TraceData& data,
                                               std::string_view name);

/// Chrome trace-event JSON (loads in Perfetto and chrome://tracing).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const TraceData*>& reps);

// ---------------------------------------------------------------- counters

/// Deterministic layer counters of one repetition, keyed by metric name.
/// A fixed seed gives identical counters whether tracing is on or off.
using Counts = std::map<std::string, std::uint64_t>;

/// Sums every mote's public stats (network, link, routing, engine, VM
/// template cache, opcode profile, migration, remote tuple-space ops).
/// Totals run from the build on.
void add_mesh_counts(agilla::api::Deployment& mesh, Counts& counts);

/// Instructions retired so far across the mesh; workloads subtract the
/// value at the start of the measured phase to get its VM rate.
[[nodiscard]] std::uint64_t vm_instructions(agilla::api::Deployment& mesh);

/// FNV-1a over every counter name and value.
[[nodiscard]] std::uint64_t digest_counts(const Counts& counts);

// --------------------------------------------------------------- workloads

struct Config {
  std::uint64_t seed = 1;
  bool smoke = false;       ///< toy sizes, same code paths
  std::size_t shards = 0;   ///< lifetime_100 sim_shards; 0 = its default
  std::string agents_dir;   ///< where agent_dense's .aga sources live
};

/// One repetition: a set-up (timed on its own) followed by the measured
/// phase and its outcome checks.
struct RepResult {
  double setup_s = 0.0;
  Tick measured = 0;              ///< wall time of the measured phase
  std::uint64_t ops = 0;          ///< units of work completed in it
  std::vector<std::uint32_t> op_ns;  ///< wall time of each unit
  /// (time since the measured phase began, ops completed by then), in
  /// time order: bench_suite.cpp cuts it into windows for ops_per_s.
  std::vector<std::pair<Tick, std::uint64_t>> progress;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Counts counts;
  std::uint64_t digest = 0;       ///< outcome digest (counters included)
  std::vector<std::string> errors;  ///< failed correctness gates
  TraceData trace;                ///< filled by bench_suite.cpp when traced
};

/// The measured phase of the mesh workloads: `steps` calls of
/// run_for(1 virtual s), one op each. Fills the rep's timing, op samples,
/// progress, and counters (sim, then the whole mesh).
void measure_steps(agilla::api::Deployment& mesh, int steps, RepResult& rep);

class Workload {
 public:
  virtual ~Workload() = default;

  /// What one op is, for the printed report ("trial", "virtual s", ...).
  [[nodiscard]] virtual const char* op_unit() const = 0;
  /// Tail percentile printed beside op_ms_p50: the highest with at least
  /// ten samples beyond it in a default-length run.
  [[nodiscard]] virtual double tail_percentile() const = 0;
  virtual RepResult run_rep() = 0;
  /// The set-up alone, for extra setup_s samples; returns seconds.
  virtual double setup_only() = 0;
};

std::unique_ptr<Workload> make_fire_sweep(const Config& config);
std::unique_ptr<Workload> make_lifetime(const Config& config);
std::unique_ptr<Workload> make_agent_dense(const Config& config);
std::unique_ptr<Workload> make_gateway(const Config& config);

/// Saturating nanosecond sample for RepResult::op_ns.
[[nodiscard]] std::uint32_t op_sample(Tick elapsed);

}  // namespace bench
