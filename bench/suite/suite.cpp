#include "suite.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>

#include "api/deployment.h"
#include "core/isa.h"
#include "core/vm_dispatch.h"

namespace bench {

// ------------------------------------------------------------- statistics

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::array<double, 3> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto count = static_cast<std::int64_t>(values.size());
  if (count < 2) {
    const double only = values.empty() ? 0.0 : values.front();
    return {only, only, only};
  }
  // statistics.quantiles(data, n=4, method='exclusive'), integer for
  // integer: m = len + 1, j = i*m // n clamped to [1, len-1],
  // delta = i*m - j*n.
  const std::int64_t m = count + 1;
  std::array<double, 3> result{};
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, count - 1);
    const std::int64_t delta = i * m - j * 4;
    result[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] *
             static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return result;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * frac;
}

// ----------------------------------------------------------------- digest

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
  }
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint32_t op_sample(Tick elapsed) {
  return static_cast<std::uint32_t>(std::clamp<Tick>(
      elapsed, 0, std::numeric_limits<std::uint32_t>::max()));
}

// ------------------------------------------------------------------ spans

namespace trace {
namespace {

// Sized for the largest traced repetition (a gateway_1k rep records about
// 4 spans per service turn on the main thread).
constexpr std::size_t kSpanCapacity = 1 << 16;
constexpr std::size_t kAsyncCapacity = 1 << 15;

struct ThreadBuffer {
  ThreadTrace trace;
  std::vector<std::int32_t> open;  ///< open scopes; -1 = dropped span
  std::vector<std::pair<const char*, Tick>> accumulated;
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // g_buffers_mutex
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->open.reserve(64);
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    owned->trace.tid = static_cast<std::uint32_t>(g_buffers.size() + 1);
    t_buffer = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  ThreadBuffer& b = *t_buffer;
  // Preallocate after every take(), so recording itself never allocates.
  if (b.trace.spans.capacity() == 0) {
    b.trace.spans.reserve(kSpanCapacity);
    b.trace.async_spans.reserve(kAsyncCapacity);
  }
  return b;
}

std::int32_t innermost(const std::vector<std::int32_t>& open) {
  for (auto it = open.rbegin(); it != open.rend(); ++it) {
    if (*it >= 0) {
      return *it;
    }
  }
  return -1;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name) {
  if (!enabled()) {
    return;
  }
  ThreadBuffer& b = buffer();
  active_ = true;
  if (b.trace.spans.size() >= kSpanCapacity) {
    ++b.trace.dropped;
    b.open.push_back(-1);
    return;
  }
  index_ = static_cast<std::int32_t>(b.trace.spans.size());
  b.trace.spans.push_back(Span{name, now_tick(), 0, innermost(b.open), -1, -1});
  b.open.push_back(index_);
}

Scope::~Scope() {
  if (!active_) {
    return;
  }
  const Tick end = now_tick();
  ThreadBuffer& b = *t_buffer;
  if (index_ >= 0) {
    b.trace.spans[static_cast<std::size_t>(index_)].end = end;
  }
  b.open.pop_back();
}

void record_async(const char* name, Tick start, Tick end, std::int64_t client,
                  std::int64_t request) {
  if (!enabled()) {
    return;
  }
  ThreadBuffer& b = buffer();
  if (b.trace.async_spans.size() >= kAsyncCapacity) {
    ++b.trace.dropped;
    return;
  }
  b.trace.async_spans.push_back(Span{name, start, end, -1, client, request});
}

void accumulate(const char* name, Tick elapsed) {
  ThreadBuffer& b = buffer();
  for (auto& [key, total] : b.accumulated) {
    if (key == name || std::strcmp(key, name) == 0) {
      total += elapsed;
      return;
    }
  }
  b.accumulated.emplace_back(name, elapsed);
}

TraceData take() {
  TraceData data;
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : g_buffers) {
    for (const auto& [name, total] : b->accumulated) {
      data.accumulated[name] += total;
    }
    b->accumulated.clear();
    if (b->trace.spans.empty() && b->trace.async_spans.empty() &&
        b->trace.dropped == 0) {
      continue;
    }
    data.threads.push_back(std::move(b->trace));
    const std::uint32_t tid = data.threads.back().tid;
    b->trace = ThreadTrace{};
    b->trace.tid = tid;
  }
  return data;
}

}  // namespace trace

std::map<std::string, SpanTotals> span_totals(const TraceData& data) {
  std::map<std::string, SpanTotals> totals;
  for (const ThreadTrace& thread : data.threads) {
    std::vector<Tick> covered(thread.spans.size(), 0);
    for (const Span& span : thread.spans) {
      if (span.parent >= 0) {
        covered[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    for (std::size_t i = 0; i < thread.spans.size(); ++i) {
      const Span& span = thread.spans[i];
      SpanTotals& t = totals[span.name];
      ++t.count;
      t.total += span.end - span.start;
      t.self += span.end - span.start - covered[i];
    }
  }
  return totals;
}

std::vector<double> span_seconds(const TraceData& data,
                                 std::string_view name) {
  std::vector<double> seconds;
  for (const ThreadTrace& thread : data.threads) {
    for (const std::vector<Span>* spans :
         {&thread.spans, &thread.async_spans}) {
      for (const Span& span : *spans) {
        if (name == span.name) {
          seconds.push_back(tick_to_sec(span.end - span.start));
        }
      }
    }
  }
  return seconds;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const TraceData*>& reps) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&]() -> std::ofstream& {
    out << (first ? "" : ",\n");
    first = false;
    return out;
  };
  char buf[512];
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const int pid = static_cast<int>(r + 1);
    Tick t0 = std::numeric_limits<Tick>::max();
    for (const ThreadTrace& thread : reps[r]->threads) {
      for (const Span& s : thread.spans) {
        t0 = std::min(t0, s.start);
      }
      for (const Span& s : thread.async_spans) {
        t0 = std::min(t0, s.start);
      }
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                  "\"args\":{\"name\":\"traced rep %d\"}}",
                  pid, pid);
    sep() << buf;
    const auto us = [t0](Tick t) { return static_cast<double>(t - t0) / 1e3; };
    for (const ThreadTrace& thread : reps[r]->threads) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
                    "\"tid\":%u,\"args\":{\"name\":\"thread %u\"}}",
                    pid, thread.tid, thread.tid);
      sep() << buf;
      for (std::size_t i = 0; i < thread.spans.size(); ++i) {
        const Span& s = thread.spans[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                      "\"parent\":%d}}",
                      s.name, pid, thread.tid, us(s.start),
                      static_cast<double>(s.end - s.start) / 1e3, i,
                      s.parent);
        sep() << buf;
      }
      for (const Span& s : thread.async_spans) {
        // One track per sampled client: its commands never overlap.
        const long long track = 1000000LL + s.client;
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%lld,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"client\":%lld,"
                      "\"request\":%lld}}",
                      s.name, pid, track, us(s.start),
                      static_cast<double>(s.end - s.start) / 1e3,
                      static_cast<long long>(s.client),
                      static_cast<long long>(s.request));
        sep() << buf;
      }
    }
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------- counters

void add_mesh_counts(agilla::api::Deployment& mesh, Counts& counts) {
  using agilla::core::Opcode;
  const agilla::sim::NetworkStats net = mesh.network().stats();
  counts["net.frames_sent"] += net.frames_sent;
  counts["net.frames_delivered"] += net.frames_delivered;
  counts["net.frames_lost"] += net.frames_lost;
  counts["net.bytes_on_air"] += net.bytes_on_air;
  counts["net.node_deaths"] += net.node_deaths;
  counts["net.alive"] += mesh.network().alive_count();
  counts["agents.alive"] += mesh.agent_count();
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    agilla::core::AgillaMiddleware& mote = mesh.mote(i);
    counts["net.link.retransmissions"] += mote.link().stats().retransmissions;
    counts["net.link.send_failures"] += mote.link().stats().send_failures;
    counts["net.route.forwarded"] += mote.router().stats().forwarded;
    counts["net.route.no_route"] += mote.router().stats().no_route;
    const agilla::core::EngineStats& engine = mote.engine().stats();
    counts["core.vm.instructions"] += engine.instructions;
    counts["core.vm.slices"] += engine.slices;
    counts["core.vm.errors"] += engine.vm_errors;
    counts["core.vm.agents_launched"] += engine.agents_launched;
    const auto& cache = mote.engine().dispatcher().cache_stats();
    counts["core.vm.programs_compiled"] += cache.programs_compiled;
    counts["core.vm.cache_hits"] += cache.cache_hits;
    for (const auto& [opcode, profile] : mote.engine().opcode_profile()) {
      switch (static_cast<Opcode>(opcode)) {
        case Opcode::kOut:
        case Opcode::kInp:
        case Opcode::kIn:
          counts["tuplespace.writes"] += profile.count;
          break;
        case Opcode::kRdp:
        case Opcode::kRd:
        case Opcode::kTCount:
          counts["tuplespace.reads"] += profile.count;
          break;
        default:
          break;
      }
    }
    const auto& migration = mote.migration().stats();
    counts["core.migration.transfers"] += migration.transfers_started;
    counts["core.migration.messages"] += migration.messages_sent;
    counts["core.migration.hop_failures"] += migration.hop_failures;
    counts["core.migration.hops_completed"] += migration.hops_completed;
    const auto& remote = mote.remote_ts().stats();
    counts["core.remote_ts.requests"] += remote.requests_sent;
    counts["core.remote_ts.retransmissions"] += remote.retransmissions;
    counts["core.remote_ts.timeouts"] += remote.timeouts;
    counts["core.remote_ts.completions"] += remote.completions;
  }
}

std::uint64_t vm_instructions(agilla::api::Deployment& mesh) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    total += mesh.mote(i).engine().stats().instructions;
  }
  return total;
}

std::uint64_t digest_counts(const Counts& counts) {
  Digest digest;
  for (const auto& [name, value] : counts) {
    digest.add(name);
    digest.add(value);
  }
  return digest.value();
}

void measure_steps(agilla::api::Deployment& mesh, int steps, RepResult& rep) {
  agilla::sim::Simulator& sim = mesh.simulator();
  std::uint64_t events = 0;
  std::uint64_t pending_max = 0;
  const std::uint64_t insns_before = vm_instructions(mesh);
  const Tick start = now_tick();
  {
    const trace::Scope measure("measure");
    for (int step = 0; step < steps; ++step) {
      const Tick step_start = now_tick();
      {
        const trace::Scope span("sim.run_for");
        events += sim.run_for(agilla::sim::kSecond);
      }
      const Tick step_end = now_tick();
      rep.op_ns.push_back(op_sample(step_end - step_start));
      rep.progress.emplace_back(step_end - start, step + 1);
      pending_max = std::max<std::uint64_t>(pending_max, sim.pending_events());
    }
  }
  rep.measured = now_tick() - start;
  rep.ops = static_cast<std::uint64_t>(steps);
  rep.counts["sim.events"] = events;
  rep.counts["sim.run_for_calls"] = rep.ops;
  rep.counts["sim.pending_events_max"] = pending_max;
  add_mesh_counts(mesh, rep.counts);
  rep.counts["core.vm.instructions_measured"] =
      rep.counts["core.vm.instructions"] - insns_before;
}

}  // namespace bench
