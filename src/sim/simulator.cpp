#include "sim/simulator.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

namespace agilla::sim {

namespace {
constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
constexpr std::uint64_t kStreamSalt = 0x9E3779B97F4A7C15ULL;
}  // namespace

/// Epoch barrier for shard workers: the driving thread publishes a key
/// bound, workers drain their shards up to it, the driver waits for all of
/// them. The mutex hand-off also publishes queue/outbox state both ways.
struct Simulator::WorkerPool {
  WorkerPool(Simulator& sim, std::size_t count) : sim_(sim) {
    threads_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      threads_.emplace_back([this, i] { worker(i); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  void run_epoch(const EventKey& bound) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      bound_ = bound;
      done_ = 0;
      ++epoch_;
    }
    start_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return done_ == threads_.size(); });
  }

 private:
  void worker(std::uint32_t shard) {
    std::uint64_t seen = 0;
    for (;;) {
      EventKey bound;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
        if (stop_) {
          return;
        }
        seen = epoch_;
        bound = bound_;
      }
      sim_.run_shard(shard, bound);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++done_;
      }
      done_cv_.notify_one();
    }
  }

  Simulator& sim_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  EventKey bound_{};
  std::uint64_t epoch_ = 0;
  std::size_t done_ = 0;
  bool stop_ = false;
};

namespace {
thread_local void* tls_exec_ctx = nullptr;
}  // namespace

Simulator::Simulator(std::uint64_t seed) : seed_(seed) {
  streams_.push_back(Stream{Rng(seed), 0, 0});
  shards_.resize(1);
}

Simulator::~Simulator() = default;

Simulator::ExecContext* Simulator::current_context() const {
  auto* ctx = static_cast<ExecContext*>(tls_exec_ctx);
  return (ctx != nullptr && ctx->sim == this) ? ctx : nullptr;
}

SimTime Simulator::now() const {
  const ExecContext* ctx = current_context();
  return ctx != nullptr ? ctx->now : now_;
}

Rng& Simulator::rng() {
  assert(current_context() == nullptr ||
         current_context()->stream == kKernelStream);
  return streams_[kKernelStream].rng;
}

Rng& Simulator::node_rng(NodeId id) {
  const StreamId stream = stream_of(id);
  assert(stream < streams_.size());
  // A node's stream may only be consumed from the kernel (setup, barrier
  // events) or from an event running in that node's own context — anything
  // else would race under sharding and break shard-count invariance.
  assert(current_context() == nullptr ||
         current_context()->stream == kKernelStream ||
         current_context()->stream == stream);
  return streams_[stream].rng;
}

void Simulator::ensure_node_streams(std::size_t count) {
  if (streams_.size() >= count + 1) {
    return;
  }
  assert(!shards_configured_ &&
         "nodes must be added before configure_shards()");
  assert(current_context() == nullptr);
  // No reserve here: nodes arrive one add_node at a time, so an exact
  // reserve per call would reallocate every time. make_grid reserves the
  // whole grid up front (Network::reserve).
  while (streams_.size() < count + 1) {
    const std::uint64_t idx = streams_.size();
    SplitMix64 mix(seed_ ^ (kStreamSalt * idx));
    streams_.push_back(Stream{Rng(mix.next()), 0, 0});
  }
}

EventHandle Simulator::schedule_key(SimTime at, StreamId target,
                                    EventQueue::Callback&& cb) {
  ExecContext* ctx = current_context();
  const StreamId origin = ctx != nullptr ? ctx->stream : kKernelStream;
  assert(target < streams_.size());
  const EventKey key{at, origin, streams_[origin].next_seq++};
  if (ctx == nullptr) {
    // Kernel context: no epoch is running, push straight into the
    // destination queue (kernel events keep their own queue so they can
    // be serialized at epoch barriers).
    EventQueue& queue = target == kKernelStream
                            ? kernel_queue_
                            : shards_[streams_[target].shard].queue;
    return queue.schedule(key, target, std::move(cb));
  }
  assert(target != kKernelStream &&
         "node events must not schedule kernel-stream events");
  const std::uint32_t dest = streams_[target].shard;
  if (dest == ctx->shard) {
    return shards_[dest].queue.schedule(key, target, std::move(cb));
  }
  // Cross-shard: buffer until the epoch barrier. The conservative window
  // is only sound if every cross-shard event lands at least one lookahead
  // ahead of its scheduling event.
  assert(at >= ctx->now + lookahead_ &&
         "cross-shard event inside the lookahead window");
  shards_[ctx->shard].outbox.push_back(
      Outgoing{dest, key, target, std::move(cb)});
  return EventHandle{};
}

EventHandle Simulator::schedule_in(SimTime delay, EventQueue::Callback cb) {
  const ExecContext* ctx = current_context();
  const StreamId target = ctx != nullptr ? ctx->stream : kKernelStream;
  return schedule_key(now() + delay, target, std::move(cb));
}

EventHandle Simulator::schedule_at(SimTime at, EventQueue::Callback cb) {
  assert(at >= now());
  const ExecContext* ctx = current_context();
  const StreamId target = ctx != nullptr ? ctx->stream : kKernelStream;
  return schedule_key(at, target, std::move(cb));
}

EventHandle Simulator::schedule_in(SimTime delay, NodeId affinity,
                                   EventQueue::Callback cb) {
  return schedule_key(now() + delay, stream_of(affinity), std::move(cb));
}

EventHandle Simulator::schedule_at(SimTime at, NodeId affinity,
                                   EventQueue::Callback cb) {
  assert(at >= now());
  return schedule_key(at, stream_of(affinity), std::move(cb));
}

void Simulator::configure_shards(std::size_t shard_count,
                                 std::vector<std::uint32_t> node_shard,
                                 SimTime lookahead) {
  assert(!running_);
  assert(!shards_configured_ && "configure_shards() may be called once");
  assert(node_shard.size() + 1 == streams_.size());
  assert(shards_.size() == 1 && shards_[0].queue.empty() &&
         "node events must not be scheduled before configure_shards()");
  shard_count = std::max<std::size_t>(shard_count, 1);
  assert(shard_count == 1 || lookahead > 0);
  lookahead_ = lookahead;
  shards_ = std::vector<Shard>(shard_count);
  for (std::size_t i = 0; i < node_shard.size(); ++i) {
    assert(node_shard[i] < shard_count);
    streams_[i + 1].shard = node_shard[i];
  }
  shards_configured_ = true;
  if (shard_count > 1) {
    pool_ = std::make_unique<WorkerPool>(*this, shard_count);
  }
}

void Simulator::run_shard(std::uint32_t shard_idx, const EventKey& bound) {
  Shard& shard = shards_[shard_idx];
  ExecContext ctx{this, shard_idx, kKernelStream, now_, EventKey{}, 0};
  tls_exec_ctx = &ctx;
  for (;;) {
    const EventKey* key = shard.queue.peek_key();
    if (key == nullptr || !(*key < bound)) {
      break;
    }
    EventQueue::Fired fired = shard.queue.pop();
    ctx.now = fired.key.time;
    ctx.stream = fired.target;
    ctx.key = fired.key;
    ctx.emitted = 0;
    fired.callback();
    shard.max_executed = fired.key.time;
    ++shard.fired;
  }
  tls_exec_ctx = nullptr;
}

void Simulator::merge_outboxes() {
  for (Shard& shard : shards_) {
    for (Outgoing& out : shard.outbox) {
      // Merge order across outboxes is irrelevant: the destination heap
      // orders by the intrinsic key, which was fixed at schedule time.
      shards_[out.dest_shard].queue.schedule(out.key, out.target,
                                             std::move(out.callback));
    }
    shard.outbox.clear();
  }
}

void Simulator::deliver(const Event& event) {
  ExecContext* ctx = current_context();
  if (ctx == nullptr || shards_.size() == 1) {
    sink_->on_event(event);
    return;
  }
  shards_[ctx->shard].emitted.push_back(
      Emitted{ctx->key, ctx->emitted++, event, {}});
}

void Simulator::defer(EventQueue::Callback call) {
  ExecContext* ctx = current_context();
  if (ctx == nullptr || shards_.size() == 1) {
    call();
    return;
  }
  shards_[ctx->shard].emitted.push_back(
      Emitted{ctx->key, ctx->emitted++, Event{}, std::move(call)});
}

void Simulator::flush_emitted() {
  // The serial engine executes events in key order and an event's records
  // in emission order, so merging the per-shard buffers (each already in
  // that order) by (key, index) replays exactly the K=1 sequence.
  if (std::all_of(shards_.begin(), shards_.end(),
                  [](const Shard& s) { return s.emitted.empty(); })) {
    return;
  }
  std::vector<std::size_t> cursor(shards_.size(), 0);
  for (;;) {
    Emitted* next = nullptr;
    std::size_t from = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (cursor[s] == shards_[s].emitted.size()) {
        continue;
      }
      Emitted& head = shards_[s].emitted[cursor[s]];
      if (next == nullptr ||
          std::tie(head.key, head.index) < std::tie(next->key, next->index)) {
        next = &head;
        from = s;
      }
    }
    if (next == nullptr) {
      break;
    }
    ++cursor[from];
    // The clock follows the replay, so now() inside a sink or deferred
    // call reads the emitting event's time, exactly as at K=1.
    now_ = std::max(now_, next->key.time);
    if (next->call) {
      next->call();
    } else if (sink_ != nullptr) {  // the sink may uninstall itself
      sink_->on_event(next->event);
    }
  }
  for (Shard& shard : shards_) {
    shard.emitted.clear();
  }
}

std::size_t Simulator::drain(SimTime deadline) {
  const EventKey cap = deadline == kMaxTime
                           ? EventKey{kMaxTime,
                                      std::numeric_limits<StreamId>::max(),
                                      std::numeric_limits<std::uint64_t>::max()}
                           : EventKey{deadline + 1, 0, 0};
  std::size_t fired_total = 0;
  running_ = true;
  for (;;) {
    const EventKey* kernel_key = kernel_queue_.peek_key();
    const EventKey* shard_key = nullptr;
    for (Shard& shard : shards_) {
      const EventKey* key = shard.queue.peek_key();
      if (key != nullptr && (shard_key == nullptr || *key < *shard_key)) {
        shard_key = key;
      }
    }
    if (kernel_key != nullptr &&
        (shard_key == nullptr || *kernel_key < *shard_key)) {
      // Kernel events (settle ticks, test/setup events) run serially on
      // the driving thread, with every shard quiescent and every earlier
      // shard event already executed.
      if (kernel_key->time > deadline) {
        break;
      }
      EventQueue::Fired fired = kernel_queue_.pop();
      assert(fired.key.time >= now_);
      now_ = fired.key.time;
      fired.callback();
      ++fired_total;
      continue;
    }
    if (shard_key == nullptr || shard_key->time > deadline) {
      break;
    }
    EventKey bound = cap;
    if (kernel_key != nullptr && *kernel_key < bound) {
      bound = *kernel_key;
    }
    if (shards_.size() > 1) {
      // Conservative window: cross-shard influence costs at least
      // `lookahead_` of virtual latency, so everything below
      // t_min + lookahead is safe to run in parallel.
      const EventKey window{shard_key->time + lookahead_, 0, 0};
      if (window < bound) {
        bound = window;
      }
      pool_->run_epoch(bound);
      merge_outboxes();
      flush_emitted();
    } else {
      run_shard(0, bound);
    }
    for (Shard& shard : shards_) {
      now_ = std::max(now_, shard.max_executed);
      fired_total += std::exchange(shard.fired, std::size_t{0});
    }
  }
  running_ = false;
  return fired_total;
}

std::size_t Simulator::run() { return drain(kMaxTime); }

std::size_t Simulator::run_until(SimTime deadline) {
  const std::size_t fired = drain(deadline);
  if (now_ < deadline) {
    now_ = deadline;
  }
  return fired;
}

std::size_t Simulator::run_for(SimTime duration) {
  return run_until(now_ + duration);
}

std::size_t Simulator::pending_events() const {
  std::size_t total = kernel_queue_.size();
  for (const Shard& shard : shards_) {
    total += shard.queue.size();
  }
  return total;
}

}  // namespace agilla::sim
