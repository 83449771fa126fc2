// The simulation kernel: virtual clock, event loop, and RNG streams —
// optionally sharded across a worker pool.
//
// Execution model (DESIGN.md "Sharded event engine"):
//
//  - Every event belongs to a stream: the kernel stream (0) for setup code,
//    the main thread between run() calls, and global events (battery settle
//    tick); stream n + 1 for node n. Events are ordered by the intrinsic
//    key (time, scheduled-from stream, per-stream seq), so the total order
//    is a property of the events themselves, never of thread arrival.
//  - Streams are grouped into shards (configure_shards). Each shard owns an
//    event queue; kernel events live in a separate queue and always run on
//    the driving thread with no shard concurrently executing.
//  - With one shard (the default) the loop is serial and processes events
//    in exact key order. With K shards, the loop runs barrier epochs: the
//    window [t_min, t_min + lookahead) is safe because any cross-shard
//    event costs at least `lookahead` of virtual latency (the minimum
//    radio frame time, see Network::min_frame_latency). Inside an epoch
//    each shard drains its own queue in key order on a pool worker;
//    cross-shard schedules buffer in per-shard outboxes and merge at the
//    barrier. Because keys are intrinsic, the merged order — and therefore
//    every simulation outcome — is byte-identical for any shard count.
//  - Each stream also owns an RNG: node-affine randomness (MAC jitter,
//    channel loss, churn, the VM rand instruction) draws from node_rng(),
//    keeping draw sequences independent of shard count. The root rng() is
//    for setup and tests only and must not be consumed from node events.
//  - Observation is one path: components emit() sim::Event records to the
//    single installed sink, for the kinds it asked for (one mask test per
//    emit; unwanted records are never built). Inside a K>1 epoch each
//    shard buffers its records tagged (executing event's key, emission
//    index); the barrier merges them by that tag — exactly the serial
//    execution order — and dispatches on the driving thread, so the sink
//    sees the K=1 sequence.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/event.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace agilla::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time: the executing event's timestamp from inside a
  /// callback (shard-local during an epoch), the global clock otherwise.
  [[nodiscard]] SimTime now() const;

  /// The root RNG stream: setup-time draws and tests. Must not be used
  /// from node-context events — those draw from node_rng() so that the
  /// sequence each node sees is independent of shard count.
  [[nodiscard]] Rng& rng();

  /// The node's private RNG stream (derived from the root seed and the
  /// node id). Callable from the kernel context or from an event running
  /// in this node's own stream.
  [[nodiscard]] Rng& node_rng(NodeId id);

  /// Pre-creates streams for nodes [0, count). Called by Network as nodes
  /// are added; setup-time only.
  void ensure_node_streams(std::size_t count);

  /// Room for streams for nodes [0, count), so a topology that knows its
  /// size adds its nodes without reallocating; creates none.
  void reserve_node_streams(std::size_t count) {
    streams_.reserve(count + 1);
  }

  /// Schedule `cb` to run `delay` microseconds from now, in the current
  /// context's stream (kernel when called outside any event).
  EventHandle schedule_in(SimTime delay, EventQueue::Callback cb);

  /// Schedule `cb` at absolute virtual time `at` (must be >= now()).
  EventHandle schedule_at(SimTime at, EventQueue::Callback cb);

  /// Schedule `cb` to run in node `affinity`'s stream — required when the
  /// scheduling context is not the node itself (setup code, kernel events,
  /// or another node's event, e.g. frame delivery at a receiver). A
  /// cross-shard schedule must land at least `lookahead` ahead of the
  /// scheduling event and returns an inert handle (it cannot be
  /// cancelled from another shard).
  EventHandle schedule_in(SimTime delay, NodeId affinity,
                          EventQueue::Callback cb);
  EventHandle schedule_at(SimTime at, NodeId affinity,
                          EventQueue::Callback cb);

  /// Partitions node streams into `shard_count` shards (node_shard[i] is
  /// node i's shard) and fixes the conservative lookahead window. Call
  /// once, after all nodes exist and before any node-affine event is
  /// scheduled. Shard counts > 1 spawn a persistent worker pool.
  void configure_shards(std::size_t shard_count,
                        std::vector<std::uint32_t> node_shard,
                        SimTime lookahead);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }
  [[nodiscard]] std::uint32_t shard_of(NodeId id) const {
    assert(stream_of(id) < streams_.size());
    return streams_[stream_of(id)].shard;
  }

  /// Run events until the queue drains. Returns the number of events run.
  std::size_t run();

  /// Run events with time <= deadline; the clock ends at `deadline` even if
  /// the queue drained earlier. Returns the number of events run.
  std::size_t run_until(SimTime deadline);

  /// Convenience: run_until(now() + duration).
  std::size_t run_for(SimTime duration);

  /// True while the event loop is executing events.
  [[nodiscard]] bool running() const { return running_; }

  /// Live scheduled events across all queues (exact; cancelled events do
  /// not count). Call between run() calls, not from inside events.
  [[nodiscard]] std::size_t pending_events() const;

  /// Installs the observation sink for the record kinds in `kinds`
  /// (nullptr or an empty mask removes it). Driving thread only: setup,
  /// between run() calls, or from inside the sink itself.
  void set_sink(EventSink* sink, EventKindMask kinds = kDefaultKinds) {
    sink_ = kinds != 0 ? sink : nullptr;
    kinds_ = sink_ != nullptr ? kinds : 0;
  }

  /// True while the sink wants records of `kind`; emitters that must
  /// build a costly payload check this first.
  [[nodiscard]] bool observes(EventKind kind) const {
    return (kinds_ & mask_of(kind)) != 0;
  }

  /// Emits one record: a no-op unless the sink wants its kind; dispatched
  /// synchronously from kernel context or with one shard; buffered and
  /// replayed in serial order at the next barrier inside a K>1 epoch.
  void emit(const Event& event) {
    if (observes(event.kind)) {
      deliver(event);
    }
  }

  /// Runs a host-side effect of the current event (a gateway reply, say)
  /// at its place in the same serial order as emit(): at once from
  /// kernel context or with one shard, at the next barrier, on the
  /// driving thread, inside a K>1 epoch.
  void defer(EventQueue::Callback call);

 private:
  struct Stream {
    Rng rng;
    std::uint64_t next_seq = 0;
    std::uint32_t shard = 0;
  };

  /// A cross-shard (or kernel-scheduled-into-shard) event waiting for the
  /// epoch barrier to be merged into its destination queue.
  struct Outgoing {
    std::uint32_t dest_shard;
    EventKey key;
    StreamId target;
    EventQueue::Callback callback;
  };

  /// A record (or deferred call) from inside a K>1 epoch, tagged with its
  /// serial position.
  struct Emitted {
    EventKey key;         ///< the emitting event's intrinsic key
    std::uint32_t index;  ///< emission order within that event
    Event event;
    EventQueue::Callback call;  ///< set for defer(), empty for emit()
  };

  /// Cache-line aligned: each worker writes its shard's counters on every
  /// event, and a neighbour sharing the line would slow both down.
  struct alignas(64) Shard {
    EventQueue queue;
    std::vector<Outgoing> outbox;
    std::vector<Emitted> emitted;
    SimTime max_executed = 0;
    std::size_t fired = 0;
  };

  struct WorkerPool;

  /// Per-thread execution state during an epoch (worker threads and the
  /// inline single-shard path).
  struct ExecContext {
    Simulator* sim = nullptr;
    std::uint32_t shard = 0;
    StreamId stream = kKernelStream;
    SimTime now = 0;
    EventKey key;               ///< the executing event's key
    std::uint32_t emitted = 0;  ///< records it has emitted so far
  };

  [[nodiscard]] ExecContext* current_context() const;
  EventHandle schedule_key(SimTime at, StreamId target,
                           EventQueue::Callback&& cb);
  std::size_t drain(SimTime deadline);
  /// Executes shard events with key < bound; worker body and the inline
  /// single-shard path.
  void run_shard(std::uint32_t shard, const EventKey& bound);
  void merge_outboxes();
  void deliver(const Event& event);
  /// Dispatches the epoch's buffered records and deferred calls, k-way
  /// merged by tag.
  void flush_emitted();

  std::uint64_t seed_;
  EventQueue kernel_queue_;
  std::vector<Stream> streams_;  ///< [0] = kernel, [n+1] = node n
  std::vector<Shard> shards_;
  SimTime lookahead_ = 0;
  SimTime now_ = 0;
  bool running_ = false;
  bool shards_configured_ = false;
  EventSink* sink_ = nullptr;
  EventKindMask kinds_ = 0;  ///< non-zero only while sink_ is set
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace agilla::sim
