// The instrumentation side of the embedding API. Every externally
// observable state change in a deployment (agent lifecycle, tuple
// operations, radio traffic, node lifecycle, battery settling) is one
// sim::Event record (sim/event.h); an Observer receives them through one
// callback, and the EventBus fans each record out to its observers.
//
// Determinism contract: records reach observers on the driving thread,
// in the serial engine's execution order, whatever sim_shards is — the
// simulator merges shard buffers at every epoch barrier (DESIGN.md
// "Embedding API"). The bus dispatches in subscription order, so any
// metric derived from observer callbacks is a pure function of the
// deployment options and the seed, exactly like the built-in
// NetworkStats counters; tests/test_api.cpp and tests/test_shard_engine.cpp
// prove it across thread and shard counts.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.h"
#include "sim/simulator.h"

namespace agilla::api {

/// Instrumentation interface: override on_event and switch on the kind.
/// Callbacks run on the driving thread, inside the simulator's event loop
/// or at an epoch barrier, with now() equal to the record's `at` — keep
/// them cheap and never schedule or run the simulator from one.
using Observer = sim::EventSink;

/// Fans one record out to every observer that asked for its kind, in
/// subscription order. A Deployment owns one, bound to its simulator: the
/// bus installs itself as the simulator's sink for the kinds its
/// observers want, so a kind nobody wants costs one mask test per emit
/// site.
///
/// Re-entrancy: both calls are safe from inside an observer callback.
/// An observer subscribed mid-dispatch starts receiving immediately
/// (including the record being dispatched); one unsubscribed
/// mid-dispatch receives nothing further, the in-flight record included.
class EventBus final : public sim::EventSink {
 public:
  /// `source` is the simulator whose records the bus relays; nullptr for
  /// a standalone bus fed only through publish().
  explicit EventBus(sim::Simulator* source = nullptr);
  ~EventBus() override;

  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Subscribes `observer` to the record kinds in `kinds` (no ownership
  /// taken; it must outlive the bus or unsubscribe first). Dispatch order
  /// is subscription order. Subscribing an observer again replaces its
  /// mask in place, keeping its dispatch position; an empty mask
  /// unsubscribes it.
  void subscribe(Observer& observer,
                 sim::EventKindMask kinds = sim::kDefaultKinds);
  void unsubscribe(Observer& observer);

  [[nodiscard]] std::size_t observer_count() const;

  /// Delivers `event` to every observer whose mask holds its kind.
  void publish(const sim::Event& event);
  void on_event(const sim::Event& event) override { publish(event); }

 private:
  struct Subscription {
    Observer* observer;  ///< nullptr once unsubscribed mid-dispatch
    sim::EventKindMask kinds;
  };

  /// Installs this bus as the source's sink for the union of its
  /// observers' masks (removes it when nobody listens), so the simulator
  /// builds only records somebody wants.
  void update_source();

  sim::Simulator* source_;
  /// Index-based fan-out tolerating (un)subscription from callbacks:
  /// unsubscribing mid-dispatch nulls the slot (compacted once the
  /// outermost dispatch unwinds); subscribing appends, which the index
  /// loop picks up without invalidating anything.
  std::vector<Subscription> observers_;
  int dispatch_depth_ = 0;
  bool pending_compact_ = false;
};

/// Ready-made observer that counts every default record kind — the "thin
/// metrics subscriber" building block used by tests and examples.
class EventCounter : public Observer {
 public:
  std::uint64_t agent_spawns = 0;
  std::uint64_t agent_kills = 0;
  std::uint64_t agent_migrations = 0;
  std::uint64_t agent_blocks = 0;
  std::uint64_t agent_resumes = 0;
  std::uint64_t tuple_ops = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t beacons = 0;  ///< beacon transmissions (also in frames_tx)
  std::uint64_t nodes_down = 0;
  std::uint64_t nodes_up = 0;
  std::uint64_t battery_settles = 0;

  void on_event(const sim::Event& event) override;
};

}  // namespace agilla::api
