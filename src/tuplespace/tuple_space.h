// The per-node Tuple Space Manager (paper Fig. 4): non-blocking operations
// over the local LinearTupleStore, the reaction registry, and notification
// hooks used by the engine to wake blocked agents and fire reactions.
//
// Blocking `in`/`rd` are NOT implemented here — per paper Sec. 3.2 they are
// implemented in the agent layer by retrying `inp`/`rdp` and parking the
// agent on the insertion hook.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sim/event.h"
#include "sim/types.h"
#include "tuplespace/indexed_store.h"
#include "tuplespace/reaction.h"
#include "tuplespace/store.h"

namespace agilla::sim {
class Simulator;
}  // namespace agilla::sim

namespace agilla::ts {

// StoreKind (which TupleStore implementation backs the space) lives in
// store_interface.h next to the make_store() seam.

class TupleSpace {
 public:
  struct Options {
    std::size_t store_capacity_bytes = 600;  ///< paper Sec. 3.2
    ReactionRegistry::Options registry;
    StoreKind store_kind = StoreKind::kLinear;
  };

  /// Told of every successful insertion (the middleware passes it on to
  /// the engine).
  class Listener {
   public:
    /// For each reaction whose template matches a freshly inserted
    /// tuple, with the matched tuple.
    virtual void on_reaction(const Reaction& reaction,
                             const Tuple& tuple) = 0;
    /// After the reactions: the engine wakes agents blocked in `in`/`rd`
    /// so they can re-probe.
    virtual void on_tuple_inserted(const Tuple& tuple) = 0;

   protected:
    ~Listener() = default;
  };

  TupleSpace();
  /// With `sim`, every successful out/inp emits a kTupleOp record for
  /// `node` (after the listener has been told). `listener` may be
  /// nullptr (nobody is told, and reactions are not matched).
  explicit TupleSpace(Options options, sim::Simulator* sim = nullptr,
                      sim::NodeId node = {}, Listener* listener = nullptr);

  /// Linda out: insert. Tells the listener of matching reactions and of
  /// the insertion.
  /// Returns false when the store rejects the tuple (full / oversized).
  bool out(const Tuple& tuple);

  /// Linda inp: non-blocking remove. (Blocking `in` is built on this.)
  /// Probes take a CompiledTemplate (tuple_match.h) — compile once, then
  /// every candidate is fingerprint-filtered and matched against its wire
  /// bytes without allocation.
  std::optional<Tuple> inp(const CompiledTemplate& templ);

  /// Linda rdp: non-blocking copy.
  [[nodiscard]] std::optional<Tuple> rdp(const CompiledTemplate& templ) const;

  /// Number of stored tuples matching the template.
  [[nodiscard]] std::size_t tcount(const CompiledTemplate& templ) const;

  bool register_reaction(Reaction reaction);
  bool deregister_reaction(std::uint16_t agent_id, const Template& templ);
  /// Drops every registration of `agent_id` (the agent died or left).
  void drop_reactions(std::uint16_t agent_id) {
    registry_.remove_all(agent_id);
  }
  /// Drops every registration (node death wipes the mote's RAM).
  void clear_reactions() { registry_.clear(); }
  [[nodiscard]] const ReactionRegistry& reactions() const {
    return registry_;
  }

  [[nodiscard]] const TupleStore& store() const { return *store_; }
  [[nodiscard]] TupleStore& store() { return *store_; }

 private:
  void emit(sim::TupleOp op, const Tuple& tuple) const;

  std::unique_ptr<TupleStore> store_;
  ReactionRegistry registry_;
  Listener* listener_;
  sim::Simulator* sim_;
  sim::NodeId node_;
};

}  // namespace agilla::ts
