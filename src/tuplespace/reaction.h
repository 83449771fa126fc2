// Reactions (paper Sec. 2.2): an agent registers a template plus the
// address of handler code; when a matching tuple is inserted into the LOCAL
// tuple space the agent is notified. The registry has a fixed byte budget
// (default 400 bytes / 10 reactions, paper Sec. 3.2) and reactions travel
// with the agent on strong migration.
//
// Dispatch is keyed, not scanned: each template is compiled once at
// registration (tuple_match.h) and bucketed by arity, so firing an
// insertion looks up one bucket and prefilters the bucket's entries with a
// fingerprint compare before any field-by-field match runs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "tuplespace/tuple.h"
#include "tuplespace/tuple_match.h"

namespace agilla::ts {

struct Reaction {
  std::uint16_t agent_id = 0;
  Template templ;
  std::uint16_t handler_pc = 0;

  friend bool operator==(const Reaction&, const Reaction&) = default;
};

class ReactionRegistry {
 public:
  /// Fixed ledger charge per registered reaction.
  static constexpr std::size_t kBytesPerReaction = 40;

  struct Options {
    std::size_t capacity_bytes = 400;
  };

  ReactionRegistry();
  explicit ReactionRegistry(Options options);

  /// Adds a reaction; fails when the registry is full or the same
  /// (agent, template) pair is already registered. Compiles the template
  /// once, here.
  bool add(Reaction reaction);

  /// Removes the reaction with this agent and template; false if absent.
  bool remove(std::uint16_t agent_id, const Template& templ);

  /// Removes and returns every reaction owned by `agent_id` (used when an
  /// agent migrates or dies), in registration order.
  std::vector<Reaction> extract_all(std::uint16_t agent_id);

  /// All reactions whose template matches `tuple`, in registration order:
  /// one arity-bucket lookup, fingerprint prefilter, then a full match per
  /// surviving entry.
  [[nodiscard]] std::vector<Reaction> matches(const Tuple& tuple) const;

  /// Copies of the reactions owned by `agent_id`, in registration order
  /// (migration images; the agent keeps its registrations).
  [[nodiscard]] std::vector<Reaction> owned_by(std::uint16_t agent_id) const;

  /// Drops every registration (node death: mote RAM is gone).
  void clear();

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const {
    return options_.capacity_bytes / kBytesPerReaction;
  }

 private:
  struct Entry {
    Reaction reaction;
    CompiledTemplate compiled;
  };

  /// Rebuilds by_arity_ from entries_ (after any removal; the registry
  /// holds at most ~10 entries, so rebuild beats bookkeeping).
  void reindex();

  Options options_;
  std::vector<Entry> entries_;  // registration order
  /// Template arity -> indices into entries_, in registration order. A
  /// tuple only ever fires the bucket of its own arity, and arity is
  /// bounded by the wire budget, so the lookup is one indexed load (same
  /// shape as IndexedTupleStore's index).
  std::array<std::vector<std::size_t>, kMaxTupleFields + 1> by_arity_;
};

}  // namespace agilla::ts
