// Reactions (paper Sec. 2.2): an agent registers a template plus the
// address of handler code; when a matching tuple is inserted into the LOCAL
// tuple space the agent is notified. The registry has a fixed byte budget
// (default 400 bytes / 10 reactions, paper Sec. 3.2) and reactions travel
// with the agent on strong migration.
//
// Each template is compiled once at registration (tuple_match.h). Firing
// an insertion scans the (at most ten) entries in registration order, and
// a one-compare fingerprint prefilter, which also checks the arity, skips
// every entry that cannot match before any field-by-field match runs.
#pragma once

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

  /// Removes every reaction owned by `agent_id` (the agent died or left).
  void remove_all(std::uint16_t agent_id);

  /// All reactions whose template matches `tuple`, in registration order:
  /// fingerprint prefilter, then a full match per surviving entry.
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

  Options options_;
  std::vector<Entry> entries_;  // registration order
};

}  // namespace agilla::ts
