#include "tuplespace/reaction.h"

#include <algorithm>

namespace agilla::ts {

ReactionRegistry::ReactionRegistry() : ReactionRegistry(Options{}) {}

ReactionRegistry::ReactionRegistry(Options options) : options_(options) {}

bool ReactionRegistry::add(Reaction reaction) {
  if (entries_.size() >= capacity()) {
    return false;
  }
  const bool exists = std::any_of(
      entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.reaction.agent_id == reaction.agent_id &&
               e.reaction.templ == reaction.templ;
      });
  if (exists) {
    return false;
  }
  CompiledTemplate compiled(reaction.templ);
  entries_.push_back(Entry{std::move(reaction), std::move(compiled)});
  return true;
}

bool ReactionRegistry::remove(std::uint16_t agent_id, const Template& templ) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.reaction.agent_id == agent_id && e.reaction.templ == templ;
      });
  if (it == entries_.end()) {
    return false;
  }
  entries_.erase(it);
  return true;
}

void ReactionRegistry::remove_all(std::uint16_t agent_id) {
  std::erase_if(entries_, [agent_id](const Entry& e) {
    return e.reaction.agent_id == agent_id;
  });
}

std::vector<Reaction> ReactionRegistry::matches(const Tuple& tuple) const {
  std::vector<Reaction> out;
  const Fingerprint fp = fingerprint_of(tuple);
  for (const Entry& entry : entries_) {
    if (!entry.compiled.key_rejects(fp) && entry.compiled.matches(tuple)) {
      out.push_back(entry.reaction);
    }
  }
  return out;
}

std::vector<Reaction> ReactionRegistry::owned_by(
    std::uint16_t agent_id) const {
  std::vector<Reaction> out;
  for (const Entry& entry : entries_) {
    if (entry.reaction.agent_id == agent_id) {
      out.push_back(entry.reaction);
    }
  }
  return out;
}

void ReactionRegistry::clear() { entries_.clear(); }

}  // namespace agilla::ts
