#include "tuplespace/tuple_space.h"

#include <algorithm>

#include "sim/simulator.h"

namespace agilla::ts {

std::unique_ptr<TupleStore> make_store(StoreKind kind,
                                       std::size_t capacity_bytes) {
  switch (kind) {
    case StoreKind::kIndexed:
      return std::make_unique<IndexedTupleStore>(capacity_bytes);
    case StoreKind::kLinear:
      break;
  }
  return std::make_unique<LinearTupleStore>(capacity_bytes);
}

const char* to_string(StoreKind kind) {
  switch (kind) {
    case StoreKind::kIndexed:
      return "indexed";
    case StoreKind::kLinear:
      break;
  }
  return "linear";
}

std::optional<StoreKind> store_kind_from_string(std::string_view name) {
  if (name == "linear") {
    return StoreKind::kLinear;
  }
  if (name == "indexed") {
    return StoreKind::kIndexed;
  }
  return std::nullopt;
}

TupleSpace::TupleSpace() : TupleSpace(Options{}) {}

TupleSpace::TupleSpace(Options options, sim::Simulator* sim,
                       sim::NodeId node, Listener* listener)
    : store_(make_store(options.store_kind, options.store_capacity_bytes)),
      registry_(options.registry),
      listener_(listener),
      sim_(sim),
      node_(node) {}

void TupleSpace::emit(sim::TupleOp op, const Tuple& tuple) const {
  static_assert(sim::kEventTupleBytes == kMaxTupleWireBytes);
  if (sim_ == nullptr || !sim_->observes(sim::EventKind::kTupleOp)) {
    return;
  }
  sim::Event event(sim::EventKind::kTupleOp, sim_->now(), node_);
  event.tuple_op = op;
  net::Writer w;
  tuple.encode(w);
  event.tuple_len = static_cast<std::uint8_t>(w.size());
  std::copy(w.data().begin(), w.data().end(), event.tuple.begin());
  sim_->emit(event);
}

bool TupleSpace::out(const Tuple& tuple) {
  if (!store_->insert(tuple)) {
    return false;
  }
  if (listener_ != nullptr) {
    // Snapshot first: a reaction handler may register/deregister.
    const std::vector<Reaction> fired = registry_.matches(tuple);
    for (const Reaction& r : fired) {
      listener_->on_reaction(r, tuple);
    }
    listener_->on_tuple_inserted(tuple);
  }
  emit(sim::TupleOp::kOut, tuple);
  return true;
}

std::optional<Tuple> TupleSpace::inp(const CompiledTemplate& templ) {
  std::optional<Tuple> taken = store_->take(templ);
  if (taken.has_value()) {
    emit(sim::TupleOp::kInp, *taken);
  }
  return taken;
}

std::optional<Tuple> TupleSpace::rdp(const CompiledTemplate& templ) const {
  return store_->read(templ);
}

std::size_t TupleSpace::tcount(const CompiledTemplate& templ) const {
  return store_->count_matching(templ);
}

bool TupleSpace::register_reaction(Reaction reaction) {
  return registry_.add(std::move(reaction));
}

bool TupleSpace::deregister_reaction(std::uint16_t agent_id,
                                     const Template& templ) {
  return registry_.remove(agent_id, templ);
}

}  // namespace agilla::ts
