#include "tuplespace/indexed_store.h"

#include <algorithm>
#include <cassert>

namespace agilla::ts {

IndexedTupleStore::IndexedTupleStore(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {}

bool IndexedTupleStore::insert(const Tuple& tuple) {
  last_op_bytes_ = 0;
  if (tuple.empty()) {
    return false;
  }
  const std::size_t size = tuple.wire_size();
  if (size > kMaxTupleWireBytes || used_ + 1 + size > capacity_) {
    return false;
  }
  Entry entry;
  net::Writer w;
  tuple.encode(w);
  assert(w.size() == size && size <= entry.wire.size());
  std::copy(w.data().begin(), w.data().end(), entry.wire.begin());
  entry.wire_len = static_cast<std::uint8_t>(size);
  entry.fp = fingerprint_of(tuple);
  entry.live = true;
  // wire-budget invariant: a storable tuple has at most kMaxTupleFields
  // fields, so the arity always lands in a bucket.
  assert(tuple.arity() < by_arity_.size());
  by_arity_[tuple.arity()].push_back(
      static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back(entry);
  used_ += 1 + size;
  ++live_count_;
  last_op_bytes_ = 1 + size;
  return true;
}

template <typename Visit>
void IndexedTupleStore::scan_bucket(const CompiledTemplate& templ,
                                    Visit&& visit) const {
  std::size_t scanned = 0;
  if (templ.arity() < by_arity_.size()) {
    for (const std::uint32_t index : by_arity_[templ.arity()]) {
      const Entry& entry = entries_[index];
      if (!entry.live) {
        continue;
      }
      scanned += entry.record_bytes();
      if (templ.key_rejects(entry.fp) || !templ.matches(entry.ref())) {
        continue;
      }
      if (visit(index)) {
        break;
      }
    }
  }
  last_op_bytes_ = scanned;
}

std::size_t IndexedTupleStore::find_first(
    const CompiledTemplate& templ) const {
  std::size_t found = kNpos;
  scan_bucket(templ, [&found](std::size_t index) {
    found = index;
    return true;  // first match ends the scan
  });
  return found;
}

std::optional<Tuple> IndexedTupleStore::take(const CompiledTemplate& templ) {
  const std::size_t index = find_first(templ);
  if (index == kNpos) {
    return std::nullopt;
  }
  Entry& entry = entries_[index];
  std::optional<Tuple> out = templ.hit(entry.ref());
  assert(out.has_value());  // insert only writes well-formed records
  entry.live = false;
  used_ -= entry.record_bytes();
  --live_count_;
  ++tombstones_;
  // No memory shift: removal costs only the scan (the headline win over
  // the linear store); amortized compaction keeps the arrays bounded.
  if (tombstones_ > entries_.size() / 2 && tombstones_ > 8) {
    compact();
  }
  return out;
}

std::optional<Tuple> IndexedTupleStore::read(
    const CompiledTemplate& templ) const {
  const std::size_t index = find_first(templ);
  if (index == kNpos) {
    return std::nullopt;
  }
  return templ.hit(entries_[index].ref());
}

std::size_t IndexedTupleStore::count_matching(
    const CompiledTemplate& templ) const {
  std::size_t count = 0;
  scan_bucket(templ, [&count](std::size_t) {
    ++count;
    return false;  // keep scanning: count covers every candidate
  });
  return count;
}

std::vector<Tuple> IndexedTupleStore::snapshot() const {
  std::vector<Tuple> out;
  out.reserve(live_count_);
  for (const Entry& entry : entries_) {
    if (!entry.live) {
      continue;
    }
    auto tuple = entry.ref().materialize();
    if (tuple.has_value()) {
      out.push_back(std::move(*tuple));
    }
  }
  return out;
}

void IndexedTupleStore::clear() {
  entries_.clear();
  for (auto& bucket : by_arity_) {
    bucket.clear();
  }
  used_ = 0;
  live_count_ = 0;
  tombstones_ = 0;
  last_op_bytes_ = 0;
}

void IndexedTupleStore::compact() {
  std::vector<Entry> survivors;
  survivors.reserve(live_count_);
  for (const Entry& entry : entries_) {
    if (entry.live) {
      survivors.push_back(entry);
    }
  }
  entries_ = std::move(survivors);
  for (auto& bucket : by_arity_) {
    bucket.clear();
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    by_arity_[entries_[i].ref().arity()].push_back(
        static_cast<std::uint32_t>(i));
  }
  tombstones_ = 0;
}

}  // namespace agilla::ts
