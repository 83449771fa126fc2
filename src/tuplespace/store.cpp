#include "tuplespace/store.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace agilla::ts {

LinearTupleStore::LinearTupleStore(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {}

bool LinearTupleStore::insert(const Tuple& tuple) {
  last_op_bytes_ = 0;
  if (tuple.empty()) {
    return false;
  }
  const std::size_t size = tuple.wire_size();
  const std::size_t needed = buffer_.size() + 1 + size;
  if (size > kMaxTupleWireBytes || needed > capacity_) {
    return false;
  }
  if (needed > buffer_.capacity()) {
    // Geometric growth from 16 B (a couple of records), capped.
    const std::size_t grown = std::max<std::size_t>(2 * buffer_.capacity(), 16);
    buffer_.reserve(std::min(capacity_, std::max(grown, needed)));
  }
  // Encode the record inline, then append it: the buffer keeps its own
  // exact growth policy instead of a frame-sized one.
  net::Writer w;
  w.u8(static_cast<std::uint8_t>(size));
  tuple.encode(w);
  buffer_.insert(buffer_.end(), w.data().begin(), w.data().end());
  assert(buffer_.size() == needed);
  records_.push_back(RecordMeta{fingerprint_of(tuple),
                                static_cast<std::uint8_t>(1 + size)});
  last_op_bytes_ = 1 + size;
  return true;
}

TupleRef LinearTupleStore::record_ref(std::size_t offset,
                                      std::size_t size) const {
  return TupleRef(
      std::span<const std::uint8_t>(buffer_.data() + offset + 1, size - 1));
}

std::optional<LinearTupleStore::Found> LinearTupleStore::find(
    const CompiledTemplate& templ) const {
  std::size_t offset = 0;
  std::size_t scanned = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const RecordMeta& meta = records_[i];
    assert(offset + meta.size <= buffer_.size());
    scanned += meta.size;
    if (!templ.key_rejects(meta.fp) &&
        templ.matches(record_ref(offset, meta.size))) {
      last_op_bytes_ = scanned;
      return Found{i, offset, meta.size};
    }
    offset += meta.size;
  }
  last_op_bytes_ = scanned;
  return std::nullopt;
}

std::optional<Tuple> LinearTupleStore::take(const CompiledTemplate& templ) {
  const auto found = find(templ);
  if (!found.has_value()) {
    return std::nullopt;
  }
  std::optional<Tuple> out = templ.hit(record_ref(found->offset, found->size));
  assert(out.has_value());  // insert only writes well-formed records
  // Shift all following tuples forward (paper Sec. 3.2).
  const auto first =
      buffer_.begin() + static_cast<std::ptrdiff_t>(found->offset);
  const auto last = first + static_cast<std::ptrdiff_t>(found->size);
  last_op_bytes_ += static_cast<std::size_t>(buffer_.end() - last);
  buffer_.erase(first, last);
  records_.erase(records_.begin() +
                 static_cast<std::ptrdiff_t>(found->index));
  return out;
}

std::optional<Tuple> LinearTupleStore::read(
    const CompiledTemplate& templ) const {
  const auto found = find(templ);
  if (!found.has_value()) {
    return std::nullopt;
  }
  return templ.hit(record_ref(found->offset, found->size));
}

std::size_t LinearTupleStore::count_matching(
    const CompiledTemplate& templ) const {
  std::size_t count = 0;
  std::size_t offset = 0;
  std::size_t scanned = 0;
  for (const RecordMeta& meta : records_) {
    scanned += meta.size;
    if (!templ.key_rejects(meta.fp) &&
        templ.matches(record_ref(offset, meta.size))) {
      ++count;
    }
    offset += meta.size;
  }
  last_op_bytes_ = scanned;
  return count;
}

std::vector<Tuple> LinearTupleStore::snapshot() const {
  std::vector<Tuple> out;
  out.reserve(records_.size());
  std::size_t offset = 0;
  for (const RecordMeta& meta : records_) {
    auto tuple = record_ref(offset, meta.size).materialize();
    if (tuple.has_value()) {
      out.push_back(std::move(*tuple));
    }
    offset += meta.size;
  }
  return out;
}

void LinearTupleStore::clear() {
  buffer_.clear();
  records_.clear();
  last_op_bytes_ = 0;
}

}  // namespace agilla::ts
