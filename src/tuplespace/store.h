// The paper's tuple store (Sec. 3.2): tuples live in one linearly-allocated
// byte buffer (default 600 bytes). "When a tuple is removed, all following
// tuples are shifted forward. While this may result in more memory
// swapping, it is simple."
//
// We reproduce the layout faithfully because the Fig. 12 latencies of the
// tuple-space instructions are dominated by exactly this scan/shift work;
// the store reports bytes touched per operation so the VM cost model can
// charge for it. On the host, the buffer is allocated as it fills
// (growing geometrically up to the configured capacity), so a store
// never written to holds no buffer; the capacity rules are the mote's.
// Matching runs zero-copy: a per-record Fingerprint (computed at
// insertion) rejects most candidates with one integer compare, survivors
// are matched in place against their wire bytes (tuple_match.h), and a
// Tuple is only materialized for a hit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tuplespace/store_interface.h"
#include "tuplespace/tuple.h"

namespace agilla::ts {

class LinearTupleStore final : public TupleStore {
 public:
  explicit LinearTupleStore(std::size_t capacity_bytes = 600);

  /// Inserts a tuple at the end of the buffer. Fails (returns false) when
  /// the tuple is empty, exceeds kMaxTupleWireBytes, or does not fit in the
  /// remaining capacity.
  bool insert(const Tuple& tuple) override;

  /// Finds, removes and returns the first matching tuple (Linda `inp`).
  std::optional<Tuple> take(const CompiledTemplate& templ) override;

  /// Finds and copies the first matching tuple (Linda `rdp`).
  [[nodiscard]] std::optional<Tuple> read(
      const CompiledTemplate& templ) const override;

  /// Number of stored tuples matching `templ` (the `tcount` instruction).
  [[nodiscard]] std::size_t count_matching(
      const CompiledTemplate& templ) const override;

  [[nodiscard]] std::size_t tuple_count() const override {
    return records_.size();
  }
  [[nodiscard]] std::size_t used_bytes() const override {
    return buffer_.size();
  }
  [[nodiscard]] std::size_t capacity_bytes() const override {
    return capacity_;
  }

  /// Decoded copy of every stored tuple, in buffer order.
  [[nodiscard]] std::vector<Tuple> snapshot() const override;

  void clear() override;

  /// See the contract in store_interface.h.
  [[nodiscard]] std::size_t last_op_bytes_touched() const override {
    return last_op_bytes_;
  }

 private:
  /// Side-car of one buffer record, aligned with the buffer walk: the
  /// insertion-time fingerprint plus the record size ([len u8] + tuple
  /// bytes), so a scan skips rejected records without touching the buffer.
  struct RecordMeta {
    Fingerprint fp = 0;
    std::uint8_t size = 0;
  };

  struct Found {
    std::size_t index = 0;   // position in records_
    std::size_t offset = 0;  // byte offset of the record in buffer_
    std::size_t size = 0;    // record bytes incl. length prefix
  };

  [[nodiscard]] std::optional<Found> find(const CompiledTemplate& templ) const;

  /// The record's tuple bytes (without the length prefix) as a view.
  [[nodiscard]] TupleRef record_ref(std::size_t offset,
                                    std::size_t size) const;

  // Buffer layout: a sequence of records [len u8][tuple bytes], packed from
  // offset 0; its size is the live data, its allocation at most
  // capacity_. records_ mirrors the record sequence in order.
  std::vector<std::uint8_t> buffer_;
  std::vector<RecordMeta> records_;
  std::size_t capacity_;
  mutable std::size_t last_op_bytes_ = 0;
};

}  // namespace agilla::ts
