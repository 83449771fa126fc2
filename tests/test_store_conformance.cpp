// Cross-backend conformance: the same operation sequence driven through
// StoreKind::kLinear and StoreKind::kIndexed via the make_store() seam must
// produce identical observable results, and each backend must honour the
// last_op_bytes_touched() contract documented in store_interface.h
// (insert = record bytes written; probes = record bytes of every candidate
// scanned; take additionally counts bytes moved).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "sim/rng.h"
#include "tuplespace/store_interface.h"

namespace agilla::ts {
namespace {

/// Record bytes of one stored tuple: 1 length byte + encoded fields.
std::size_t record_bytes(const Tuple& t) { return 1 + t.wire_size(); }

Tuple keyed(const char* tag, std::int16_t n) {
  return Tuple{Value::string(tag), Value::number(n)};
}

TEST(StoreConformance, ScriptedSequenceAgreesAcrossBackends) {
  const auto linear = make_store(StoreKind::kLinear, 600);
  const auto indexed = make_store(StoreKind::kIndexed, 600);

  const auto both = [&](auto&& op) {
    op(*linear);
    op(*indexed);
  };

  // Inserts of mixed arity, a read, interleaved takes, a count, a clear,
  // and a refill — one scripted pass over the whole TupleStore surface.
  for (std::int16_t i = 0; i < 8; ++i) {
    both([&](TupleStore& s) { ASSERT_TRUE(s.insert(keyed("fil", i))); });
    both([&](TupleStore& s) {
      ASSERT_TRUE(s.insert(Tuple{Value::number(i)}));
    });
  }
  ASSERT_EQ(linear->tuple_count(), indexed->tuple_count());
  ASSERT_EQ(linear->used_bytes(), indexed->used_bytes());

  const CompiledTemplate fil3(Template{Value::string("fil"),
                                       Value::number(3)});
  ASSERT_EQ(linear->read(fil3), indexed->read(fil3));
  ASSERT_EQ(linear->take(fil3), indexed->take(fil3));
  ASSERT_EQ(linear->take(fil3), std::nullopt);
  ASSERT_EQ(indexed->take(fil3), std::nullopt);

  const CompiledTemplate any_num(
      Template{Value::type_wildcard(ValueType::kNumber)});
  ASSERT_EQ(linear->count_matching(any_num), 8u);
  ASSERT_EQ(indexed->count_matching(any_num), 8u);

  const auto snap_l = linear->snapshot();
  const auto snap_i = indexed->snapshot();
  ASSERT_EQ(snap_l, snap_i);

  both([](TupleStore& s) { s.clear(); });
  ASSERT_EQ(linear->tuple_count(), 0u);
  ASSERT_EQ(indexed->used_bytes(), 0u);
  both([&](TupleStore& s) { ASSERT_TRUE(s.insert(keyed("new", 1))); });
  ASSERT_EQ(linear->read(CompiledTemplate(Template{
                Value::string("new"), Value::type_wildcard(
                                          ValueType::kNumber)})),
            indexed->read(CompiledTemplate(Template{
                Value::string("new"),
                Value::type_wildcard(ValueType::kNumber)})));
}

TEST(StoreConformance, InsertChargesRecordBytesWritten) {
  const Tuple t = keyed("fil", 1);
  for (const StoreKind kind : {StoreKind::kLinear, StoreKind::kIndexed}) {
    const auto store = make_store(kind, 600);
    ASSERT_TRUE(store->insert(t));
    EXPECT_EQ(store->last_op_bytes_touched(), record_bytes(t))
        << to_string(kind);
    // A rejected insert (oversized for remaining capacity) charges 0.
    const auto tiny = make_store(kind, record_bytes(t));
    ASSERT_TRUE(tiny->insert(t));
    ASSERT_FALSE(tiny->insert(t));
    EXPECT_EQ(tiny->last_op_bytes_touched(), 0u) << to_string(kind);
  }
}

TEST(StoreConformance, ProbesChargeEveryCandidateScanned) {
  // All tuples share one arity, so both backends must scan the same
  // candidate set: every record for a miss, records up to and including
  // the match for a hit.
  std::vector<Tuple> stored;
  for (std::int16_t i = 0; i < 6; ++i) {
    stored.push_back(keyed("fil", i));
  }
  const Tuple target = keyed("key", 9);
  stored.push_back(target);

  std::size_t all_bytes = 0;
  for (const Tuple& t : stored) {
    all_bytes += record_bytes(t);
  }

  for (const StoreKind kind : {StoreKind::kLinear, StoreKind::kIndexed}) {
    const auto store = make_store(kind, 600);
    for (const Tuple& t : stored) {
      ASSERT_TRUE(store->insert(t));
    }
    const CompiledTemplate miss(Template{
        Value::string("nop"), Value::type_wildcard(ValueType::kNumber)});
    ASSERT_FALSE(store->read(miss).has_value());
    EXPECT_EQ(store->last_op_bytes_touched(), all_bytes) << to_string(kind);

    const CompiledTemplate hit(Template{
        Value::string("key"), Value::type_wildcard(ValueType::kNumber)});
    ASSERT_TRUE(store->read(hit).has_value());
    // The target sits last: the scan walks every record to reach it.
    EXPECT_EQ(store->last_op_bytes_touched(), all_bytes) << to_string(kind);

    ASSERT_EQ(store->count_matching(hit), 1u);
    EXPECT_EQ(store->last_op_bytes_touched(), all_bytes) << to_string(kind);
  }
}

TEST(StoreConformance, TakeChargesScanPlusBytesMoved) {
  std::vector<Tuple> stored;
  for (std::int16_t i = 0; i < 5; ++i) {
    stored.push_back(keyed("fil", i));
  }
  const std::size_t first_record = record_bytes(stored[0]);
  std::size_t tail_bytes = 0;
  for (std::size_t i = 1; i < stored.size(); ++i) {
    tail_bytes += record_bytes(stored[i]);
  }

  const auto fill = [&](TupleStore& store) {
    for (const Tuple& t : stored) {
      ASSERT_TRUE(store.insert(t));
    }
  };
  const CompiledTemplate first(Template{Value::string("fil"),
                                        Value::number(0)});

  // Linear: removal shifts every byte behind the removed record forward.
  const auto linear = make_store(StoreKind::kLinear, 600);
  fill(*linear);
  ASSERT_TRUE(linear->take(first).has_value());
  EXPECT_EQ(linear->last_op_bytes_touched(), first_record + tail_bytes);

  // Indexed: a tombstone moves nothing; the scan is the whole cost.
  const auto indexed = make_store(StoreKind::kIndexed, 600);
  fill(*indexed);
  ASSERT_TRUE(indexed->take(first).has_value());
  EXPECT_EQ(indexed->last_op_bytes_touched(), first_record);
}

/// Tuples of every record size from 5 to 10 bytes plus two large ones, so
/// a greedy fill can always land on an exact byte count.
std::vector<Tuple> mixed_tuples() {
  const Value n = Value::number(4);
  const Value r = Value::reading(sim::SensorType::kPhoto, 9);
  const Value l = Value::location({3, 7});
  const Value s = Value::string("fir");
  return {
      Tuple{n},                       // 5
      Tuple{s, l, r, n, n},           // 20
      Tuple{r},                       // 6
      Tuple{n, n, n, n, n, n, n, n},  // 26, the largest record
      Tuple{l},                       // 7
      Tuple{s, n},                    // 8
      Tuple{n, r},                    // 9
      Tuple{s, l},                    // 10
  };
}

TEST(StoreConformance, FillsToExactCapacityThenRejects) {
  constexpr std::size_t kCapacity = 600;
  const std::vector<Tuple> pool = mixed_tuples();
  constexpr std::size_t kMinRecord = 5;
  for (const StoreKind kind : {StoreKind::kLinear, StoreKind::kIndexed}) {
    const auto store = make_store(kind, kCapacity);
    EXPECT_EQ(store->capacity_bytes(), kCapacity) << to_string(kind);
    std::vector<Tuple> inserted;
    std::size_t next = 0;
    while (store->used_bytes() < kCapacity) {
      // Take the next pool tuple (in rotation) that leaves either nothing
      // or room for the smallest record.
      const std::size_t left = kCapacity - store->used_bytes();
      std::size_t pick = next;
      while (record_bytes(pool[pick]) != left &&
             record_bytes(pool[pick]) + kMinRecord > left) {
        pick = (pick + 1) % pool.size();
      }
      next = (pick + 1) % pool.size();
      ASSERT_TRUE(store->insert(pool[pick])) << to_string(kind);
      EXPECT_EQ(store->last_op_bytes_touched(), record_bytes(pool[pick]));
      inserted.push_back(pool[pick]);
    }
    EXPECT_EQ(store->used_bytes(), kCapacity) << to_string(kind);
    EXPECT_EQ(store->capacity_bytes(), kCapacity) << to_string(kind);
    EXPECT_FALSE(store->insert(pool[0])) << to_string(kind);
    EXPECT_EQ(store->last_op_bytes_touched(), 0u) << to_string(kind);
    EXPECT_EQ(store->snapshot(), inserted) << to_string(kind);

    store->clear();
    EXPECT_EQ(store->capacity_bytes(), kCapacity) << to_string(kind);
    EXPECT_EQ(store->used_bytes(), 0u) << to_string(kind);
    ASSERT_TRUE(store->insert(pool[1])) << to_string(kind);
    EXPECT_EQ(store->snapshot(), std::vector<Tuple>{pool[1]});
  }
}

/// last_op_bytes_touched() after each op of a seeded out/inp/rdp mix that
/// fills the store past its capacity and drains it again.
std::vector<std::size_t> bytes_touched_trace(StoreKind kind) {
  const std::vector<Tuple> pool = mixed_tuples();
  const auto store = make_store(kind, 600);
  sim::Rng rng(29);
  std::vector<std::size_t> trace;
  for (int step = 0; step < 240; ++step) {
    const Tuple& t = pool[rng.uniform(pool.size())];
    Template exact;
    for (const Value& field : t.fields()) {
      exact.add(field);
    }
    const CompiledTemplate templ(exact);
    // Inserts dominate the first half, probes the second.
    const bool fill = step < 120 ? rng.chance(0.8) : rng.chance(0.2);
    if (fill) {
      static_cast<void>(store->insert(t));
    } else if (rng.chance(0.5)) {
      static_cast<void>(store->take(templ));
    } else {
      static_cast<void>(store->read(templ));
    }
    trace.push_back(store->last_op_bytes_touched());
  }
  return trace;
}

std::vector<std::size_t> parse_trace(const char* text) {
  std::istringstream in(text);
  std::vector<std::size_t> trace;
  for (std::size_t bytes = 0; in >> bytes;) {
    trace.push_back(bytes);
  }
  return trace;
}

TEST(StoreConformance, BytesTouchedTraceIsPinned) {
  // Recorded from the store before its buffer grew on demand: how the
  // buffer is allocated must not change what an op is charged.
  const char* const linear =
      "20 26 8 7 7 26 20 10 9 5 9 6 20 9 5 20 9 10 9 20 8 5 7 7 282 6 8 10 46 "
      "6 20 9 9 26 8 7 20 26 8 6 8 145 7 5 463 6 8 6 10 8 249 125 130 7 9 10 "
      "8 6 125 8 7 9 130 7 6 20 0 7 599 0 590 7 587 7 7 115 0 0 0 596 0 0 5 0 "
      "8 215 0 599 9 7 95 0 0 5 0 600 8 0 33 0 0 0 0 0 0 0 0 0 115 0 0 0 0 "
      "211 0 211 0 0 0 0 115 599 33 0 86 33 120 120 186 589 581 198 20 596 "
      "180 152 172 180 375 570 6 569 360 360 9 570 7 572 160 566 323 198 540 "
      "531 250 523 20 6 8 76 549 69 542 535 528 519 514 6 226 26 539 7 49 526 "
      "49 518 139 20 26 536 20 139 221 529 195 5 508 503 483 476 450 29 440 "
      "29 433 6 434 426 150 188 158 421 26 20 441 20 415 144 415 389 5 394 10 "
      "20 399 135 390 380 371 351 75 325 134 325 315 55 114 295 55 10 114 305 "
      "5 304 298 288 5 284 20 276";
  const char* const indexed =
      "20 26 8 7 7 26 20 10 9 5 9 6 20 9 5 20 9 10 9 20 8 5 7 7 8 6 8 10 26 6 "
      "20 9 9 26 8 7 20 26 8 6 8 25 7 5 25 6 8 6 10 8 73 19 19 7 9 10 8 6 19 "
      "8 7 9 19 7 6 20 0 7 19 0 10 7 19 7 7 9 0 0 0 37 0 0 5 0 8 44 0 20 9 7 "
      "9 0 0 5 0 9 8 0 7 0 0 0 0 0 0 0 0 0 9 0 0 0 0 44 0 44 0 0 0 0 9 53 7 0 "
      "20 7 19 19 35 35 19 39 20 26 35 19 39 35 95 7 6 35 87 87 9 12 7 27 27 "
      "26 87 26 9 44 44 44 20 6 8 9 7 9 7 7 9 31 13 6 19 26 20 7 9 35 9 35 26 "
      "20 26 19 20 26 45 26 45 5 90 20 31 26 37 9 37 9 83 6 35 115 46 37 54 6 "
      "26 20 26 20 110 46 26 26 5 115 10 20 9 37 37 9 20 26 6 0 31 95 20 6 31 "
      "85 6 10 31 6 5 6 95 9 5 17 20 6";
  EXPECT_EQ(bytes_touched_trace(StoreKind::kLinear), parse_trace(linear));
  EXPECT_EQ(bytes_touched_trace(StoreKind::kIndexed), parse_trace(indexed));
}

TEST(StoreConformance, RandomOpSequencesStayInLockstep) {
  // Randomized mirror of the scripted test, via the factory seam (the
  // typed equivalent lives in test_indexed_store.cpp; this one guards the
  // make_store() path the harness and middleware actually use).
  for (const std::uint64_t seed : {11ULL, 23ULL, 59ULL}) {
    sim::Rng rng(seed);
    const auto linear = make_store(StoreKind::kLinear, 300);
    const auto indexed = make_store(StoreKind::kIndexed, 300);
    for (int step = 0; step < 400; ++step) {
      const auto tag = std::string(1, 'a' + rng.uniform(3));
      const auto num = static_cast<std::int16_t>(rng.uniform(5));
      switch (rng.uniform(4)) {
        case 0: {
          const Tuple t = rng.chance(0.5) ? keyed(tag.c_str(), num)
                                          : Tuple{Value::number(num)};
          ASSERT_EQ(linear->insert(t), indexed->insert(t)) << "step " << step;
          break;
        }
        case 1: {
          const CompiledTemplate templ(
              Template{Value::string(tag),
                       Value::type_wildcard(ValueType::kNumber)});
          ASSERT_EQ(linear->take(templ), indexed->take(templ))
              << "step " << step;
          break;
        }
        case 2: {
          const CompiledTemplate templ(Template{Value::number(num)});
          ASSERT_EQ(linear->read(templ), indexed->read(templ))
              << "step " << step;
          break;
        }
        default: {
          const CompiledTemplate templ(
              Template{Value::type_wildcard(ValueType::kString),
                       Value::number(num)});
          ASSERT_EQ(linear->count_matching(templ),
                    indexed->count_matching(templ))
              << "step " << step;
          break;
        }
      }
      ASSERT_EQ(linear->tuple_count(), indexed->tuple_count());
      ASSERT_EQ(linear->used_bytes(), indexed->used_bytes());
      ASSERT_EQ(linear->snapshot(), indexed->snapshot()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace agilla::ts
