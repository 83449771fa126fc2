// Cross-backend conformance: the same operation sequence driven through
// StoreKind::kLinear and StoreKind::kIndexed via the make_store() seam must
// produce identical observable results, and each backend must honour the
// last_op_bytes_touched() contract documented in store_interface.h
// (insert = record bytes written; probes = record bytes of every candidate
// scanned; take additionally counts bytes moved).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
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

/// A value as Value::decode_padded builds it from a migration image, with
/// whatever halves the image carries, kept by the compact form or not.
Value padded(ValueType type, std::int16_t a, std::int16_t b) {
  net::Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.i16(a);
  w.i16(b);
  w.zeros(1);
  net::Reader r(w.data());
  return Value::decode_padded(r);
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

TEST(StoreConformance, StrayBitValuesStayFindable) {
  // A stored tuple keeps only its fields' compact bytes. A value built
  // with bits the compact form drops (a number's unused half, a sensor
  // byte over 255, as a radio-delivered agent image can carry) is stored
  // as its stored_form(), and a probe for that form must find it, in
  // field 0 and in field 1.
  const Value stray_number = padded(ValueType::kNumber, 5, 7);
  const Value stray_reading = padded(ValueType::kReading, 9, 0x0102);
  const Value stray_designator = padded(ValueType::kReadingType, 0x0203, 4);
  ASSERT_NE(stray_number, Value::number(5));
  const Value reading =
      Value::reading(sim::SensorType::kMicrophone, 9);
  const Value designator =
      Value::reading_type(sim::SensorType::kMagnetometer);
  ASSERT_EQ(stray_reading.stored_form(), reading);
  ASSERT_EQ(stray_designator.stored_form(), designator);

  const std::vector<std::pair<Tuple, Tuple>> cases = {
      {Tuple{stray_number}, Tuple{Value::number(5)}},
      {Tuple{stray_number, Value::string("fil")},
       Tuple{Value::number(5), Value::string("fil")}},
      {Tuple{Value::string("fil"), stray_number},
       Tuple{Value::string("fil"), Value::number(5)}},
      {Tuple{stray_reading, stray_designator}, Tuple{reading, designator}},
      {Tuple{stray_designator, stray_reading, stray_number},
       Tuple{designator, reading, Value::number(5)}},
  };
  for (const StoreKind kind : {StoreKind::kLinear, StoreKind::kIndexed}) {
    for (const auto& [written, kept] : cases) {
      const auto store = make_store(kind, 600);
      ASSERT_TRUE(store->insert(written));
      ASSERT_EQ(store->snapshot(), std::vector<Tuple>{kept});
      Template exact;
      for (const Value& field : kept.fields()) {
        exact.add(field);
      }
      ASSERT_TRUE(exact.matches(store->snapshot()[0]));
      const CompiledTemplate templ(exact);
      EXPECT_EQ(store->read(templ), kept)
          << to_string(kind) << " " << kept.to_string();
      EXPECT_EQ(store->count_matching(templ), 1u)
          << to_string(kind) << " " << kept.to_string();
      EXPECT_EQ(store->take(templ), kept)
          << to_string(kind) << " " << kept.to_string();
      EXPECT_EQ(store->tuple_count(), 0u) << to_string(kind);
    }
  }
}

/// One field for the differential test: a small domain, so stores share
/// tags and templates hit; every fourth number, reading or designator
/// carries stray bits the compact form drops.
Value random_field(sim::Rng& rng) {
  const bool stray = rng.uniform(4) == 0;
  const auto small = [&rng](std::uint64_t n) {
    return static_cast<std::int16_t>(rng.uniform(n));
  };
  switch (rng.uniform(6)) {
    case 0: {
      static constexpr const char* kTags[] = {"fil", "key", "fir"};
      return Value::string(kTags[rng.uniform(3)]);
    }
    case 1:
      return stray ? padded(ValueType::kNumber, small(3), 1 + small(300))
                   : Value::number(small(3));
    case 2: {
      const std::int16_t sensor = small(2);
      return stray ? padded(ValueType::kReading, small(2),
                            static_cast<std::int16_t>(0x100 | sensor))
                   : Value::reading(static_cast<sim::SensorType>(sensor),
                                    small(2));
    }
    case 3:
      return Value::location({static_cast<double>(rng.uniform(2)),
                              static_cast<double>(rng.uniform(2))});
    case 4:
      return Value::agent_id(static_cast<std::uint16_t>(rng.uniform(2)));
    default: {
      const std::int16_t sensor = small(2);
      return stray ? padded(ValueType::kReadingType,
                            static_cast<std::int16_t>(0x300 | sensor),
                            small(9))
                   : Value::reading_type(static_cast<sim::SensorType>(sensor));
    }
  }
}

/// A template over `base`'s arity: each field the base's own value (stray
/// bits and all), a type wildcard, a reading-type field for the base's
/// sensor, or a fresh random value.
Template random_template(sim::Rng& rng, const Tuple& base) {
  Template templ;
  for (const Value& field : base.fields()) {
    switch (rng.uniform(5)) {
      case 0:
      case 1:
        templ.add(field);
        break;
      case 2:
        templ.add(Value::type_wildcard(field.type()));
        break;
      case 3:
        templ.add(Value::reading_type(field.type() == ValueType::kReading
                                          ? field.stored_form().sensor()
                                          : sim::SensorType::kPhoto));
        break;
      default:
        templ.add(random_field(rng));
        break;
    }
  }
  return templ;
}

/// The reference store: a scan over snapshot() with Template::matches,
/// charged by the last_op_bytes_touched() contract. `same_arity_only` is
/// the indexed store's arity bucket; `moves` the linear store's shift.
struct ReferenceScan {
  std::optional<std::size_t> first;  ///< index of the first match
  std::size_t count = 0;
  std::size_t scanned_to_first = 0;  ///< bytes walked by read/take
  std::size_t scanned_all = 0;       ///< bytes walked by count
  std::size_t after_first = 0;       ///< bytes behind the first match
};

ReferenceScan reference_scan(const std::vector<Tuple>& stored,
                             const Template& templ, bool same_arity_only) {
  ReferenceScan ref;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    const std::size_t bytes = record_bytes(stored[i]);
    if (ref.first.has_value()) {
      ref.after_first += bytes;
    }
    if (same_arity_only && stored[i].arity() != templ.arity()) {
      continue;
    }
    ref.scanned_all += bytes;
    if (templ.matches(stored[i])) {
      ++ref.count;
      if (!ref.first.has_value()) {
        ref.first = i;
        ref.scanned_to_first = ref.scanned_all;
      }
    }
  }
  if (!ref.first.has_value()) {
    ref.scanned_to_first = ref.scanned_all;
  }
  return ref;
}

TEST(StoreConformance, ProbesEqualAReferenceScanOfTheSnapshot) {
  // Differential test: seeded stores of 1-4-field tuples (shared tags,
  // stray-bit values, readings, locations) probed with random templates.
  // Every probe must return what a plain scan of snapshot() with
  // Template::matches returns, and charge exactly the bytes that scan
  // walks: the prefilter decides only how cheaply a record is passed.
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (const StoreKind kind : {StoreKind::kLinear, StoreKind::kIndexed}) {
    const bool indexed = kind == StoreKind::kIndexed;
    for (const std::uint64_t seed : {3ULL, 17ULL, 41ULL}) {
      sim::Rng rng(seed);
      const auto store = make_store(kind, 300);
      for (int step = 0; step < 600; ++step) {
        Tuple base;
        const std::size_t arity = 1 + rng.uniform(4);
        for (std::size_t f = 0; f < arity; ++f) {
          base.add(random_field(rng));
        }
        const std::vector<Tuple> stored = store->snapshot();
        if (stored.empty() || rng.uniform(3) == 0) {
          static_cast<void>(store->insert(base));
          continue;
        }
        // Half the templates are drawn from a stored tuple, so they hit.
        const Tuple& shape =
            rng.chance(0.5) ? stored[rng.uniform(stored.size())] : base;
        const Template templ = random_template(rng, shape);
        const CompiledTemplate compiled(templ);
        const ReferenceScan ref = reference_scan(stored, templ, indexed);
        const auto expected = ref.first.has_value()
                                  ? std::optional<Tuple>(stored[*ref.first])
                                  : std::nullopt;
        const std::string what = std::string(to_string(kind)) + " seed " +
                                 std::to_string(seed) + " step " +
                                 std::to_string(step) + " " +
                                 templ.to_string();
        (ref.first.has_value() ? hits : misses) += 1;
        switch (rng.uniform(3)) {
          case 0:
            ASSERT_EQ(store->read(compiled), expected) << what;
            ASSERT_EQ(store->last_op_bytes_touched(), ref.scanned_to_first)
                << what;
            break;
          case 1:
            ASSERT_EQ(store->take(compiled), expected) << what;
            ASSERT_EQ(store->last_op_bytes_touched(),
                      ref.scanned_to_first +
                          (indexed || !ref.first ? 0 : ref.after_first))
                << what;
            break;
          default:
            ASSERT_EQ(store->count_matching(compiled), ref.count) << what;
            ASSERT_EQ(store->last_op_bytes_touched(), ref.scanned_all)
                << what;
            break;
        }
      }
    }
  }
  // The script must exercise both outcomes.
  EXPECT_GT(hits, 100u);
  EXPECT_GT(misses, 100u);
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
