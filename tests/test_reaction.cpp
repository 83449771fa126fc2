#include "tuplespace/reaction.h"

#include <gtest/gtest.h>

namespace agilla::ts {
namespace {

Reaction make(std::uint16_t agent, std::int16_t key, std::uint16_t pc) {
  Reaction r;
  r.agent_id = agent;
  r.templ = Template{Value::number(key)};
  r.handler_pc = pc;
  return r;
}

TEST(ReactionRegistry, AddAndMatch) {
  ReactionRegistry reg;
  EXPECT_TRUE(reg.add(make(1, 7, 100)));
  const auto hits = reg.matches(Tuple{Value::number(7)});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].agent_id, 1);
  EXPECT_EQ(hits[0].handler_pc, 100);
  EXPECT_TRUE(reg.matches(Tuple{Value::number(8)}).empty());
}

TEST(ReactionRegistry, DuplicateRegistrationRejected) {
  ReactionRegistry reg;
  EXPECT_TRUE(reg.add(make(1, 7, 100)));
  EXPECT_FALSE(reg.add(make(1, 7, 200)));  // same agent + template
  EXPECT_TRUE(reg.add(make(2, 7, 200)));   // different agent is fine
}

TEST(ReactionRegistry, CapacityIsTenByDefault) {
  // Paper Sec. 3.2: 400 bytes / 10 reactions.
  ReactionRegistry reg;
  EXPECT_EQ(reg.capacity(), 10u);
  for (std::int16_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(reg.add(make(1, i, 0)));
  }
  EXPECT_FALSE(reg.add(make(1, 99, 0)));
}

TEST(ReactionRegistry, RemoveSpecific) {
  ReactionRegistry reg;
  reg.add(make(1, 7, 100));
  reg.add(make(1, 8, 100));
  EXPECT_TRUE(reg.remove(1, Template{Value::number(7)}));
  EXPECT_FALSE(reg.remove(1, Template{Value::number(7)}));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ReactionRegistry, RemoveRequiresMatchingAgent) {
  ReactionRegistry reg;
  reg.add(make(1, 7, 100));
  EXPECT_FALSE(reg.remove(2, Template{Value::number(7)}));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ReactionRegistry, RemoveAllForAgent) {
  ReactionRegistry reg;
  reg.add(make(1, 7, 100));
  reg.add(make(2, 8, 200));
  reg.add(make(1, 9, 300));
  reg.remove_all(1);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.matches(Tuple{Value::number(8)}).size() == 1);
  EXPECT_TRUE(reg.matches(Tuple{Value::number(7)}).empty());
}

TEST(ReactionRegistry, MultipleMatchesInRegistrationOrder) {
  ReactionRegistry reg;
  Reaction wild;
  wild.agent_id = 3;
  wild.templ = Template{Value::type_wildcard(ValueType::kNumber)};
  wild.handler_pc = 50;
  reg.add(make(1, 7, 100));
  reg.add(wild);
  const auto hits = reg.matches(Tuple{Value::number(7)});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].agent_id, 1);
  EXPECT_EQ(hits[1].agent_id, 3);
}

TEST(ReactionRegistry, MixedAritiesFireInRegistrationOrder) {
  // The fingerprint prefilter skips entries of another arity; firing order
  // must still be registration order. Interleave arity-1 and arity-2
  // registrations from several agents so grouping by arity would be
  // detectable.
  ReactionRegistry reg;
  Reaction wild;
  wild.agent_id = 5;
  wild.templ = Template{Value::type_wildcard(ValueType::kNumber)};
  wild.handler_pc = 10;
  Reaction pair;
  pair.agent_id = 6;
  pair.templ = Template{Value::number(7), Value::number(8)};
  pair.handler_pc = 20;
  EXPECT_TRUE(reg.add(make(1, 7, 100)));  // arity 1, matches 7
  EXPECT_TRUE(reg.add(pair));             // arity 2, never fires below
  EXPECT_TRUE(reg.add(wild));             // arity 1, matches any number
  EXPECT_TRUE(reg.add(make(2, 7, 300)));  // arity 1, matches 7

  const auto hits = reg.matches(Tuple{Value::number(7)});
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].handler_pc, 100);
  EXPECT_EQ(hits[1].handler_pc, 10);
  EXPECT_EQ(hits[2].handler_pc, 300);

  // Removal in the middle keeps the survivors' relative order.
  EXPECT_TRUE(reg.remove(5, wild.templ));
  const auto after = reg.matches(Tuple{Value::number(7)});
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].handler_pc, 100);
  EXPECT_EQ(after[1].handler_pc, 300);
}

TEST(ReactionRegistry, RemoveAllOnMigrationLeavesDispatchConsistent) {
  // Strong migration copies the agent's reactions into its image and drops
  // them when the agent leaves; the registry must neither fire the dropped
  // entries nor disturb the remaining ones.
  ReactionRegistry reg;
  reg.add(make(1, 7, 100));
  reg.add(make(2, 7, 200));
  reg.add(make(1, 8, 300));
  const auto extracted = reg.owned_by(1);
  reg.remove_all(1);
  ASSERT_EQ(extracted.size(), 2u);
  EXPECT_EQ(extracted[0].handler_pc, 100);  // registration order preserved
  EXPECT_EQ(extracted[1].handler_pc, 300);
  EXPECT_EQ(reg.size(), 1u);

  const auto hits = reg.matches(Tuple{Value::number(7)});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].agent_id, 2);
  EXPECT_TRUE(reg.matches(Tuple{Value::number(8)}).empty());

  // The freed capacity and the (agent, template) pair are reusable, as on
  // a later arrival of the same agent.
  for (const Reaction& r : extracted) {
    EXPECT_TRUE(reg.add(r));
  }
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.owned_by(1).size(), 2u);
}

TEST(ReactionRegistry, OwnedByCopiesWithoutRemoving) {
  ReactionRegistry reg;
  reg.add(make(1, 7, 100));
  reg.add(make(2, 8, 200));
  reg.add(make(1, 9, 300));
  const auto owned = reg.owned_by(1);
  ASSERT_EQ(owned.size(), 2u);
  EXPECT_EQ(owned[0].handler_pc, 100);
  EXPECT_EQ(owned[1].handler_pc, 300);
  EXPECT_EQ(reg.size(), 3u);  // unlike remove_all, nothing is removed
}

TEST(ReactionRegistry, CapacityRejectionAcrossMixedArities) {
  // Fill to capacity with templates of two arities; the budget counts
  // every entry, whatever its arity.
  ReactionRegistry reg;
  for (std::int16_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(reg.add(make(1, i, 0)));
    Reaction two;
    two.agent_id = 1;
    two.templ = Template{Value::number(i), Value::number(i)};
    two.handler_pc = 0;
    EXPECT_TRUE(reg.add(two));
  }
  EXPECT_EQ(reg.size(), 10u);
  EXPECT_FALSE(reg.add(make(1, 99, 0)));
  // Duplicate add of an existing entry is rejected on identity, not
  // capacity, and leaves the registry unchanged.
  EXPECT_FALSE(reg.add(make(1, 0, 7)));
  EXPECT_EQ(reg.size(), 10u);
}

TEST(ReactionRegistry, CustomBudget) {
  ReactionRegistry reg(ReactionRegistry::Options{.capacity_bytes = 80});
  EXPECT_EQ(reg.capacity(), 2u);
  EXPECT_TRUE(reg.add(make(1, 1, 0)));
  EXPECT_TRUE(reg.add(make(1, 2, 0)));
  EXPECT_FALSE(reg.add(make(1, 3, 0)));
}

}  // namespace
}  // namespace agilla::ts
