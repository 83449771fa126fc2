// The RAM ledger behind the paper's "3.59 KB of data memory" claim.
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

TEST(MemoryBudget, LedgerArithmetic) {
  MemoryBudget budget;
  budget.add("a", 100);
  budget.add("b", 250);
  EXPECT_EQ(budget.total_bytes(), 350u);
  EXPECT_EQ(budget.items().size(), 2u);
}

TEST(MemoryBudget, TableMentionsEveryItem) {
  MemoryBudget budget;
  budget.add("tuple space store", 600);
  budget.add("code pool", 440);
  const std::string table = budget.to_table();
  EXPECT_NE(table.find("tuple space store"), std::string::npos);
  EXPECT_NE(table.find("600"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

TEST(MemoryBudget, DefaultNodeFitsMica2Ram) {
  // The whole point of the paper's accounting: Agilla fits in 4 KB with
  // room to spare (they report 3.59 KB).
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  const MemoryBudget budget = mesh.at(0).memory_budget();
  EXPECT_LE(budget.total_bytes(), MemoryBudget::kMica2RamBytes);
  EXPECT_GE(budget.total_bytes(), 2800u);  // same ballpark as 3.59 KB
  EXPECT_LE(budget.total_bytes(), 3900u);
}

TEST(MemoryBudget, CoreLineItemsPresent) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  const MemoryBudget budget = mesh.at(0).memory_budget();
  const std::string table = budget.to_table();
  EXPECT_NE(table.find("tuple space store"), std::string::npos);
  EXPECT_NE(table.find("reaction registry"), std::string::npos);
  EXPECT_NE(table.find("instruction manager"), std::string::npos);
  EXPECT_NE(table.find("agent contexts"), std::string::npos);
  EXPECT_NE(table.find("acquaintance list"), std::string::npos);
}

TEST(MemoryBudget, ScalesWithConfig) {
  AgillaConfig small;
  small.tuple_space.store_capacity_bytes = 100;
  small.code_pool_blocks = 5;
  small.engine.max_agents = 1;
  AgillaMesh small_mesh(
      MeshOptions{.width = 1, .height = 1, .config = small});
  AgillaMesh default_mesh(MeshOptions{.width = 1, .height = 1});
  EXPECT_LT(small_mesh.at(0).memory_budget().total_bytes(),
            default_mesh.at(0).memory_budget().total_bytes());
}

TEST(MemoryBudget, PaperDefaultsAppearVerbatim) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  const MemoryBudget budget = mesh.at(0).memory_budget();
  bool store600 = false;
  bool registry400 = false;
  bool code440 = false;
  for (const auto& item : budget.items()) {
    store600 |= item.label.find("tuple space") != std::string::npos &&
                item.bytes == 600;
    registry400 |= item.label.find("reaction") != std::string::npos &&
                   item.bytes == 400;
    code440 |= item.label.find("instruction manager") != std::string::npos &&
               item.bytes == 440;
  }
  EXPECT_TRUE(store600);
  EXPECT_TRUE(registry400);
  EXPECT_TRUE(code440);
}

}  // namespace
}  // namespace agilla::core
