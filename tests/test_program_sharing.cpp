// One decoded program per deployment (DESIGN.md "Per-mote footprint"):
// agents with equal code share one immutable DecodedProgram across every
// mote of a deployment, the program table never keeps a program alive,
// and the per-engine cache counts stay those of a per-mote decode.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "agilla_test_helpers.h"
#include "api/deployment.h"
#include "core/program_table.h"
#include "core/vm_dispatch.h"

namespace agilla {
namespace {

/// Every engine's program counts, mote by mote, as text.
std::string cache_counts(api::Deployment& mesh) {
  std::string out;
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    const core::VmDispatcher::CacheStats& stats =
        mesh.mote(i).engine().dispatcher().cache_stats();
    out += std::to_string(stats.programs_compiled) + "/" +
           std::to_string(stats.cache_hits) + " ";
  }
  return out;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Live agents anywhere in the deployment holding `program`.
std::size_t holders(api::Deployment& mesh,
                    const core::DecodedProgram* program) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    for (const auto& agent : mesh.mote(i).engine().agents()) {
      n += agent->program().get() == program ? 1 : 0;
    }
  }
  return n;
}

TEST(ProgramSharing, ClonesShareOneProgramPerDeployment) {
  const auto mesh = testing::spread_fire_agents(/*shards=*/1);
  std::map<const core::DecodedProgram*,
           std::weak_ptr<const core::DecodedProgram>>
      programs;
  std::set<std::string> images;  // distinct code images
  std::size_t hosts = 0;
  for (std::size_t i = 0; i < mesh->mote_count(); ++i) {
    hosts += mesh->mote(i).engine().agents().size() > 0 ? 1 : 0;
    for (const auto& agent : mesh->mote(i).engine().agents()) {
      programs.emplace(agent->program().get(), agent->program());
      const std::vector<std::uint8_t>& bytes = agent->program()->bytes();
      images.emplace(bytes.begin(), bytes.end());
    }
  }
  ASSERT_GT(hosts, 200u) << "the detectors must cover the mesh";
  ASSERT_EQ(images.size(), 2u) << "detector and tracker";
  EXPECT_EQ(programs.size(), images.size());

  // Per-engine counts are those of a per-mote decode: a miss among the
  // engine's own live agents is a compile even when another mote's agent
  // supplied the program. Pinned from the per-mote decode.
  std::uint64_t compiled = 0;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < mesh->mote_count(); ++i) {
    const core::VmDispatcher::CacheStats& stats =
        mesh->mote(i).engine().dispatcher().cache_stats();
    compiled += stats.programs_compiled;
    hits += stats.cache_hits;
  }
  EXPECT_EQ(compiled, 301u);
  EXPECT_EQ(hits, 724u);
  EXPECT_EQ(fnv1a(cache_counts(*mesh)), 9754166855552384642ULL);

  // The program table holds no strong reference: a program dies with its
  // last agent anywhere in the deployment, and not before.
  for (std::size_t i = 0; i < mesh->mote_count(); ++i) {
    mesh->mote(i).engine().kill_all_agents();
    for (const auto& [program, watched] : programs) {
      EXPECT_EQ(watched.expired(), holders(*mesh, program) == 0)
          << "after clearing mote " << i;
    }
  }
  for (const auto& [program, watched] : programs) {
    EXPECT_TRUE(watched.expired());
  }
}

TEST(ProgramTable, InternsByContentAndHoldsNoStrongReference) {
  core::ProgramTable table;
  const std::vector<std::uint8_t> a{0x00};        // halt
  const std::vector<std::uint8_t> b{0x01, 0x00};  // loc; halt
  const auto intern = [&](const std::vector<std::uint8_t>& code) {
    return table.intern(code, core::hash_code_bytes(code));
  };
  std::shared_ptr<const core::DecodedProgram> pa = intern(a);
  EXPECT_EQ(intern(a), pa);
  EXPECT_EQ(pa->bytes(), a);
  const std::shared_ptr<const core::DecodedProgram> pb = intern(b);
  EXPECT_NE(pb, pa);
  EXPECT_EQ(pb->bytes(), b);
  // Equal hashes alone never share: b filed under a's hash (a forced
  // collision) is decoded apart from a.
  const std::shared_ptr<const core::DecodedProgram> collided =
      table.intern(b, core::hash_code_bytes(a));
  EXPECT_NE(collided, pa);
  EXPECT_EQ(collided->bytes(), b);
  EXPECT_EQ(table.size(), 3u);

  // The table keeps nothing alive; the next lookup of a dead program's
  // hash drops its entry and decodes afresh.
  const std::weak_ptr<const core::DecodedProgram> watched = pa;
  pa.reset();
  EXPECT_TRUE(watched.expired());
  pa = intern(a);
  EXPECT_EQ(pa->bytes(), a);
  EXPECT_EQ(table.size(), 3u);

  // Programs that come and go leave the table bounded by the live ones.
  for (int i = 0; i < 1000; ++i) {
    const std::vector<std::uint8_t> code{  // pushcl i; halt
        0x61, static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
        0x00};
    EXPECT_EQ(intern(code)->bytes(), code);
    ASSERT_LE(table.size(), core::ProgramTable::kFirstSweep);
  }
  EXPECT_EQ(intern(a), pa);
  EXPECT_EQ(intern(b), pb);
}

}  // namespace
}  // namespace agilla
