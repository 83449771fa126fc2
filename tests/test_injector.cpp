// The base station: assembly injection, remote injection, remote TS ops.
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/agent_library.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

TEST(Injector, AssemblesAndInjects) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  BaseStation base(mesh.at(0));
  const auto id = base.inject("pushc 7\npushc 1\nout\nhalt");
  ASSERT_TRUE(id.has_value());
  mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(7)})
                  .has_value());
}

TEST(Injector, RejectsBadAssembly) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  BaseStation base(mesh.at(0));
  EXPECT_FALSE(base.inject("bogus nonsense").has_value());
  EXPECT_EQ(mesh.at(0).engine().agents().size(), 0u);
}

TEST(Injector, InjectAtRemoteLocation) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.warm();
  BaseStation base(mesh.at(0));
  bool sent = false;
  base.inject_at(assemble_or_die("pushn arr\npushc 1\nout\nhalt"), {3, 1},
                 [&](bool ok) { sent = ok; });
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(sent);
  EXPECT_TRUE(mesh.at(2)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("arr")})
                  .has_value());
  EXPECT_EQ(mesh.at(0).engine().agents().size(), 0u);  // only passed through
}

TEST(Injector, RemoteInjectionStartsAtPcZero) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject_at(assemble_or_die("loc\npushc 1\nout\nhalt"), {2, 1});
  mesh.sim.run_for(3 * sim::kSecond);
  const auto t = mesh.at(1).tuple_space().rdp(
      ts::Template{ts::Value::location({2, 1})});
  EXPECT_TRUE(t.has_value());
}

TEST(Injector, GatewayAccessor) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  BaseStation base(mesh.at(0));
  EXPECT_EQ(&base.gateway(), &mesh.at(0));
}

TEST(Injector, PaperWorkflowInjectThenQueryRemotely) {
  // The paper's base-station workflow: inject an agent that gathers data,
  // then pull results back with remote tuple-space operations.
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(42.0));
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject_at(assemble_or_die(R"(
      pushn dat
      pushc TEMPERATURE
      sense
      pushc 2
      out
      halt
  )"),
                 {3, 1});
  mesh.sim.run_for(5 * sim::kSecond);
  std::optional<ts::Tuple> fetched;
  base.rrdp({3, 1},
            ts::Template{ts::Value::string("dat"),
                         ts::Value::type_wildcard(ts::ValueType::kReading)},
            [&](bool, std::optional<ts::Tuple> t) { fetched = t; });
  mesh.sim.run_for(3 * sim::kSecond);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->field(1).as_number(), 42);
}

}  // namespace
}  // namespace agilla::core
