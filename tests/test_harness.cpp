// The harness's central promise: experiment results are a pure function
// of the spec — same seed + same grid => byte-identical JSON whether the
// trials ran on 1 worker thread or N, and across repeated runs.
#include "harness/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "harness/json_writer.h"
#include "harness/scenario.h"

namespace agilla::harness {
namespace {

ExperimentSpec small_fire_spec() {
  ExperimentSpec spec;
  spec.name = "determinism_probe";
  spec.scenario = "fire_tracking";
  spec.grids = {{4, 4}};
  spec.loss_rates = {0.0, 0.05};
  spec.stores = {ts::StoreKind::kLinear, ts::StoreKind::kIndexed};
  spec.trials = 2;
  spec.base_seed = 7;
  spec.duration = 40 * sim::kSecond;
  return spec;
}

TEST(Runner, JsonIdenticalAcrossThreadCounts) {
  const ExperimentSpec spec = small_fire_spec();
  const std::string serial =
      to_json(run_experiment(spec, RunnerOptions{.threads = 1}));
  const std::string parallel =
      to_json(run_experiment(spec, RunnerOptions{.threads = 4}));
  const std::string parallel8 =
      to_json(run_experiment(spec, RunnerOptions{.threads = 8}));
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, parallel8);
}

TEST(Runner, JsonStableAcrossRepeatedRuns) {
  ExperimentSpec spec;
  spec.scenario = "smove";
  spec.grids = {{5, 5}};
  spec.loss_rates = {0.05};
  spec.per_byte_loss = api::kDefaultPerByteLoss;
  spec.axes = {{"hops", {1, 3}}};
  spec.trials = 4;
  spec.base_seed = 11;
  const std::string first =
      to_json(run_experiment(spec, RunnerOptions{.threads = 2}));
  const std::string second =
      to_json(run_experiment(spec, RunnerOptions{.threads = 3}));
  EXPECT_EQ(first, second);
}

TEST(Runner, EnergyScenariosJsonIdenticalAcrossThreadCounts) {
  ExperimentSpec lifetime;
  lifetime.scenario = "network_lifetime";
  lifetime.grids = {{4, 4}};
  lifetime.loss_rates = {0.02};
  lifetime.trials = 2;
  lifetime.base_seed = 3;
  lifetime.duration = 50 * sim::kSecond;
  lifetime.params["battery_mj"] = 900.0;
  const ExperimentResult life_result =
      run_experiment(lifetime, RunnerOptions{.threads = 1});
  const std::string life1 = to_json(life_result);
  const std::string life4 =
      to_json(run_experiment(lifetime, RunnerOptions{.threads = 4}));
  EXPECT_EQ(life1, life4);
  // Batteries really depleted: the run saw node deaths.
  EXPECT_GT(life_result.cells.at(0).metrics.at("deaths").summary.total(),
            0.0);

  ExperimentSpec churn;
  churn.scenario = "churn_pursuit";
  churn.grids = {{4, 4}};
  churn.loss_rates = {0.02};
  churn.trials = 2;
  churn.base_seed = 5;
  churn.duration = 40 * sim::kSecond;
  churn.params["churn_rate"] = 0.02;
  churn.params["churn_reboot_s"] = 8.0;
  const ExperimentResult churn_result =
      run_experiment(churn, RunnerOptions{.threads = 1});
  const std::string churn1 = to_json(churn_result);
  const std::string churn4 =
      to_json(run_experiment(churn, RunnerOptions{.threads = 4}));
  EXPECT_EQ(churn1, churn4);
  // Churn really fired: crashes were recorded.
  EXPECT_GT(
      churn_result.cells.at(0).metrics.at("crashes").summary.total(),
      0.0);
}

TEST(Scenario, BuiltInsDeclareTheirKnobs) {
  const ScenarioInfo* lifetime = find_scenario("network_lifetime");
  ASSERT_NE(lifetime, nullptr);
  EXPECT_NE(std::find(lifetime->knobs.begin(), lifetime->knobs.end(),
                      "duty_cycle"),
            lifetime->knobs.end());
  const ScenarioInfo* smove = find_scenario("smove");
  ASSERT_NE(smove, nullptr);
  EXPECT_NE(std::find(smove->knobs.begin(), smove->knobs.end(), "hops"),
            smove->knobs.end());
}

TEST(Runner, SeedChangesResults) {
  ExperimentSpec spec = small_fire_spec();
  spec.loss_rates = {0.15};  // lossy enough that outcomes vary by seed
  spec.stores = {ts::StoreKind::kLinear};
  const std::string a = to_json(run_experiment(spec));
  spec.base_seed = 8;
  const std::string b = to_json(run_experiment(spec));
  EXPECT_NE(a, b);
}

TEST(Runner, BackendSweepRunsBothStores) {
  ExperimentSpec spec;
  spec.scenario = "store_ops";
  spec.grids = {{1, 1}};
  spec.loss_rates = {0.0};
  spec.stores = {ts::StoreKind::kLinear, ts::StoreKind::kIndexed};
  spec.axes = {{"fillers", {40}}};
  spec.trials = 1;
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].cell.store, ts::StoreKind::kLinear);
  EXPECT_EQ(result.cells[1].cell.store, ts::StoreKind::kIndexed);
  // Both backends produced the metrics, and the arity index touches
  // strictly fewer bytes than the linear scan on a 40-filler probe.
  const double linear_bytes =
      result.cells[0].metrics.at("rdp_bytes").summary.mean();
  const double indexed_bytes =
      result.cells[1].metrics.at("rdp_bytes").summary.mean();
  EXPECT_GT(linear_bytes, 0.0);
  EXPECT_GT(indexed_bytes, 0.0);
  EXPECT_LT(indexed_bytes, linear_bytes);
}

TEST(Runner, UnknownScenarioThrows) {
  ExperimentSpec spec;
  spec.scenario = "no_such_scenario";
  EXPECT_THROW((void)run_experiment(spec), std::invalid_argument);
}

TEST(Experiment, CellExpansionOrderAndCount) {
  ExperimentSpec spec;
  spec.scenario = "smove";
  spec.grids = {{4, 4}, {8, 8}};
  spec.loss_rates = {0.0, 0.1};
  spec.stores = {ts::StoreKind::kLinear, ts::StoreKind::kIndexed};
  spec.axes = {{"hops", {1, 2, 3}}};
  const std::vector<CellSpec> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 3u);
  // Grid is the outermost dimension, the axis the innermost.
  EXPECT_EQ(cells.front().grid, (GridSize{4, 4}));
  EXPECT_EQ(cells.back().grid, (GridSize{8, 8}));
  EXPECT_DOUBLE_EQ(cells[0].axis_values[0].second, 1.0);
  EXPECT_DOUBLE_EQ(cells[1].axis_values[0].second, 2.0);
  EXPECT_DOUBLE_EQ(cells[2].axis_values[0].second, 3.0);
  EXPECT_EQ(cells[0].store, cells[2].store);
  EXPECT_NE(cells[0].store, cells[3].store);
}

TEST(Experiment, TrialSeedsAreUniqueAndThreadIndependent) {
  ExperimentSpec spec;
  spec.scenario = "smove";
  spec.grids = {{4, 4}};
  spec.loss_rates = {0.0, 0.1};
  spec.stores = {ts::StoreKind::kLinear};
  spec.trials = 25;
  const std::vector<TrialSpec> trials = expand_trials(spec);
  ASSERT_EQ(trials.size(), 50u);
  std::set<std::uint64_t> seeds;
  for (const TrialSpec& t : trials) {
    seeds.insert(t.seed);
    // Seeds are derived from (base, cell, trial) alone.
    EXPECT_EQ(t.seed, derive_trial_seed(spec.base_seed, t.cell,
                                        static_cast<std::uint64_t>(t.trial)));
  }
  EXPECT_EQ(seeds.size(), trials.size());
}

TEST(Experiment, AxisValuesReachTrialParams) {
  ExperimentSpec spec;
  spec.scenario = "smove";
  spec.params["timeout_s"] = 3.0;
  spec.axes = {{"hops", {2, 4}}};
  spec.trials = 1;
  const std::vector<TrialSpec> trials = expand_trials(spec);
  ASSERT_EQ(trials.size(), 2u);
  EXPECT_DOUBLE_EQ(trials[0].param("hops", -1), 2.0);
  EXPECT_DOUBLE_EQ(trials[1].param("hops", -1), 4.0);
  EXPECT_DOUBLE_EQ(trials[0].param("timeout_s", -1), 3.0);
  EXPECT_DOUBLE_EQ(trials[0].param("absent", -1), -1.0);
}

TEST(Experiment, ParseGrid) {
  EXPECT_EQ(parse_grid("16x16"), (GridSize{16, 16}));
  EXPECT_EQ(parse_grid("8x4"), (GridSize{8, 4}));
  EXPECT_EQ(parse_grid("9"), (GridSize{9, 9}));
  EXPECT_EQ(parse_grid("0x4"), std::nullopt);
  EXPECT_EQ(parse_grid("axb"), std::nullopt);
  EXPECT_EQ(parse_grid(""), std::nullopt);
}

TEST(JsonWriter, FormatsDeterministically) {
  JsonWriter json(0);
  json.begin_object();
  json.key("name").value("a \"b\"\n");
  json.key("n").value(8.0);
  json.key("frac").value(0.9798660253208655);
  json.key("list").begin_array().value(1).value(true).end_array();
  json.key("empty").begin_object().end_object();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"a \\\"b\\\"\\n\",\"n\":8,"
            "\"frac\":0.9798660253208655,\"list\":[1,true],\"empty\":{}}");
}

TEST(JsonWriter, NonFiniteDoublesStayValidJson) {
  EXPECT_EQ(JsonWriter::format_double(
                std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(JsonWriter::format_double(
                std::numeric_limits<double>::infinity()),
            "1e308");
}

TEST(TrialDeployment, BuildsArbitraryGridWithSelectedStore) {
  TrialSpec trial;
  trial.grid = {3, 2};
  trial.packet_loss = 0.0;
  trial.store = ts::StoreKind::kIndexed;
  trial.seed = 5;
  api::Deployment mesh(deployment_options(trial));
  EXPECT_EQ(mesh.mote_count(), 6u);
  // The store seam propagated to every mote's tuple space.
  EXPECT_EQ(mesh.mote(0).config().tuple_space.store_kind,
            ts::StoreKind::kIndexed);
  // Neighbour discovery warmed up: the corner mote heard someone.
  EXPECT_GT(mesh.mote(0).neighbors().size(), 0u);
}

}  // namespace
}  // namespace agilla::harness
