// Table 1 regression gate: bench_table1 prints the measured worst-case
// per-update triples (rounds, active machines per round, communication
// per round); this suite turns them into asserted budgets so a
// complexity regression — an extra protocol round, a broadcast that
// grew past O(sqrt N), a coordinator that stopped staying O(1) — fails
// CI instead of only shifting a printed number.
//
// The budget values live in harness/table1_budgets.hpp, SHARED with the
// CI benchmark gate (bench_table1 / bench_scaling --check): this suite
// asserts the full measured-plus-headroom triple at n = 256 (N = n +
// m_cap = 5n = 1280, sqrt(N) ~ 36), the benches re-check the
// n-independent rounds component at their own sizes.
#include <gtest/gtest.h>

#include "core/cs_matching.hpp"
#include "core/dyn_forest.hpp"
#include "core/maximal_matching.hpp"
#include "core/three_halves_matching.hpp"
#include "graph/update_stream.hpp"
#include "harness/driver.hpp"
#include "harness/table1_budgets.hpp"

namespace {

using harness::budgets::Table1Budget;

constexpr std::size_t kN = 256;
constexpr std::size_t kMCap = 4 * kN;
constexpr std::size_t kStream = 150;  // updates beyond the build phase

// Checkpoints (validate() sweeps) only at the end of the run.
const harness::DriverConfig kConfig{.checkpoint_every = 0};

void expect_within(const harness::DriverReport& report, const char* name,
                   const Table1Budget& budget) {
  const auto* stats = report.find(name);
  ASSERT_NE(stats, nullptr) << name;
  ASSERT_TRUE(stats->instrumented) << name;
  ASSERT_GT(stats->agg.updates, 0u) << name;
  EXPECT_LE(stats->agg.worst_rounds, budget.rounds)
      << name << ": rounds per update regressed";
  EXPECT_LE(stats->agg.worst_active_machines, budget.machines)
      << name << ": active machines per round regressed";
  EXPECT_LE(stats->agg.worst_comm_words, budget.comm_words)
      << name << ": communication per round regressed";
}

TEST(Table1Budgets, MaximalMatching) {
  // Paper bound: O(1) rounds, O(1) machines, O(sqrt N) comm per update.
  core::MaximalMatching mm({.n = kN, .m_cap = kMCap});
  mm.preprocess({});
  harness::Driver driver(kN, kConfig);
  driver.add("mm", mm);
  driver.run(graph::matched_edge_adversary_stream(kN, kN + kStream, 1));
  expect_within(driver.report(), "mm",
                harness::budgets::kMaximalMatching);
}

TEST(Table1Budgets, ThreeHalvesMatching) {
  // Paper bound: O(1) rounds, O(n / sqrt N) machines, O(sqrt N) comm.
  core::ThreeHalvesMatching th({.n = kN, .m_cap = kMCap});
  th.preprocess_empty();
  harness::Driver driver(kN, kConfig);
  driver.add("th", th);
  driver.run(graph::matched_edge_adversary_stream(kN, kN + kStream, 2));
  expect_within(driver.report(), "th",
                harness::budgets::kThreeHalvesMatching);
}

TEST(Table1Budgets, CsMatching) {
  // Paper bound: O(1) rounds, O~(1) machines, O~(1) comm.
  core::CsMatching cs({.n = kN, .eps = 0.2, .seed = 3});
  harness::Driver driver(kN, kConfig);
  driver.add("cs", cs);
  driver.run(graph::random_stream(kN, kStream, 0.6, 3));
  expect_within(driver.report(), "cs", harness::budgets::kCsMatching);
}

TEST(Table1Budgets, ConnectedComponents) {
  // Paper bound: O(1) rounds, O(sqrt N) machines, O(sqrt N) comm.
  core::DynamicForest forest({.n = kN, .m_cap = kMCap});
  forest.preprocess(graph::cycle(kN));
  harness::Driver driver(kN, kConfig);
  driver.add("cc", forest);
  driver.seed(graph::cycle(kN));
  driver.run(graph::bridge_adversary_stream(kN, 2 * kN + kStream, kN / 4, 4));
  expect_within(driver.report(), "cc",
                harness::budgets::kConnectedComponents);
}

TEST(Table1Budgets, ApproximateMst) {
  // Paper bound: O(1) rounds, O(sqrt N) machines, O(sqrt N) comm.
  const auto initial = graph::with_random_weights(graph::cycle(kN), 100000, 5);
  core::DynamicForest mst(
      {.n = kN, .m_cap = kMCap, .weighted = true, .eps = 0.1});
  mst.preprocess(initial);
  harness::DriverConfig config = kConfig;
  config.weighted = true;
  harness::Driver driver(kN, config);
  driver.add("mst", mst);
  driver.seed(initial);
  driver.run(graph::bridge_adversary_stream(kN, 2 * kN + kStream, kN / 4, 5,
                                            /*weighted=*/true));
  expect_within(driver.report(), "mst", harness::budgets::kApproximateMst);
}

TEST(Table1Budgets, WeightedBatchedDeleteHeavy) {
  // The weighted-batched gate: mean rounds per update of apply_batch at
  // batch = 16 on the weighted delete-heavy adversary, whose bursts are
  // independent tree-edge deletions plus independent cycle-rule swap
  // inserts.  The k-way stages and the shared path-max round must keep
  // this under the budget shared with bench_table1 --check (rounds per
  // update is n-independent, so the same bound applies here at n = 256
  // and at the bench's n = 1024).
  core::DynamicForest mst({.n = kN, .m_cap = kMCap, .weighted = true});
  mst.preprocess(graph::WeightedEdgeList{});
  harness::DriverConfig config{.batch_size = 16,
                               .checkpoint_every = 0,
                               .weighted = true};
  harness::Driver driver(kN, config);
  driver.add("mst", mst);
  const auto& report = driver.run(
      graph::weighted_interleaved_delete_stream(kN, 4 * kN, 8, 3, 10));
  const auto* stats = report.find("mst");
  ASSERT_NE(stats, nullptr);
  ASSERT_GT(report.applied, 0u);
  const double rpu = static_cast<double>(stats->batch_agg.total_rounds) /
                     static_cast<double>(report.applied);
  EXPECT_LE(rpu,
            harness::budgets::kBatchDynamicWeightedDeleteHeavyRoundsPerUpdate)
      << "weighted batched rounds/update regressed";
  // The budget is only meaningful if the stream actually exercised the
  // grouped cycle-rule path.
  EXPECT_GT(mst.batch_stats().path_max_grouped, 0u);
  EXPECT_GT(mst.batch_stats().batched_tree_deletes, 0u);
}

}  // namespace
