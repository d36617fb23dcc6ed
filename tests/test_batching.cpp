// Tests of batched update application: DynamicForest::apply_batch's
// shared-round stages (the paper's observation that independent updates
// can share the O(1)-round protocols), conflicting updates inside one
// batch, and the Driver's batch detection + per-batch aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/dyn_forest.hpp"
#include "core/maximal_matching.hpp"
#include "dmpc/executor.hpp"
#include "graph/update_stream.hpp"
#include "harness/checks.hpp"
#include "harness/driver.hpp"
#include "test_util.hpp"

namespace {

using graph::Update;
using graph::UpdateKind;
using harness::Driver;
using harness::DriverConfig;

static_assert(harness::BatchApplicable<core::DynamicForest>);
static_assert(!harness::BatchApplicable<core::MaximalMatching>);
static_assert(harness::ExecutorConfigurable<core::DynamicForest>);

std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>> sorted_tree_edges(
    const core::DynamicForest& f) {
  auto edges = f.tree_edges();
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// k pairwise-independent inserts: a perfect matching over 2k singleton
/// vertices, so every insert links two fresh components.
graph::UpdateStream independent_inserts(std::size_t k) {
  graph::UpdateStream stream;
  for (std::size_t i = 0; i < k; ++i) {
    stream.push_back({UpdateKind::kInsert, static_cast<dmpc::VertexId>(2 * i),
                      static_cast<dmpc::VertexId>(2 * i + 1)});
  }
  return stream;
}

// The ISSUE acceptance criterion: a Driver with batch_size = k > 1 must
// use strictly fewer total rounds than k serial updates on a batch of
// independent edges.
TEST(ApplyBatch, IndependentInsertsUseStrictlyFewerRounds) {
  const std::size_t n = 64, k = 8;
  const auto stream = independent_inserts(k);

  core::DynamicForest serial({.n = n, .m_cap = 4 * n});
  serial.preprocess(graph::EdgeList{});
  Driver serial_driver(n, DriverConfig{.checkpoint_every = 0});
  serial_driver.add("forest", serial);
  const auto& serial_report = serial_driver.run(stream);
  const auto* ss = serial_report.find("forest");
  ASSERT_NE(ss, nullptr);
  ASSERT_EQ(ss->agg.updates, k);
  const auto serial_rounds = ss->agg.total_rounds;

  core::DynamicForest batched({.n = n, .m_cap = 4 * n});
  batched.preprocess(graph::EdgeList{});
  Driver batched_driver(n, DriverConfig{.batch_size = k,
                                        .checkpoint_every = 0});
  batched_driver.add("forest", batched);
  const auto& batched_report = batched_driver.run(stream);
  const auto* bs = batched_report.find("forest");
  ASSERT_NE(bs, nullptr);
  EXPECT_TRUE(bs->batched);
  ASSERT_EQ(bs->batch_agg.updates, 1u);  // one batch
  const auto batched_rounds = bs->batch_agg.total_rounds;

  EXPECT_LT(batched_rounds, serial_rounds);
  // Each independent group shares one constant-round protocol instance
  // (8 rounds).  On this deterministic workload a coordinator-machine
  // hash collision keeps one insert out of the shared group (a second
  // group or a serial fallback, depending on the policy), so the batch
  // costs at most two instances — still far below the 6k serial rounds.
  EXPECT_LE(batched_rounds, 16u);
  EXPECT_LT(batched_rounds, serial_rounds / 2);

  // Same final state either way.
  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(sorted_tree_edges(serial), sorted_tree_edges(batched));
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

TEST(ApplyBatch, MatchesSerialOnRandomStreams) {
  const std::size_t n = 48;
  const auto stream = graph::random_stream(n, 300, 0.6, 91);

  core::DynamicForest serial({.n = n, .m_cap = 4 * n});
  serial.preprocess(graph::EdgeList{});
  Driver serial_driver(n, DriverConfig{.checkpoint_every = 0});
  serial_driver.add("forest", serial);
  serial_driver.run(stream);

  core::DynamicForest batched({.n = n, .m_cap = 4 * n});
  batched.preprocess(graph::EdgeList{});
  Driver batched_driver(n, DriverConfig{.batch_size = 8,
                                        .checkpoint_every = 4});
  batched_driver.add("forest", batched);
  batched_driver.on_checkpoint(
      harness::components_match_oracle(batched, "forest"));
  EXPECT_NO_THROW(batched_driver.run(stream));

  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(sorted_tree_edges(serial).size(),
            sorted_tree_edges(batched).size());
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

TEST(ApplyBatch, MatchesSerialOnWeightedStreams) {
  const std::size_t n = 40;
  const auto stream = graph::random_stream(n, 250, 0.65, 92, /*weighted=*/true);

  core::DynamicForest serial({.n = n, .m_cap = 4 * n, .weighted = true});
  serial.preprocess(graph::WeightedEdgeList{});
  Driver serial_driver(
      n, DriverConfig{.checkpoint_every = 0, .weighted = true});
  serial_driver.add("mst", serial);
  serial_driver.run(stream);

  core::DynamicForest batched({.n = n, .m_cap = 4 * n, .weighted = true});
  batched.preprocess(graph::WeightedEdgeList{});
  Driver batched_driver(n, DriverConfig{.batch_size = 8,
                                        .checkpoint_every = 0,
                                        .weighted = true});
  batched_driver.add("mst", batched);
  batched_driver.run(stream);

  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(serial.forest_weight(), batched.forest_weight());
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

TEST(ApplyBatch, PreservesOrderWithinConflictingBatch) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  // The erase targets an edge created earlier in the same batch: the
  // group must end at the repeated edge so the delete observes the
  // insert.
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 2, 3, 1},
      {UpdateKind::kInsert, 4, 5, 1},
      {UpdateKind::kDelete, 2, 3, 1},
      {UpdateKind::kInsert, 6, 7, 1},
  };
  forest.apply_batch(std::span<const Update>(batch));
  EXPECT_FALSE(forest.connected(2, 3));
  EXPECT_TRUE(forest.connected(4, 5));
  EXPECT_TRUE(forest.connected(6, 7));
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(ApplyBatch, ConflictingChainSharesOneStage) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  // A path: every insert shares a component with its predecessor.  The
  // chained merges still share one stage (one k-way join), with no
  // serial fallback, and the result is one connected path.
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 1, 1},
      {UpdateKind::kInsert, 1, 2, 1},
      {UpdateKind::kInsert, 2, 3, 1},
      {UpdateKind::kInsert, 3, 4, 1},
  };
  forest.apply_batch(std::span<const Update>(batch));
  EXPECT_TRUE(forest.connected(0, 4));
  EXPECT_EQ(forest.batch_stats().serial_updates, 0u);
  EXPECT_EQ(forest.batch_stats().stages, 1u);
  EXPECT_EQ(forest.batch_stats().grouped_updates, 4u);
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(BatchScheduler, ExecutesIndependentUpdatesOutOfOrder) {
  const std::size_t n = 16;
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n});
    f->preprocess(graph::EdgeList{{0, 1}, {1, 2}});
    return f;
  };
  // The tree deletion claims its component for deletions only, so the
  // merge behind it in that component waits for a later stage; the
  // independent merge after it must overtake it into the first stage.
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, 0, 1, 1},
      {UpdateKind::kInsert, 1, 3, 1},
      {UpdateKind::kInsert, 4, 5, 1},
  };
  auto forest = make();
  forest->apply_batch(std::span<const Update>(batch));
  EXPECT_FALSE(forest->connected(0, 1));
  EXPECT_TRUE(forest->connected(2, 3));
  EXPECT_TRUE(forest->connected(4, 5));
  const auto& stats = forest->batch_stats();
  EXPECT_EQ(stats.stages, 2u);
  EXPECT_GE(stats.reordered_updates, 1u);
  EXPECT_EQ(stats.serial_updates, 0u);
  EXPECT_EQ(stats.grouped_updates, 3u);

  auto serial = make();
  serial->erase(0, 1);
  serial->insert(1, 3);
  serial->insert(4, 5);
  EXPECT_EQ(serial->component_snapshot(), forest->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*forest));
  std::string why;
  EXPECT_TRUE(forest->validate(&why)) << why;
}

TEST(BatchScheduler, BatchesIndependentTreeDeletions) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  // Two triangles in distinct components: deleting one tree edge from
  // each is a pair of independent splits whose replacement searches
  // share one round (each triangle's chord is the candidate).
  forest.preprocess(
      graph::EdgeList{{0, 1}, {1, 2}, {0, 2}, {4, 5}, {5, 6}, {4, 6}});
  const auto tree_before = sorted_tree_edges(forest);
  ASSERT_EQ(tree_before.size(), 4u);
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, tree_before[0].first, tree_before[0].second, 1},
      {UpdateKind::kDelete, tree_before[2].first, tree_before[2].second, 1},
  };
  forest.apply_batch(std::span<const Update>(batch));
  // Replacements re-link both triangles.
  EXPECT_TRUE(forest.connected(0, 2));
  EXPECT_TRUE(forest.connected(4, 6));
  const auto& stats = forest.batch_stats();
  EXPECT_EQ(stats.stages, 1u);
  EXPECT_EQ(stats.batched_tree_deletes, 2u);
  EXPECT_EQ(stats.serial_updates, 0u);
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(BatchScheduler, BatchedTreeDeletionsDisconnectWithoutReplacement) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  // Two disjoint paths, no chords: the batched deletions genuinely
  // disconnect their components.
  forest.preprocess(graph::EdgeList{{0, 1}, {1, 2}, {4, 5}, {5, 6}});
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, 0, 1, 1},
      {UpdateKind::kDelete, 5, 6, 1},
  };
  forest.apply_batch(std::span<const Update>(batch));
  EXPECT_FALSE(forest.connected(0, 1));
  EXPECT_TRUE(forest.connected(1, 2));
  EXPECT_TRUE(forest.connected(4, 5));
  EXPECT_FALSE(forest.connected(5, 6));
  EXPECT_EQ(forest.batch_stats().batched_tree_deletes, 2u);
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(BatchScheduler, WeightedTreeDeletionsPickMinWeightReplacement) {
  const std::size_t n = 16;
  // Two weighted triangles; deleting the tree edges must promote each
  // triangle's cheapest crossing chord, matching serial application.
  const graph::WeightedEdgeList initial = {
      {0, 1, 5}, {1, 2, 7}, {0, 2, 50}, {4, 5, 3}, {5, 6, 4}, {4, 6, 40}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->erase(0, 1);
  serial->erase(4, 5);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, 0, 1, 0},
      {UpdateKind::kDelete, 4, 5, 0},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(batched->batch_stats().batched_tree_deletes, 2u);
  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

TEST(BatchScheduler, MatchesSerialOnDeleteHeavyInterleavedStream) {
  const std::size_t n = 64;
  const auto stream = graph::interleaved_delete_stream(n, 400, 6, 2, 98);

  core::DynamicForest serial({.n = n, .m_cap = 4 * n});
  serial.preprocess(graph::EdgeList{});
  Driver serial_driver(n, DriverConfig{.checkpoint_every = 0});
  serial_driver.add("forest", serial);
  serial_driver.run(stream);

  core::DynamicForest batched({.n = n, .m_cap = 4 * n});
  batched.preprocess(graph::EdgeList{});
  Driver batched_driver(n, DriverConfig{.batch_size = 16,
                                        .checkpoint_every = 2});
  batched_driver.add("forest", batched);
  batched_driver.on_checkpoint(
      harness::components_match_oracle(batched, "forest"));
  EXPECT_NO_THROW(batched_driver.run(stream));

  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(sorted_tree_edges(serial).size(),
            sorted_tree_edges(batched).size());
  EXPECT_GT(batched.batch_stats().batched_tree_deletes, 0u);
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

// On the weighted delete-heavy interleaved stream at batch 16 — whose
// bursts are independent tree-edge deletions followed by independent
// cycle-rule swap inserts — the batch protocol with its shared path-max
// round must improve rounds/update by at least 25% over per-update
// application (which runs every cycle-rule search on its own), with
// identical final state.
TEST(BatchScheduler, GroupedCycleRuleInsertsBeatSerializedAtBatch16) {
  const std::size_t n = 128;
  const auto stream =
      graph::weighted_interleaved_delete_stream(n, 600, 8, 3, 97);

  auto run_config = [&](bool use_apply_batch) {
    auto forest = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    forest->preprocess(graph::WeightedEdgeList{});
    Driver driver(n, DriverConfig{.batch_size = 16,
                                  .checkpoint_every = 0,
                                  .weighted = true,
                                  .use_apply_batch = use_apply_batch});
    driver.add("mst", *forest);
    driver.run(stream);
    const auto* stats = driver.report().find("mst");
    return std::pair(std::move(forest), stats->batch_agg.total_rounds);
  };
  auto [serial, serial_rounds] = run_config(false);
  auto [grouped, grouped_rounds] = run_config(true);

  // >= 25% fewer rounds per update (same applied-update count).
  EXPECT_LE(4 * grouped_rounds, 3 * serial_rounds)
      << "grouped: " << grouped_rounds << " vs serial: " << serial_rounds;
  EXPECT_GT(grouped->batch_stats().path_max_grouped, 0u);
  EXPECT_EQ(serial->batch_stats().path_max_grouped, 0u);

  // Identical final state either way.
  EXPECT_EQ(serial->component_snapshot(), grouped->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*grouped));
  EXPECT_EQ(serial->forest_weight(), grouped->forest_weight());
  std::string why;
  EXPECT_TRUE(grouped->validate(&why)) << why;
}

// Equal-weight tie: the cycle rule fires only on a STRICTLY heavier
// path edge, so an insert matching its path max must stay non-tree —
// in a shared path-max round exactly as serially.
TEST(BatchScheduler, EqualWeightTiesInsertAsNontree) {
  const std::size_t n = 16;
  const graph::WeightedEdgeList initial = {
      {0, 1, 5}, {1, 2, 5}, {4, 5, 5}, {5, 6, 5}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->insert(0, 2, 5);
  serial->insert(4, 6, 5);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 2, 5},
      {UpdateKind::kInsert, 4, 6, 5},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(batched->batch_stats().path_max_grouped, 2u);
  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  // No swap: the preprocessed tree survives.
  EXPECT_EQ(sorted_tree_edges(*batched),
            (std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>>{
                {0, 1}, {1, 2}, {4, 5}, {5, 6}}));
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

// Swap-rejected inserts: a new edge heavier than its whole cycle path
// must stay non-tree (the search runs, the swap does not).
TEST(BatchScheduler, SwapRejectedInsertsStayNontree) {
  const std::size_t n = 16;
  const graph::WeightedEdgeList initial = {
      {0, 1, 3}, {1, 2, 4}, {4, 5, 3}, {5, 6, 4}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->insert(0, 2, 10);
  serial->insert(4, 6, 10);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 2, 10},
      {UpdateKind::kInsert, 4, 6, 10},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(batched->batch_stats().path_max_grouped, 2u);
  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  EXPECT_EQ(sorted_tree_edges(*batched),
            (std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>>{
                {0, 1}, {1, 2}, {4, 5}, {5, 6}}));
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

// A grouped swap displacing a tree edge in the MIDDLE of the cycle path
// (not adjacent to either endpoint): the demoted edge must become a
// crossing candidate of its own split and lose the replacement search
// to the lighter inserted edge.
TEST(BatchScheduler, SwapDisplacesMidPathTreeEdge) {
  const std::size_t n = 16;
  const graph::WeightedEdgeList initial = {{0, 1, 1},  {1, 2, 9},
                                           {2, 3, 1},  {12, 13, 1},
                                           {13, 14, 9}, {14, 15, 1}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->insert(0, 3, 2);
  serial->insert(12, 15, 2);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 3, 2},
      {UpdateKind::kInsert, 12, 15, 2},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(batched->batch_stats().path_max_grouped, 2u);
  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  // The mid-path 9-weight edges were displaced by the new 2-weight ones.
  EXPECT_EQ(sorted_tree_edges(*batched),
            (std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>>{
                {0, 1}, {0, 3}, {2, 3}, {12, 13}, {12, 15}, {14, 15}}));
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  EXPECT_EQ(batched->forest_weight(), 2 * (1 + 1 + 2));
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

// Two cycle-rule inserts in the SAME component that both want to swap:
// only the earlier batch position may commit; the later one must be
// deferred and re-planned against the committed tree, matching serial
// application exactly.
TEST(BatchScheduler, SameComponentSwapsDeferAndMatchSerial) {
  const std::size_t n = 16;
  const graph::WeightedEdgeList initial = {{0, 1, 9}, {1, 2, 9}, {2, 3, 9}};
  auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto serial = make();
  serial->insert(0, 2, 1);
  serial->insert(1, 3, 1);

  auto batched = make();
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 2, 1},
      {UpdateKind::kInsert, 1, 3, 1},
  };
  batched->apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

// Regression: a later cycle-rule insert must not overtake an EARLIER
// same-component pending insert (e.g. one held back by a coordinator
// collision) and commit a swap the earlier update should have observed.
// The plan-time ordering check treats a path-max read claim as a
// potential write, so the later insert waits.  Found by review: with
// read-read overtaking allowed, this batch promoted edge (5,6) where
// serial replay keeps (1,6).
TEST(BatchScheduler, SwapCannotOvertakeEarlierPendingSameComponentInsert) {
  const std::size_t n = 12;
  const graph::WeightedEdgeList initial = {{0, 1, 3}, {1, 2, 1}, {1, 3, 5},
                                           {1, 4, 4}, {3, 5, 2}, {1, 6, 2},
                                           {1, 7, 2}};
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 7, 2, 3}, {UpdateKind::kInsert, 7, 6, 5},
      {UpdateKind::kInsert, 2, 3, 1}, {UpdateKind::kInsert, 6, 5, 2},
      {UpdateKind::kInsert, 1, 4, 4}, {UpdateKind::kInsert, 6, 3, 2},
  };
  core::DynamicForest serial({.n = n, .m_cap = 8 * n, .weighted = true});
  serial.preprocess(initial);
  for (const Update& up : batch) serial.insert(up.u, up.v, up.w);

  core::DynamicForest batched({.n = n, .m_cap = 8 * n, .weighted = true});
  batched.preprocess(initial);
  batched.apply_batch(std::span<const Update>(batch));

  EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
  EXPECT_EQ(sorted_tree_edges(serial), sorted_tree_edges(batched));
  EXPECT_EQ(serial.forest_weight(), batched.forest_weight());
  std::string why;
  EXPECT_TRUE(batched.validate(&why)) << why;
}

// Sixteen cycle-rule re-inserts, each in its own component and each
// displacing a heavy tree edge, share ONE stage: scatter, directory +
// path-max queries, proposals, swap cuts, the three cascade rounds that
// re-link every component through its inserted edge, and the commit.
// At n = 256 the cluster has 36 machines, enough that no machine's
// share of the commit broadcasts (a link and a cut fix per swap) passes
// the S-word cap; a machine that did would split that round in two.
TEST(BatchScheduler, SixteenSwapsShareOneEightRoundStage) {
  const std::size_t n = 256, k = 16;
  graph::WeightedEdgeList initial;
  graph::UpdateStream stream;
  for (std::size_t c = 0; c < k; ++c) {
    const auto b = static_cast<dmpc::VertexId>(4 * c);
    initial.push_back({b, b + 1, 3});
    initial.push_back({b + 1, b + 2, 150});  // the replacement chord
    initial.push_back({b + 2, b + 3, 4});
    stream.push_back({UpdateKind::kInsert, b + 1, b + 3, 5});
  }
  const auto make = [&] {
    auto f = std::make_unique<core::DynamicForest>(
        core::DynForestConfig{.n = n, .m_cap = 4 * n, .weighted = true});
    f->preprocess(initial);
    return f;
  };
  auto batched = make();
  Driver driver(n, DriverConfig{.batch_size = k,
                                .checkpoint_every = 0,
                                .weighted = true});
  driver.add("mst", *batched);
  driver.run(stream);
  const auto* stats = driver.report().find("mst");
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->batch_agg.updates, 1u);
  EXPECT_LE(stats->batch_agg.total_rounds, 8u);
  EXPECT_EQ(batched->batch_stats().stages, 1u);
  EXPECT_EQ(batched->batch_stats().path_max_grouped, k);
  EXPECT_EQ(batched->batch_stats().cascade_links, k);

  auto serial = make();
  for (const Update& up : stream) serial->insert(up.u, up.v, up.w);
  EXPECT_EQ(serial->component_snapshot(), batched->component_snapshot());
  EXPECT_EQ(sorted_tree_edges(*serial), sorted_tree_edges(*batched));
  EXPECT_EQ(serial->forest_weight(), batched->forest_weight());
  EXPECT_EQ(batched->forest_weight(), static_cast<graph::Weight>(k * 12));
  std::string why;
  EXPECT_TRUE(batched->validate(&why)) << why;
}

// One batch mixing two same-component swaps (the later one defers to a
// second stage), tree deletions in two other components, and a merge:
// the state must equal serial insert/erase replay under both executors.
TEST(BatchScheduler, MixedSwapsDeletionsAndMergeMatchSerialUnderBothExecutors) {
  const std::size_t n = 32;
  const graph::WeightedEdgeList initial = {
      {0, 1, 9},   {1, 2, 9},   {2, 3, 9},                 // swaps
      {8, 9, 2},   {9, 10, 3},  {10, 11, 4}, {8, 11, 50},  // deletions
      {16, 17, 1}, {17, 18, 2}, {16, 18, 7},               // deletion
      {20, 22, 1}, {21, 23, 1},                            // merge
  };
  const std::vector<Update> batch = {
      {UpdateKind::kInsert, 0, 2, 1},  {UpdateKind::kDelete, 9, 10, 0},
      {UpdateKind::kInsert, 1, 3, 1},  {UpdateKind::kInsert, 20, 21, 3},
      {UpdateKind::kDelete, 16, 17, 0}, {UpdateKind::kDelete, 10, 11, 0},
  };
  core::DynamicForest serial({.n = n, .m_cap = 4 * n, .weighted = true});
  serial.preprocess(initial);
  for (const Update& up : batch) {
    if (up.kind == UpdateKind::kInsert) {
      serial.insert(up.u, up.v, up.w);
    } else {
      serial.erase(up.u, up.v);
    }
  }
  const std::vector<std::shared_ptr<dmpc::RoundExecutor>> executors = {
      std::make_shared<dmpc::SerialExecutor>(),
      std::make_shared<dmpc::ThreadPoolExecutor>(4)};
  for (const auto& exec : executors) {
    SCOPED_TRACE(exec->name());
    core::DynamicForest batched({.n = n, .m_cap = 4 * n, .weighted = true});
    batched.cluster().set_executor(exec);
    batched.preprocess(initial);
    batched.apply_batch(std::span<const Update>(batch));
    EXPECT_EQ(batched.batch_stats().deferred_updates, 1u);
    EXPECT_EQ(batched.batch_stats().path_max_grouped, 2u);
    EXPECT_EQ(batched.batch_stats().serial_updates, 0u);
    EXPECT_EQ(serial.component_snapshot(), batched.component_snapshot());
    EXPECT_EQ(sorted_tree_edges(serial), sorted_tree_edges(batched));
    EXPECT_EQ(serial.forest_weight(), batched.forest_weight());
    std::string why;
    EXPECT_TRUE(batched.validate(&why)) << why;
  }
}

TEST(ApplyBatch, HandlesNoopsAndNontreeOps) {
  const std::size_t n = 16;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{{0, 1}, {1, 2}, {0, 2}, {4, 5}});
  // Non-tree insert (3-cycle chord deletion + re-insert), a duplicate
  // insert, and an absent delete, all in one batch.
  const std::vector<Update> batch = {
      {UpdateKind::kDelete, 0, 2, 1},  // non-tree delete in comp {0,1,2}
      {UpdateKind::kInsert, 4, 5, 1},  // duplicate -> no-op
      {UpdateKind::kDelete, 8, 9, 1},  // absent -> no-op
      {UpdateKind::kInsert, 6, 7, 1},  // independent merge
  };
  forest.apply_batch(std::span<const Update>(batch));
  EXPECT_TRUE(forest.connected(0, 2));  // still connected through the tree
  EXPECT_TRUE(forest.connected(6, 7));
  std::string why;
  EXPECT_TRUE(forest.validate(&why)) << why;
}

TEST(DriverBatching, ReportsPerBatchStatsForBothModes) {
  const std::size_t n = 32;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  core::MaximalMatching mm({.n = n, .m_cap = 4 * n});
  mm.preprocess({});
  Driver driver(n, DriverConfig{.batch_size = 4, .checkpoint_every = 0});
  driver.add("forest", forest);
  driver.add("mm", mm);
  const auto stream = test_util::make_stream(test_util::StreamKind::kRandom,
                                             n, 60, 17);
  const auto& report = driver.run(stream);
  ASSERT_GT(report.batches, 1u);

  const auto* fs = report.find("forest");
  ASSERT_NE(fs, nullptr);
  EXPECT_TRUE(fs->batched);
  // Batched algorithms have no per-update records, only per-batch ones.
  EXPECT_EQ(fs->agg.updates, 0u);
  EXPECT_EQ(fs->batch_agg.updates, report.batches);
  EXPECT_GT(fs->batch_agg.total_rounds, 0u);

  const auto* ms = report.find("mm");
  ASSERT_NE(ms, nullptr);
  EXPECT_FALSE(ms->batched);
  EXPECT_EQ(ms->agg.updates, report.applied);
  EXPECT_EQ(ms->batch_agg.updates, report.batches);
  // Per-batch rounds of a serial algorithm are the sum of its per-update
  // rounds, so the two aggregates must agree on totals.
  EXPECT_EQ(ms->batch_agg.total_rounds, ms->agg.total_rounds);
  EXPECT_EQ(ms->batch_agg.total_comm_words, ms->agg.total_comm_words);
}

TEST(DriverBatching, OptOutRestoresPerUpdatePath) {
  const std::size_t n = 32;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  Driver driver(n, DriverConfig{.batch_size = 4,
                                .checkpoint_every = 0,
                                .use_apply_batch = false});
  driver.add("forest", forest);
  const auto stream = test_util::make_stream(test_util::StreamKind::kRandom,
                                             n, 40, 18);
  const auto& report = driver.run(stream);
  const auto* fs = report.find("forest");
  ASSERT_NE(fs, nullptr);
  EXPECT_FALSE(fs->batched);
  EXPECT_EQ(fs->agg.updates, report.applied);
}

TEST(DriverBatching, OracleCheckpointsPassOnBatchedBridgeAdversary) {
  const std::size_t n = 32;
  core::DynamicForest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  Driver driver(n, DriverConfig{.batch_size = 6, .checkpoint_every = 1});
  driver.add("forest", forest);
  driver.on_checkpoint(harness::components_match_oracle(forest, "forest"));
  const auto stream = test_util::make_stream(
      test_util::StreamKind::kBridgeAdversary, n, 200, 19);
  EXPECT_NO_THROW(driver.run(stream));
  EXPECT_GT(driver.report().checkpoints, 5u);
}

}  // namespace
