// Wrapper identity: the benchmark's probes must not change what they
// measure.  On a small instance of each workload, a run through the forest
// adapter and the executor decorator leaves the cluster's rounds and words
// (every round record), the scheduler statistics, the sorted tree edges
// and every served answer identical to an unwrapped run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dyn_forest.hpp"
#include "harness/driver.hpp"
#include "layer_metrics.hpp"
#include "layers.hpp"
#include "serve/query_broker.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Forest = core::DynamicForest;
using Adapter = TimedForest<Forest>;

// The adapter satisfies exactly the Driver concepts the forest satisfies,
// so harness::Driver::add takes the same branches for both.
static_assert(harness::DynamicAlgorithm<Adapter> ==
              harness::DynamicAlgorithm<Forest>);
static_assert(harness::BatchApplicable<Adapter> ==
              harness::BatchApplicable<Forest>);
static_assert(harness::LookaheadBatchApplicable<Adapter> ==
              harness::LookaheadBatchApplicable<Forest>);
static_assert(harness::BatchScheduled<Adapter> ==
              harness::BatchScheduled<Forest>);
static_assert(harness::ClusterBacked<Adapter> ==
              harness::ClusterBacked<Forest>);
static_assert(harness::ExecutorConfigurable<Adapter> ==
              harness::ExecutorConfigurable<Forest>);
static_assert(harness::SelfValidating<Adapter> ==
              harness::SelfValidating<Forest>);
static_assert(harness::SelfValidating<Forest> &&
              harness::BatchScheduled<Forest> &&
              harness::ClusterBacked<Forest> &&
              harness::ExecutorConfigurable<Forest>);

static_assert(std::has_unique_object_representations_v<
              dmpc::BatchScheduleStats>);

/// Everything the identity compares.
struct Observed {
  std::vector<dmpc::RoundRecord> rounds;
  dmpc::UpdateAggregate updates;
  dmpc::QueryAggregate queries;
  dmpc::BatchScheduleStats sched;
  std::vector<std::pair<dmpc::VertexId, dmpc::VertexId>> tree_edges;
  std::vector<core::ReadAnswer> answers;
};

Observed observe(const Forest& forest) {
  Observed o;
  o.rounds = forest.cluster().metrics().rounds();
  o.updates = forest.cluster().metrics().aggregate();
  o.queries = forest.cluster().metrics().query_aggregate();
  o.sched = forest.batch_stats();
  o.tree_edges = forest.tree_edges();
  std::sort(o.tree_edges.begin(), o.tree_edges.end());
  return o;
}

void expect_identical(const Observed& a, const Observed& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].active_machines, b.rounds[i].active_machines) << i;
    EXPECT_EQ(a.rounds[i].comm_words, b.rounds[i].comm_words) << i;
    EXPECT_EQ(a.rounds[i].messages, b.rounds[i].messages) << i;
  }
  EXPECT_EQ(a.updates.total_rounds, b.updates.total_rounds);
  EXPECT_EQ(a.updates.total_comm_words, b.updates.total_comm_words);
  EXPECT_EQ(a.updates.worst_active_machines, b.updates.worst_active_machines);
  EXPECT_EQ(a.queries.total_rounds, b.queries.total_rounds);
  EXPECT_EQ(a.queries.total_comm_words, b.queries.total_comm_words);
  EXPECT_EQ(std::memcmp(&a.sched, &b.sched, sizeof(a.sched)), 0);
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (std::size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].connected, b.answers[i].connected) << i;
    EXPECT_EQ(a.answers[i].path_weight, b.answers[i].path_weight) << i;
  }
}

std::shared_ptr<dmpc::RoundExecutor> plain_executor(const UpdateWorkload& w) {
  if (w.pooled) {
    return std::make_shared<dmpc::ThreadPoolExecutor>(pool_workers());
  }
  return std::make_shared<dmpc::SerialExecutor>();
}

/// Runs an update workload's inputs through the Driver, plain or through
/// the probes (adapter + metered executor + enabled span log).
Observed run_update(const UpdateWorkload& w, const UpdateInputs& in,
                    bool wrapped, SpanLog& log) {
  Forest forest(w.forest_config());
  harness::Driver driver(w.n, w.driver_config());
  w.preprocess(forest, driver, in);
  ForestProbe probe;
  Adapter adapter(forest, probe);
  std::shared_ptr<MeteredExecutor> metered;
  if (wrapped) {
    probe.log = &log;
    log.set_enabled(true);
    metered = w.pooled ? MeteredExecutor::pool(pool_workers(), &log)
                       : MeteredExecutor::serial(&log);
    forest.cluster().set_executor(metered);
    driver.add("forest", adapter);
  } else {
    forest.cluster().set_executor(plain_executor(w));
    driver.add("forest", forest);
  }
  for (const graph::UpdateStream& chunk : in.chunks) driver.run(chunk);
  log.set_enabled(false);
  if (wrapped) {
    EXPECT_EQ(probe.batch_s.size(), driver.report().batches);
    EXPECT_GT(metered->stats().dispatches, 0U);
  }
  return observe(forest);
}

void check_update_workload(UpdateWorkload w) {
  const UpdateInputs in = w.make_inputs(7);
  SpanLog log;
  const Observed plain = run_update(w, in, false, log);
  const Observed wrapped = run_update(w, in, true, log);
  EXPECT_GT(plain.updates.total_rounds, 0U);
  expect_identical(plain, wrapped);
  EXPECT_GT(log.totals()[static_cast<std::size_t>(SpanKind::kApplyBatch)].count,
            0U);
}

TEST(WrapperIdentity, SparseChurn) {
  UpdateWorkload w = sparse_churn_workload(std::size_t{1} << 12);
  w.stream_updates = 2048;
  check_update_workload(w);
}

TEST(WrapperIdentity, MstAuditedDeletes) {
  UpdateWorkload w = mst_audited_deletes_workload(std::size_t{1} << 11);
  w.stream_updates = 4 * w.n + 2048;
  check_update_workload(w);
}

/// The serving workload's broker, pumped deterministically from one
/// thread: every `every` ops one pump.  The broker calls the forest
/// directly, so the probe on this path is the executor decorator.
Observed run_serving(const graph::MixedStream& ops, std::size_t n,
                     bool wrapped, SpanLog& log) {
  Forest forest({.n = n, .m_cap = 4 * n});
  forest.preprocess(graph::EdgeList{});
  if (wrapped) {
    log.set_enabled(true);
    forest.cluster().set_executor(MeteredExecutor::serial(&log));
  }
  serve::QueryBroker broker(forest);
  std::vector<serve::QueryId> ids;
  Observed o;
  const auto drain = [&] {
    broker.pump();
    for (const serve::QueryId id : ids) {
      const auto a = broker.try_answer(id);
      EXPECT_TRUE(a.has_value());
      if (a) o.answers.push_back(a->answer);
    }
    ids.clear();
  };
  std::size_t i = 0;
  for (const graph::MixedOp& op : ops) {
    if (op.kind == graph::MixedKind::kUpdate) {
      EXPECT_TRUE(broker.submit_update(op.as_update()));
    } else {
      const auto id = broker.submit_query(
          {op.kind == graph::MixedKind::kConnected ? core::QueryKind::kConnected
                                                   : core::QueryKind::kPathWeight,
           op.u, op.v});
      EXPECT_TRUE(id.has_value());
      if (id) ids.push_back(*id);
    }
    if (++i % 97 == 0) drain();
  }
  drain();
  log.set_enabled(false);
  Observed observed = observe(forest);
  observed.answers = std::move(o.answers);
  return observed;
}

TEST(WrapperIdentity, ZipfServing) {
  const ServingWorkload w{.n = std::size_t{1} << 10, .blocks = 16};
  const graph::MixedStream ops =
      graph::zipfian_serving_stream(w.stream_config(7, 20'000));
  SpanLog log;
  const Observed plain = run_serving(ops, w.n, false, log);
  const Observed wrapped = run_serving(ops, w.n, true, log);
  EXPECT_GT(plain.queries.total_rounds, 0U);
  EXPECT_FALSE(plain.answers.empty());
  expect_identical(plain, wrapped);
  EXPECT_GT(log.totals()[static_cast<std::size_t>(SpanKind::kDispatch)].count,
            0U);
}

/// Self times close: the selves of nested spans add up to the root's wall,
/// including the part a dispatch hands back to its caller.
TEST(SpanLog, SelfTimesSumToTheRoot) {
  SpanLog log;
  log.set_enabled(true);
  {
    SpanScope root(&log, SpanKind::kHarnessRun);
    for (int i = 0; i < 3; ++i) {
      SpanScope batch(&log, SpanKind::kApplyBatch, i);
      SpanScope dispatch(&log, SpanKind::kDispatch, i);
      dispatch.inherit(1000);
    }
  }
  std::uint64_t self = 0;
  for (const SpanTotals& t : log.totals()) self += t.self_ns;
  EXPECT_EQ(self,
            log.totals()[static_cast<std::size_t>(SpanKind::kHarnessRun)]
                .total_ns);
  ASSERT_EQ(log.spans().size(), 7U);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, 1);
}

}  // namespace
}  // namespace perfbench
