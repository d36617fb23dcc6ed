// The per-layer metrics the traced runs share.  A workload reports the
// ones that apply to it; perfbench/run.py reports every other per-layer
// metric of BENCHMARK.json as 0.
#pragma once

#include <cstdint>

#include "core/dyn_forest.hpp"
#include "dmpc/cluster.hpp"
#include "dmpc/trace.hpp"
#include "layers.hpp"
#include "report.hpp"

namespace perfbench {

/// Worker threads of the pooled executor: nproc - 1, plus the caller.
std::size_t pool_workers();

/// Adds phase.<name>_s for each forest and serving phase of the Tracer's
/// phase_totals(), and phase.unattributed_s = `enclosing_s` (the wall of
/// the spans that enclose every forest call) minus their sum.  Phases are
/// looked up by name, so a phase the program no longer has reads 0.
/// Returns the sum of the phases.
double add_phase_metrics(const dmpc::Tracer& tracer, double enclosing_s,
                         Result& result);

/// Monotone counters of one forest: its cluster's update and query
/// accounting and its batch scheduler's statistics.  What a pass did is
/// the difference of two snapshots; passes add up.
struct ForestCounts {
  std::uint64_t rounds = 0;
  std::uint64_t words = 0;
  std::uint64_t query_batches = 0;
  std::uint64_t query_rounds = 0;
  std::uint64_t query_words = 0;
  std::uint64_t stages = 0;
  std::uint64_t kway_splits = 0;
  std::uint64_t kway_joins = 0;
  std::uint64_t cascade_rounds = 0;
  std::uint64_t path_max_grouped = 0;
  std::uint64_t elided_updates = 0;
  std::uint64_t serial_updates = 0;

  static ForestCounts of(const core::DynamicForest& forest);
  ForestCounts& operator+=(const ForestCounts& other);
  ForestCounts& operator-=(const ForestCounts& other);
};

/// forest.<scheduler counter> and cluster.* for a pass's counts; the
/// worst cases and the memory high water are the cluster's so far.
void add_count_metrics(const ForestCounts& pass, const dmpc::Cluster& cluster,
                       Result& result);

void add_executor_metrics(const ExecutorStats& stats, Result& result);

/// self.<layer>_s for every row of the attribution table, and
/// trace.wall_s, its denominator.
void add_self_metrics(Result& result);

}  // namespace perfbench
