#include "layer_metrics.hpp"

#include <algorithm>
#include <map>
#include <thread>

namespace perfbench {
namespace {

/// Tracer phases the forest and the broker annotate, by trace_phase_name.
const char* const kPhases[] = {
    "scatter-classify", "kway-split", "cascade",     "kway-join", "directory",
    "path-max",         "wave-commit", "query-batch", "epoch",
};

std::string phase_metric(const std::string& phase) {
  std::string name = "phase." + phase + "_s";
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

std::size_t pool_workers() {
  const std::size_t nproc = std::max(1U, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, nproc - 1);
}

double add_phase_metrics(const dmpc::Tracer& tracer, double enclosing_s,
                         Result& result) {
  std::map<std::string, double> by_name;
  const auto& totals = tracer.phase_totals();
  for (std::size_t p = 0; p < totals.size(); ++p) {
    by_name[dmpc::trace_phase_name(static_cast<dmpc::TracePhase>(p))] +=
        seconds(totals[p].wall_ns);
  }
  double sum = 0.0;
  for (const char* phase : kPhases) {
    const auto it = by_name.find(phase);
    const double s = it == by_name.end() ? 0.0 : it->second;
    sum += s;
    result.add(phase_metric(phase), s, "s");
  }
  result.add("phase.unattributed_s", enclosing_s - sum, "s");
  return sum;
}

constexpr std::uint64_t ForestCounts::*kCountFields[] = {
    &ForestCounts::rounds,         &ForestCounts::words,
    &ForestCounts::query_batches,  &ForestCounts::query_rounds,
    &ForestCounts::query_words,    &ForestCounts::stages,
    &ForestCounts::kway_splits,    &ForestCounts::kway_joins,
    &ForestCounts::cascade_rounds, &ForestCounts::path_max_grouped,
    &ForestCounts::elided_updates, &ForestCounts::serial_updates,
};

ForestCounts ForestCounts::of(const core::DynamicForest& forest) {
  const dmpc::Metrics& m = forest.cluster().metrics();
  const dmpc::BatchScheduleStats& s = forest.batch_stats();
  ForestCounts c;
  c.rounds = m.aggregate().total_rounds;
  c.words = m.aggregate().total_comm_words;
  c.query_batches = m.query_aggregate().batches;
  c.query_rounds = m.query_aggregate().total_rounds;
  c.query_words = m.query_aggregate().total_comm_words;
  c.stages = s.stages;
  c.kway_splits = s.kway_splits;
  c.kway_joins = s.kway_joins;
  c.cascade_rounds = s.cascade_rounds;
  c.path_max_grouped = s.path_max_grouped;
  c.elided_updates = s.elided_updates;
  c.serial_updates = s.serial_updates;
  return c;
}

ForestCounts& ForestCounts::operator+=(const ForestCounts& other) {
  for (const auto field : kCountFields) this->*field += other.*field;
  return *this;
}

ForestCounts& ForestCounts::operator-=(const ForestCounts& other) {
  for (const auto field : kCountFields) this->*field -= other.*field;
  return *this;
}

void add_count_metrics(const ForestCounts& pass, const dmpc::Cluster& cluster,
                       Result& result) {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  result.add("forest.stages", count(pass.stages), "count");
  result.add("forest.kway_splits", count(pass.kway_splits), "count");
  result.add("forest.kway_joins", count(pass.kway_joins), "count");
  result.add("forest.cascade_rounds", count(pass.cascade_rounds), "count");
  result.add("forest.path_max_grouped", count(pass.path_max_grouped), "count");
  result.add("forest.elided_updates", count(pass.elided_updates), "count");
  result.add("forest.serial_updates", count(pass.serial_updates), "count");
  const dmpc::UpdateAggregate& agg = cluster.metrics().aggregate();
  result.add("cluster.rounds", count(pass.rounds), "count");
  result.add("cluster.comm_words", count(pass.words), "words");
  result.add("cluster.worst_active_machines", count(agg.worst_active_machines),
             "count");
  result.add("cluster.worst_comm_words", count(agg.worst_comm_words), "words");
  result.add("cluster.query_batches", count(pass.query_batches), "count");
  result.add("cluster.query_rounds", count(pass.query_rounds), "count");
  result.add("cluster.query_comm_words", count(pass.query_words), "words");
  result.add("cluster.memory_high_water_words",
             count(cluster.max_memory_high_water()), "words");
}

void add_executor_metrics(const ExecutorStats& s, Result& result) {
  result.add("executor.dispatches", static_cast<double>(s.dispatches), "count");
  result.add("executor.tasks", static_cast<double>(s.tasks), "count");
  result.add("executor.inline_dispatches",
             static_cast<double>(s.inline_dispatches), "count");
  result.add("executor.dispatch_s", seconds(s.dispatch_ns), "s");
  result.add("executor.task_busy_s", seconds(s.task_busy_ns), "s");
  result.add("executor.utilization",
             s.capacity_ns == 0 ? 0.0
                                : static_cast<double>(s.task_busy_ns) /
                                      static_cast<double>(s.capacity_ns),
             "ratio");
  result.add("executor.straggler_s", seconds(s.straggler_ns), "s");
}

void add_self_metrics(Result& result) {
  const std::vector<LayerRow> rows = result.layers;
  for (const LayerRow& row : rows) {
    std::string name = "self." + row.layer + "_s";
    std::replace(name.begin() + 5, name.end() - 2, '.', '_');
    result.add(name, row.self_s, "s");
  }
  result.add("trace.wall_s", result.wall_s, "s");
}

}  // namespace perfbench
