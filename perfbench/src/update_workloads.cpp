// The two Driver workloads: sparse-churn-2e20 and mst-audited-deletes.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dmpc/trace.hpp"
#include "harness/checks.hpp"
#include "layer_metrics.hpp"
#include "layers.hpp"
#include "oracle/oracles.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Connectivity queries per answer_queries batch of the read probe (the
/// serving workload's broker batches as many).
constexpr std::size_t kReadBatch = 256;
/// The read probe's share of the measured time of an untraced run.
constexpr double kReadShare = 0.1;

graph::UpdateStream sparse_churn_stream(std::size_t n, std::size_t length,
                                        std::uint64_t seed) {
  return graph::random_stream(n, length, 0.75, seed);
}

graph::UpdateStream audited_deletes_stream(std::size_t n, std::size_t length,
                                           std::uint64_t seed) {
  return graph::weighted_interleaved_delete_stream(n, length, 256, 4, seed);
}

/// One workload instance.  Heap-allocated and never moved: the Driver
/// holds the adapter, which holds the forest and the probe.
struct Instance {
  explicit Instance(const UpdateWorkload& w)
      : forest(w.forest_config()),
        adapter(forest, probe),
        driver(w.n, w.driver_config()) {}

  core::DynamicForest forest;
  ForestProbe probe;
  TimedForest<core::DynamicForest> adapter;
  harness::Driver driver;
  std::size_t next_chunk = 0;
};

struct SetupResult {
  std::unique_ptr<Instance> instance;
  UpdateInputs inputs;
  double setup_s = 0.0;
  double stream_gen_s = 0.0;
  double preprocess_s = 0.0;
};

SetupResult set_up(const UpdateWorkload& w, std::uint64_t seed) {
  SetupResult s;
  const std::uint64_t t0 = now_ns();
  s.inputs = w.make_inputs(seed);
  s.stream_gen_s = seconds_since(t0);
  s.instance = std::make_unique<Instance>(w);
  Instance& inst = *s.instance;
  const std::uint64_t t1 = now_ns();
  w.preprocess(inst.forest, inst.driver, s.inputs);
  s.preprocess_s = seconds_since(t1);
  inst.driver.add("forest", inst.adapter);
  if (w.checkpoint_every != 0) {
    inst.driver.on_checkpoint(
        [probe = &inst.probe,
         check = harness::components_match_oracle(inst.forest, "forest")](
            const harness::Checkpoint& cp) {
          SpanScope span(probe->log, SpanKind::kOracle, cp.step);
          check(cp);
        });
  }
  if (w.pooled) {
    inst.forest.cluster().set_executor(
        std::make_shared<dmpc::ThreadPoolExecutor>(pool_workers()));
  }
  inst.driver.run(s.inputs.chunks.at(inst.next_chunk++));  // warm-up
  s.setup_s = seconds_since(t0);
  return s;
}

/// What a run of consecutive chunks did; passes add up.
struct Pass {
  double wall_s = 0.0;
  std::uint64_t applied = 0;
  std::uint64_t skipped = 0;
  std::uint64_t checkpoints = 0;
  ForestCounts counts;
  std::vector<double> batch_s;

  [[nodiscard]] std::uint64_t updates() const { return applied + skipped; }
  Pass& operator+=(const Pass& o) {
    wall_s += o.wall_s;
    applied += o.applied;
    skipped += o.skipped;
    checkpoints += o.checkpoints;
    counts += o.counts;
    batch_s.insert(batch_s.end(), o.batch_s.begin(), o.batch_s.end());
    return *this;
  }
};

/// Hands the Driver the next `count` chunks, one Driver::run each.
/// `ran_out` is set when the stream ends (or a checkpoint failed).
Pass run_chunks(Instance& inst, const UpdateInputs& inputs, std::size_t count,
                SpanLog* log, bool& ran_out, Result& result) {
  Pass p;
  inst.probe.log = log;
  inst.probe.batch_s.clear();
  const harness::DriverReport before = inst.driver.report();
  const ForestCounts counts_before = ForestCounts::of(inst.forest);
  const std::uint64_t t0 = now_ns();
  for (std::size_t c = 0; c < count; ++c) {
    if (inst.next_chunk >= inputs.chunks.size()) {
      ran_out = true;
      result.fail("the update stream ran out before the run's seconds");
      break;
    }
    try {
      SpanScope span(log, SpanKind::kHarnessRun, inst.next_chunk);
      inst.driver.run(inputs.chunks[inst.next_chunk++]);
    } catch (const harness::ValidationError& e) {
      result.fail(e.what());
      ran_out = true;  // the Driver's state is no longer trusted
      break;
    }
  }
  p.wall_s = seconds_since(t0);
  const harness::DriverReport& after = inst.driver.report();
  p.applied = after.applied - before.applied;
  p.skipped = after.skipped - before.skipped;
  p.checkpoints = after.checkpoints - before.checkpoints;
  p.counts = ForestCounts::of(inst.forest);
  p.counts -= counts_before;
  p.batch_s = std::move(inst.probe.batch_s);
  inst.probe.log = nullptr;
  return p;
}

/// The read probe, run after every period outside the update timing:
/// closed loop, answer_queries batches of kReadBatch seeded connectivity
/// queries between uniform vertex pairs, until the probes have taken
/// kReadShare of the time measured so far.  Every answer is checked
/// against oracle::connected_components of the Driver's shadow.
///
/// Its rate is taken from the fastest batch of the run.  A batch takes
/// under a millisecond, and on a shared VM other tenants slow such short,
/// allocation-heavy batches by up to 3x for seconds at a time, far more
/// than they slow the update batches.  Interference only ever adds time,
/// so the minimum is the estimate it moves least (Chen and Revels,
/// "Robust benchmarking in noisy environments", 2016); the mean of the
/// same batches spread 0.2-0.3 (interquartile range over median) across
/// ten seeds on a 4-vCPU VM.
class ReadProbe {
 public:
  ReadProbe(std::size_t n, std::uint64_t seed)
      : n_(n), rng_(seed ^ 0x5eadc0deULL) {}

  /// `update_s`: the update time measured so far.
  void run(Instance& inst, double update_s, Result& result) {
    queries_.clear();
    answers_.clear();
    while (busy_s < kReadShare * (update_s + busy_s)) {
      const std::size_t first = queries_.size();
      for (std::size_t i = 0; i < kReadBatch; ++i) {
        queries_.push_back({core::QueryKind::kConnected,
                            static_cast<dmpc::VertexId>(rng_() % n_),
                            static_cast<dmpc::VertexId>(rng_() % n_)});
      }
      const std::uint64_t t0 = now_ns();
      const std::vector<core::ReadAnswer> a = inst.forest.answer_queries(
          std::span(queries_).subspan(first, kReadBatch));
      const double batch_s = seconds_since(t0);
      busy_s += batch_s;
      fastest_batch_s = std::min(fastest_batch_s, batch_s);
      answers_.insert(answers_.end(), a.begin(), a.end());
    }
    const std::vector<dmpc::VertexId> labels =
        oracle::connected_components(inst.driver.shadow());
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const core::ReadQuery& q = queries_[i];
      if (answers_[i].connected != (labels[q.u] == labels[q.v])) ++wrong;
    }
    result.attempted += queries_.size();
    if (wrong != 0) {
      result.fail(std::to_string(wrong) + " of " +
                      std::to_string(queries_.size()) +
                      " read-probe answers differ from the oracle",
                  wrong);
    }
  }

  double busy_s = 0.0;  ///< wall inside answer_queries
  double fastest_batch_s = std::numeric_limits<double>::infinity();

 private:
  std::size_t n_;
  std::mt19937_64 rng_;
  std::vector<core::ReadQuery> queries_;
  std::vector<core::ReadAnswer> answers_;
};

/// The final-state checks, run after timing: the partition against the
/// connectivity oracle and, for weighted workloads, the forest weight
/// against the exact MSF weight.
void check_final_state(const UpdateWorkload& w, Instance& inst,
                       const UpdateInputs& inputs, Result& result) {
  ++result.attempted;
  if (!oracle::same_partition(
          inst.forest.component_snapshot(),
          oracle::connected_components(inst.driver.shadow()))) {
    result.fail("final partition differs from oracle::connected_components");
  }
  if (!w.weighted) return;
  graph::WeightedDynamicGraph shadow(w.n);
  for (const auto& e : inputs.preprocessed) shadow.insert_edge(e.u, e.v, e.w);
  for (std::size_t c = 0; c < inst.next_chunk; ++c) {
    for (const graph::Update& up : inputs.chunks[c]) {
      if (up.kind == graph::UpdateKind::kInsert) {
        shadow.insert_edge(up.u, up.v, up.w);
      } else {
        shadow.delete_edge(up.u, up.v);
      }
    }
  }
  const auto exact = static_cast<double>(oracle::msf_weight(shadow));
  const auto forest = static_cast<double>(inst.forest.forest_weight());
  const double eps = w.forest_config().eps;
  ++result.attempted;
  if (forest < exact || forest > (1.0 + eps) * exact) {
    result.fail("forest weight " + std::to_string(forest) +
                " is not within (1+eps) of the MSF weight " +
                std::to_string(exact));
  }
}

void add_end_to_end(const std::vector<double>& setups, const Pass& pass,
                    const ReadProbe& reads, Result& result) {
  const double updates_per_s = static_cast<double>(pass.applied) / pass.wall_s;
  const double applied =
      static_cast<double>(std::max<std::uint64_t>(1, pass.applied));
  result.add("setup_s", median(setups), "s");
  result.add("updates_per_s", updates_per_s, "1/s");
  result.add("batch_iqm_ms", 1e3 * interquartile_mean(pass.batch_s), "ms");
  result.add("batch_p90_ms", 1e3 * quantile(pass.batch_s, 0.9), "ms");
  result.add("rounds_per_update", static_cast<double>(pass.counts.rounds) / applied,
             "rounds");
  result.add("words_per_update", static_cast<double>(pass.counts.words) / applied,
             "words");
  result.add("queries_per_s",
             static_cast<double>(kReadBatch) / reads.fastest_batch_s, "1/s");
}

void add_per_layer(const SetupResult& setup, const Pass& untraced,
                   const Pass& traced, const SpanLog& log,
                   const dmpc::Tracer& tracer, const MeteredExecutor& executor,
                   Result& result) {
  const double apply_s = log.total_s(SpanKind::kApplyBatch) +
                         log.total_s(SpanKind::kUpdate);
  const double validate_s = log.total_s(SpanKind::kValidate);
  const double oracle_s = log.total_s(SpanKind::kOracle);
  result.add("graph.stream_gen_s", setup.stream_gen_s, "s");
  result.add("harness.filter_s", log.self_s(SpanKind::kHarnessRun), "s");
  result.add("harness.checkpoint_s", validate_s + oracle_s, "s");
  result.add("harness.validate_s", validate_s, "s");
  result.add("harness.oracle_s", oracle_s, "s");
  result.add("harness.checkpoints", static_cast<double>(traced.checkpoints),
             "count");
  result.add("harness.skipped_updates", static_cast<double>(traced.skipped),
             "count");
  result.add("forest.apply_batch_s", apply_s, "s");
  result.add("forest.preprocess_s", setup.preprocess_s, "s");
  add_phase_metrics(tracer, apply_s, result);
  add_count_metrics(traced.counts,
                    std::as_const(setup.instance->forest).cluster(), result);
  add_executor_metrics(executor.stats(), result);

  result.layers = {
      {"harness", log.self_s(SpanKind::kHarnessRun)},
      {"harness.checkpoint",
       log.self_s(SpanKind::kValidate) + log.self_s(SpanKind::kOracle)},
      {"core.dyn_forest",
       log.self_s(SpanKind::kApplyBatch) + log.self_s(SpanKind::kUpdate)},
      {"dmpc.executor", log.self_s(SpanKind::kDispatch)},
  };
  result.close_layers(traced.wall_s);
  add_self_metrics(result);
  const double untraced_rate =
      static_cast<double>(untraced.applied) / untraced.wall_s;
  const double traced_rate = static_cast<double>(traced.applied) / traced.wall_s;
  result.add("trace.overhead_pct", 100.0 * (untraced_rate / traced_rate - 1.0),
             "%");
}

}  // namespace

core::DynForestConfig UpdateWorkload::forest_config() const {
  core::DynForestConfig c;
  c.n = n;
  c.m_cap = 4 * n;
  c.weighted = weighted;
  return c;
}

harness::DriverConfig UpdateWorkload::driver_config() const {
  harness::DriverConfig c;
  c.batch_size = kBatch;
  c.checkpoint_every = checkpoint_every;
  c.weighted = weighted;
  // A chunk of kChunkBatches ends on a checkpoint by the cadence alone;
  // the shorter warm-up chunk runs none.
  c.final_checkpoint = false;
  // The benchmark installs the executor itself (plain, or metered in the
  // traced run), so the Driver leaves the cluster's executor alone.
  c.executor = harness::ExecutorKind::kSerial;
  return c;
}

void UpdateWorkload::preprocess(core::DynamicForest& forest,
                                harness::Driver& driver,
                                const UpdateInputs& inputs) const {
  if (weighted) {
    forest.preprocess(inputs.preprocessed);
    driver.seed(inputs.preprocessed);
    return;
  }
  graph::EdgeList edges;
  for (const auto& e : inputs.preprocessed) edges.emplace_back(e.u, e.v);
  forest.preprocess(edges);
  driver.seed(edges);
}

UpdateInputs UpdateWorkload::make_inputs(std::uint64_t seed) const {
  const graph::UpdateStream full = generate(n, stream_updates, seed);
  UpdateInputs in;
  std::size_t pos = 0;
  if (preprocess_build_phase) {
    // The build phase (every insert before the first delete) is loaded
    // by preprocess; the timed run streams only the churn after it.
    while (pos < full.size() && full[pos].kind == graph::UpdateKind::kInsert) {
      in.preprocessed.push_back({full[pos].u, full[pos].v, full[pos].w});
      ++pos;
    }
  }
  const std::size_t warmup = kWarmupBatches * kBatch;
  const std::size_t chunk = kChunkBatches * kBatch;
  for (bool first = true; pos < full.size(); first = false) {
    const std::size_t len = std::min(first ? warmup : chunk, full.size() - pos);
    in.chunks.emplace_back(full.begin() + static_cast<std::ptrdiff_t>(pos),
                           full.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }
  return in;
}

UpdateWorkload sparse_churn_workload(std::size_t n) {
  UpdateWorkload w;
  w.n = n;
  w.pooled = true;
  w.generate = &sparse_churn_stream;
  w.stream_updates = 128 * 1024;
  return w;
}

UpdateWorkload mst_audited_deletes_workload(std::size_t n) {
  UpdateWorkload w;
  w.n = n;
  w.weighted = true;
  // A checkpoint (validate + oracle) costs about as much as eight
  // batches, so checkpoints take about half the wall; every chunk ends on
  // one.  A period is as long as one burst of the stream (256 deletes
  // then 256 re-inserts, 32 batches), so every run applies as many
  // deletion batches as insertion batches.
  w.checkpoint_every = kChunkBatches;
  w.chunks_per_period = 4;
  w.generate = &audited_deletes_stream;
  w.preprocess_build_phase = true;
  w.stream_updates = 4 * n;
  return w;
}

Result run_update_workload(const UpdateWorkload& w, const RunOptions& options) {
  Result result;
  std::vector<double> setups;
  SetupResult setup;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    setup = SetupResult{};  // free the previous instance first
    setup = set_up(w, options.seed);
    setups.push_back(setup.setup_s);
  }
  Instance& inst = *setup.instance;
  bool ran_out = false;
  if (!options.trace) {
    // The run ends on a whole period; the read probe follows each one.
    Pass pass;
    ReadProbe reads(w.n, options.seed);
    for (std::size_t chunks = 0;
         !ran_out && (pass.wall_s + reads.busy_s < options.seconds ||
                      chunks % w.chunks_per_period != 0);) {
      pass += run_chunks(inst, setup.inputs, 1, nullptr, ran_out, result);
      if (++chunks % w.chunks_per_period == 0) {
        reads.run(inst, pass.wall_s, result);
      }
    }
    result.attempted += pass.updates();
    check_final_state(w, inst, setup.inputs, result);
    add_end_to_end(setups, pass, reads, result);
    result.add("success_rate",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(
                             std::max<std::uint64_t>(1, result.attempted)),
               "ratio");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // Traced run: periods of chunks alternate between untraced (the
  // overhead baseline) and traced, so neither side gets only the early or
  // the late part of the run.  Traced chunks run on the metered executor with the Tracer
  // and the span log on.
  SpanLog log;
  const std::shared_ptr<dmpc::RoundExecutor> plain =
      w.pooled ? std::shared_ptr<dmpc::RoundExecutor>(
                     std::make_shared<dmpc::ThreadPoolExecutor>(pool_workers()))
               : std::make_shared<dmpc::SerialExecutor>();
  const auto metered = w.pooled ? MeteredExecutor::pool(pool_workers(), &log)
                                : MeteredExecutor::serial(&log);
  const auto tracer = std::make_shared<dmpc::Tracer>(4096);
  Pass untraced;
  Pass traced;
  const std::uint64_t t0 = now_ns();
  for (bool on = false; !ran_out && seconds_since(t0) < options.seconds;
       on = !on) {
    if (on) {
      inst.forest.cluster().set_executor(metered);
    } else {
      inst.forest.cluster().set_executor(plain);
    }
    inst.forest.cluster().set_tracer(on ? tracer : nullptr);
    tracer->set_enabled(on);
    log.set_enabled(on);
    (on ? traced : untraced) +=
        run_chunks(inst, setup.inputs, w.chunks_per_period,
                   on ? &log : nullptr, ran_out, result);
  }
  log.set_enabled(false);
  tracer->set_enabled(false);
  inst.forest.cluster().set_tracer(nullptr);
  inst.forest.cluster().set_executor(plain);
  result.attempted += untraced.updates() + traced.updates();
  check_final_state(w, inst, setup.inputs, result);
  add_per_layer(setup, untraced, traced, log, *tracer, *metered, result);
  if (!options.trace_out.empty()) {
    write_chrome_trace(options.trace_out, {&log}, {"driver"});
  }
  return result;
}

}  // namespace perfbench
