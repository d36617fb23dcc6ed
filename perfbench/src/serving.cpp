// The serving workload, zipf-serving: a serve::QueryBroker over a serial
// forest, fed graph::zipfian_serving_stream open loop.  One generator
// thread submits each op at its due time; one pump thread calls pump()
// whenever something was submitted, then polls the answers.  Every query
// is timed from its due time.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "dmpc/trace.hpp"
#include "layer_metrics.hpp"
#include "layers.hpp"
#include "oracle/oracles.hpp"
#include "serve/query_broker.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Offered rate (ops/s) of every rung: path-weight batches keep the pump
/// busy well under half the time, so the median query never waits behind
/// one.
constexpr double kReferenceRate = 15'000.0;
/// The closed-loop update probe after each rung: kProbePumps timed pumps
/// of kProbeBatch updates each.
constexpr std::size_t kProbePumps = 16;
constexpr std::size_t kProbeBatch = 128;

/// Epochs whose answers the oracle replays (a seeded sample).
constexpr std::size_t kCheckedEpochs = 48;
/// The pump thread drains a rung for at most this long after its last
/// submission; queries still unanswered then count as abandoned.
constexpr double kDrainLimitS = 10.0;
/// Seconds of the warm-up rung, run at the reference rate during set-up.
constexpr double kWarmupS = 0.25;
/// A rung whose backlog of queries passes this stops submitting: the
/// broker is far behind, and a longer queue only costs drain time.
constexpr std::size_t kMaxBacklog = std::size_t{1} << 17;
/// Untraced/traced rung pairs of the traced run.
constexpr std::size_t kTracedPairs = 3;
/// Rung + update-probe passes of the untraced run.
constexpr std::size_t kPasses = 10;

/// A submitted query the pump thread has not seen answered yet.
struct InFlight {
  serve::QueryId id = 0;
  std::size_t op = 0;             ///< index into the stream
  std::uint64_t due_ns = 0;
  std::uint64_t submitted_ns = 0;  ///< end of the submit call
};

/// A delivered answer, kept for the output check.
struct Answered {
  std::size_t op = 0;
  std::size_t epoch = 0;
  bool connected = false;
};

/// What one rung measured; rungs add up.
struct Rung {
  double wall_s = 0.0;  ///< first due time to the last answer
  std::uint64_t planned = 0;  ///< ops the rung should have submitted
  std::uint64_t ops = 0;      ///< ops it submitted
  std::uint64_t unanswered = 0;
  std::uint64_t backlog_max = 0;
  std::uint64_t pumps = 0;
  double pump_busy_s = 0.0;
  double pump_idle_s = 0.0;
  std::vector<double> query_us;     ///< due time to answer
  std::vector<double> broker_us;    ///< ServedAnswer::latency_us
  std::vector<double> submit_us;    ///< duration of each submit call
  std::vector<double> lateness_us;  ///< submit start minus due time
  ForestCounts counts;
  std::uint64_t query_batches = 0;  ///< the broker's, not the cluster's
  std::uint64_t queries_answered = 0;
  std::uint64_t update_batches = 0;
  std::uint64_t updates_applied = 0;

  Rung& operator+=(const Rung& o) {
    wall_s += o.wall_s;
    planned += o.planned;
    ops += o.ops;
    unanswered += o.unanswered;
    backlog_max = std::max(backlog_max, o.backlog_max);
    pumps += o.pumps;
    pump_busy_s += o.pump_busy_s;
    pump_idle_s += o.pump_idle_s;
    for (auto [to, from] :
         {std::pair{&query_us, &o.query_us}, {&broker_us, &o.broker_us},
          {&submit_us, &o.submit_us}, {&lateness_us, &o.lateness_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    counts += o.counts;
    query_batches += o.query_batches;
    queries_answered += o.queries_answered;
    update_batches += o.update_batches;
    updates_applied += o.updates_applied;
    return *this;
  }
};

/// One workload instance: the stream, the forest, the broker, and the
/// bookkeeping the output check replays.
struct Instance {
  Instance(const ServingWorkload& w, graph::MixedStream ops)
      : n(w.n),
        stream(std::move(ops)),
        forest({.n = w.n, .m_cap = 4 * w.n}),
        broker(forest, {.max_query_batch = 256,
                        .max_pending_queries = std::size_t{1} << 22,
                        .max_pending_updates = std::size_t{1} << 20}) {}

  std::size_t n;
  graph::MixedStream stream;
  std::size_t prefix = 0;  ///< build-phase ops, loaded by preprocess
  std::size_t next_op = 0;
  core::DynamicForest forest;
  serve::QueryBroker broker;
  /// Updates the broker accepted, in submission order (= commit order).
  std::vector<graph::Update> accepted;
  /// updates_applied after the pump that committed epoch e.
  std::vector<std::uint64_t> applied_at_epoch{0};
  std::vector<Answered> answers;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
};

/// Runs the next rate x seconds ops of the stream at `rate` ops/s, open
/// loop.
Rung run_rung(Instance& inst, double rate, double seconds, SpanLog* pump_log,
              SpanLog* gen_log) {
  Rung r;
  const serve::ServingStats stats_before = inst.broker.stats();
  const ForestCounts counts_before = ForestCounts::of(inst.forest);
  const std::size_t first = inst.next_op;
  r.planned = static_cast<std::uint64_t>(rate * seconds);
  // A stream too short for the rung submits fewer ops than planned.
  const std::size_t last =
      std::min(inst.stream.size(), first + static_cast<std::size_t>(r.planned));

  // Every per-op vector is sized up front: growing one mid-rung copies it
  // and stalls the thread that owns it, which would show as latency.
  const std::size_t planned = last - first;
  for (std::vector<double>* v :
       {&r.query_us, &r.broker_us, &r.submit_us, &r.lateness_us}) {
    v->reserve(planned);
  }
  std::mutex mu;  // guards fresh and generator_done
  // The in-flight lists hold only the backlog.
  const std::size_t backlog_reserve = std::min(planned, kMaxBacklog + 1);
  std::vector<InFlight> fresh;
  fresh.reserve(backlog_reserve);
  bool generator_done = false;
  std::atomic<std::uint64_t> submitted{0};
  const std::uint64_t start_ns = now_ns() + 1'000'000;  // 1 ms from now

  // Declared after everything it uses; its destructor stops and joins it
  // on every path out of this function.
  std::jthread generator([&](const std::stop_token& stop) {
    for (std::size_t i = first; i < last; ++i) {
      if (stop.stop_requested()) break;
      const graph::MixedOp& op = inst.stream[i];
      const std::uint64_t due =
          start_ns + static_cast<std::uint64_t>(
                         static_cast<double>(i - first) * 1e9 / rate);
      for (std::uint64_t now = now_ns(); now < due; now = now_ns()) {
        if (due - now > 200'000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 100'000));
        }
      }
      const std::uint64_t t0 = now_ns();
      std::optional<serve::QueryId> id;
      {
        SpanScope span(gen_log, SpanKind::kSubmit, i);
        if (op.kind == graph::MixedKind::kUpdate) {
          if (inst.broker.submit_update(op.as_update())) {
            inst.accepted.push_back(op.as_update());
          } else {
            ++inst.rejected;
          }
        } else {
          id = op.kind == graph::MixedKind::kConnected
                   ? inst.broker.submit_query(
                         {core::QueryKind::kConnected, op.u, op.v})
                   : inst.broker.submit_query(
                         {core::QueryKind::kPathWeight, op.u, op.v});
          if (!id) ++inst.shed;
        }
      }
      const std::uint64_t t1 = now_ns();
      r.lateness_us.push_back(static_cast<double>(t0 - due) * 1e-3);
      r.submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      ++r.ops;
      if (id) {
        const std::lock_guard<std::mutex> lock(mu);
        fresh.push_back({*id, i, due, t1});
      }
      submitted.fetch_add(1, std::memory_order_release);
    }
    const std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  });

  // The pump thread is this thread: pump whenever something new was
  // submitted, then poll every query in flight.
  std::vector<InFlight> in_flight;
  std::vector<InFlight> taken;
  in_flight.reserve(backlog_reserve);
  taken.reserve(backlog_reserve);
  std::uint64_t handled = 0;
  std::uint64_t drain_deadline_ns = 0;
  while (true) {
    const std::uint64_t seen = submitted.load(std::memory_order_acquire);
    if (seen == handled) {
      bool done = false;
      {
        const std::lock_guard<std::mutex> lock(mu);
        done = generator_done && fresh.empty();
      }
      if (done && in_flight.empty()) break;
      if (done && drain_deadline_ns == 0) {
        drain_deadline_ns =
            now_ns() + static_cast<std::uint64_t>(kDrainLimitS * 1e9);
      }
      if (drain_deadline_ns != 0 && now_ns() > drain_deadline_ns) break;
      if (!done || in_flight.empty()) {
        const std::uint64_t t0 = now_ns();
        std::this_thread::yield();
        r.pump_idle_s += static_cast<double>(now_ns() - t0) * 1e-9;
        continue;
      }
    }
    handled = seen;
    const std::uint64_t batches_before = inst.broker.stats().update_batches;
    const std::uint64_t t0 = now_ns();
    {
      SpanScope span(pump_log, SpanKind::kPump, inst.broker.epoch());
      inst.broker.pump();
    }
    const double pump_s = static_cast<double>(now_ns() - t0) * 1e-9;
    ++r.pumps;
    r.pump_busy_s += pump_s;
    SpanScope span(pump_log, SpanKind::kPoll, inst.broker.epoch());
    const serve::ServingStats stats = inst.broker.stats();
    if (stats.update_batches != batches_before) {
      inst.applied_at_epoch.resize(inst.broker.epoch() + 1,
                                   stats.updates_applied);
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      taken.swap(fresh);
    }
    in_flight.insert(in_flight.end(), taken.begin(), taken.end());
    taken.clear();
    std::size_t kept = 0;
    for (const InFlight& q : in_flight) {
      const std::optional<serve::ServedAnswer> a = inst.broker.try_answer(q.id);
      if (!a) {
        in_flight[kept++] = q;
        continue;
      }
      r.query_us.push_back(static_cast<double>(q.submitted_ns - q.due_ns) *
                               1e-3 +
                           a->latency_us);
      r.broker_us.push_back(a->latency_us);
      inst.answers.push_back({q.op, a->epoch, a->answer.connected});
    }
    in_flight.resize(kept);
    r.backlog_max = std::max<std::uint64_t>(r.backlog_max, kept);
    if (kept > kMaxBacklog) generator.request_stop();
  }
  generator.request_stop();
  generator.join();
  r.unanswered = in_flight.size();
  r.wall_s = seconds_since(start_ns);
  inst.next_op = first + r.ops;
  const serve::ServingStats stats = inst.broker.stats();
  r.query_batches = stats.query_batches - stats_before.query_batches;
  r.queries_answered = stats.queries_answered - stats_before.queries_answered;
  r.update_batches = stats.update_batches - stats_before.update_batches;
  r.updates_applied = stats.updates_applied - stats_before.updates_applied;
  r.counts = ForestCounts::of(inst.forest);
  r.counts -= counts_before;
  return r;
}

/// The update probe: closed loop, kProbePumps timed pumps, each committing
/// one batch of kProbeBatch updates: half of them chord inserts inside
/// seeded random blocks, half the deletion of the chords the pump before
/// inserted.  An untimed pump before them inserts the first chords and
/// one after them deletes the last, so the graph the rungs serve is left
/// as it was, and every timed pump commits the same mix.
class UpdateProbe {
 public:
  UpdateProbe(const ServingWorkload& w, std::uint64_t seed)
      : block_size_(w.n / w.blocks),
        blocks_(w.blocks),
        rng_(seed ^ 0x0bad5eedULL) {}

  void run(Instance& inst) {
    const ForestCounts before = ForestCounts::of(inst.forest);
    std::vector<graph::Update> live;  // chords the last pump inserted
    std::vector<graph::Update> batch;
    for (std::size_t p = 0; p <= kProbePumps + 1; ++p) {
      batch.clear();
      for (graph::Update up : live) {
        up.kind = graph::UpdateKind::kDelete;
        batch.push_back(up);
      }
      live.clear();
      while (p <= kProbePumps && live.size() < kProbeBatch / 2) {
        const auto lo = static_cast<dmpc::VertexId>((rng_() % blocks_) *
                                                    block_size_);
        const auto u = static_cast<dmpc::VertexId>(lo + rng_() % block_size_);
        const auto v = static_cast<dmpc::VertexId>(lo + rng_() % block_size_);
        if (std::max(u, v) - std::min(u, v) < 2) continue;
        live.push_back({graph::UpdateKind::kInsert, u, v, 1});
      }
      batch.insert(batch.end(), live.begin(), live.end());
      const double s = commit(inst, batch);
      if (p >= 1 && p <= kProbePumps) pump_s.push_back(s);
      updates += batch.size();
    }
    ForestCounts delta = ForestCounts::of(inst.forest);
    delta -= before;
    counts += delta;
  }

  std::vector<double> pump_s;  ///< wall of every timed pump
  std::uint64_t updates = 0;
  ForestCounts counts;

 private:
  /// Queues `ups` and returns the wall of the pump that commits them.
  static double commit(Instance& inst, const std::vector<graph::Update>& ups) {
    for (const graph::Update& up : ups) {
      if (inst.broker.submit_update(up)) {
        inst.accepted.push_back(up);
      } else {
        ++inst.rejected;
      }
    }
    const std::uint64_t t0 = now_ns();
    inst.broker.pump();
    const double s = seconds_since(t0);
    inst.applied_at_epoch.resize(inst.broker.epoch() + 1,
                                 inst.broker.stats().updates_applied);
    return s;
  }

  std::size_t block_size_;
  std::size_t blocks_;
  std::mt19937_64 rng_;
};

struct SetUp {
  std::unique_ptr<Instance> instance;
  double setup_s = 0.0;
  double stream_gen_s = 0.0;
  double preprocess_s = 0.0;
};

SetUp set_up(const ServingWorkload& w, std::uint64_t seed,
             std::size_t length) {
  SetUp s;
  const std::uint64_t t0 = now_ns();
  graph::MixedStream ops =
      graph::zipfian_serving_stream(w.stream_config(seed, length));
  s.stream_gen_s = seconds_since(t0);
  s.instance = std::make_unique<Instance>(w, std::move(ops));
  Instance& inst = *s.instance;
  inst.answers.reserve(inst.stream.size());
  inst.applied_at_epoch.reserve(inst.stream.size());
  inst.accepted.reserve(inst.stream.size() / 8);
  // The build phase wires each block with a path of (u, u+1) inserts; the
  // main phase never inserts such an edge.  It is loaded by preprocess.
  graph::EdgeList build;
  while (inst.prefix < inst.stream.size()) {
    const graph::MixedOp& op = inst.stream[inst.prefix];
    if (op.kind != graph::MixedKind::kUpdate ||
        op.update != graph::UpdateKind::kInsert || op.v != op.u + 1) {
      break;
    }
    build.emplace_back(op.u, op.v);
    ++inst.prefix;
  }
  const std::uint64_t t1 = now_ns();
  inst.forest.preprocess(build);
  s.preprocess_s = seconds_since(t1);
  inst.next_op = inst.prefix;
  run_rung(inst, kReferenceRate, kWarmupS, nullptr, nullptr);
  s.setup_s = seconds_since(t0);
  return s;
}

/// Replays an oracle to each answer's stamped epoch and compares the
/// connectivity bit, on a seeded sample of the epochs that answered
/// queries (every answer of a sampled epoch is checked).
void check_answers(const Instance& inst, std::uint64_t seed, Result& result) {
  std::vector<std::size_t> epochs;
  for (const Answered& a : inst.answers) epochs.push_back(a.epoch);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  std::mt19937_64 rng(seed ^ 0xc0ffee5eedULL);
  std::shuffle(epochs.begin(), epochs.end(), rng);
  epochs.resize(std::min(epochs.size(), kCheckedEpochs));
  std::sort(epochs.begin(), epochs.end());
  std::map<std::size_t, std::vector<const Answered*>> by_epoch;
  for (const std::size_t e : epochs) by_epoch[e];
  for (const Answered& a : inst.answers) {
    const auto it = by_epoch.find(a.epoch);
    if (it != by_epoch.end()) it->second.push_back(&a);
  }
  graph::DynamicGraph g(inst.n);
  for (std::size_t i = 0; i < inst.prefix; ++i) {
    g.insert_edge(inst.stream[i].u, inst.stream[i].v);
  }
  std::size_t applied = 0;
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  for (const auto& [epoch, answers] : by_epoch) {
    if (epoch >= inst.applied_at_epoch.size()) {
      result.fail("an answer is stamped with an epoch no pump committed",
                  answers.size());
      continue;
    }
    const std::uint64_t target = inst.applied_at_epoch[epoch];
    while (applied < target) graph::apply_update(g, inst.accepted[applied++]);
    const std::vector<dmpc::VertexId> labels = oracle::connected_components(g);
    for (const Answered* a : answers) {
      const graph::MixedOp& op = inst.stream[a->op];
      ++checked;
      if (a->connected != (labels[op.u] == labels[op.v])) ++wrong;
    }
  }
  if (wrong != 0) {
    result.fail(std::to_string(wrong) + " of " + std::to_string(checked) +
                    " sampled answers differ from the oracle at their epoch",
                wrong);
  }
}

}  // namespace

graph::ZipfianServingConfig ServingWorkload::stream_config(
    std::uint64_t seed, std::size_t length) const {
  graph::ZipfianServingConfig c;
  c.n = n;
  c.length = length;
  c.blocks = blocks;
  c.zipf_s = 1.1;
  c.query_fraction = 0.95;
  c.path_query_fraction = 0.03;
  c.seed = seed;
  return c;
}

ServingWorkload zipf_serving_workload() { return ServingWorkload{}; }

Result run_serving_workload(const ServingWorkload& w,
                            const RunOptions& options) {
  Result result;
  // Untraced: kPasses reference-rate rungs, each followed by an update
  // probe.  Traced: 2 x kTracedPairs reference-rate rungs.
  const double rung_s =
      options.seconds /
      static_cast<double>(options.trace ? 2 * kTracedPairs : kPasses);
  const std::size_t length =
      w.n + static_cast<std::size_t>(
                1.02 * (kWarmupS + options.seconds) * kReferenceRate);

  std::vector<double> setups;
  SetUp setup;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    setup = SetUp{};  // free the previous instance first
    setup = set_up(w, options.seed, length);
    setups.push_back(setup.setup_s);
  }
  Instance& inst = *setup.instance;
  const auto count_rung = [&](const Rung& r) {
    result.attempted += r.planned;
    if (r.planned != r.ops) {
      result.fail(std::to_string(r.planned - r.ops) +
                      " planned ops were never submitted",
                  r.planned - r.ops);
    }
    if (r.unanswered != 0) {
      result.fail(std::to_string(r.unanswered) + " queries were never answered",
                  r.unanswered);
    }
  };

  if (!options.trace) {
    // The broker serves the stream open loop at the reference rate; the
    // update probe between rungs measures its update path closed loop.
    UpdateProbe updates(w, options.seed);
    std::uint64_t answered = 0;
    double pump_busy_s = 0.0;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      const Rung r = run_rung(inst, kReferenceRate, rung_s, nullptr, nullptr);
      count_rung(r);
      answered += r.queries_answered;
      pump_busy_s += r.pump_busy_s;
      updates.run(inst);
    }
    check_answers(inst, options.seed, result);
    const double applied =
        static_cast<double>(std::max<std::uint64_t>(1, updates.updates));
    result.add("setup_s", median(setups), "s");
    // At the median commit time: a probe pump that caught a host stall
    // would otherwise set the rate of its whole run.
    result.add("updates_per_s",
               static_cast<double>(kProbeBatch) / quantile(updates.pump_s, 0.5),
               "1/s");
    result.add("batch_iqm_ms", 1e3 * interquartile_mean(updates.pump_s),
               "ms");
    result.add("batch_p90_ms", 1e3 * quantile(updates.pump_s, 0.9), "ms");
    result.add("rounds_per_update",
               static_cast<double>(updates.counts.rounds) / applied, "rounds");
    result.add("words_per_update",
               static_cast<double>(updates.counts.words) / applied, "words");
    // An average over every pump of the rungs, which also commit the
    // stream's own updates: a tail would not repeat (see the README).
    result.add("queries_per_s", static_cast<double>(answered) / pump_busy_s,
               "1/s");
    result.add("success_rate",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(
                             std::max<std::uint64_t>(1, result.attempted)),
               "ratio");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // Traced run: short reference-rate rungs alternate between untraced
  // (the overhead baseline) and traced, so neither side gets only the
  // early or the late part of the run.
  SpanLog pump_log;
  SpanLog gen_log;
  const auto plain = std::make_shared<dmpc::SerialExecutor>();
  const auto metered = MeteredExecutor::serial(&pump_log);
  const auto tracer = std::make_shared<dmpc::Tracer>(4096);
  Rung untraced;
  Rung traced;
  for (std::size_t i = 0; i < 2 * kTracedPairs; ++i) {
    const bool on = i % 2 == 1;
    if (on) {
      inst.forest.cluster().set_executor(metered);
    } else {
      inst.forest.cluster().set_executor(plain);
    }
    inst.forest.cluster().set_tracer(on ? tracer : nullptr);
    tracer->set_enabled(on);
    pump_log.set_enabled(on);
    gen_log.set_enabled(on);
    (on ? traced : untraced) +=
        run_rung(inst, kReferenceRate, rung_s, on ? &pump_log : nullptr,
                 on ? &gen_log : nullptr);
  }
  pump_log.set_enabled(false);
  gen_log.set_enabled(false);
  tracer->set_enabled(false);
  inst.forest.cluster().set_tracer(nullptr);
  inst.forest.cluster().set_executor(plain);
  count_rung(untraced);
  count_rung(traced);
  check_answers(inst, options.seed, result);

  const double pump_s = pump_log.total_s(SpanKind::kPump);
  result.add("graph.stream_gen_s", setup.stream_gen_s, "s");
  result.add("forest.preprocess_s", setup.preprocess_s, "s");
  const double phases = add_phase_metrics(*tracer, pump_s, result);
  add_count_metrics(traced.counts, std::as_const(inst.forest).cluster(),
                    result);
  add_executor_metrics(metered->stats(), result);

  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  result.add("serve.pumps", count(traced.pumps), "count");
  result.add("serve.pump_busy_s", traced.pump_busy_s, "s");
  result.add("serve.pump_idle_s", traced.pump_idle_s, "s");
  result.add("serve.query_batches", count(traced.query_batches), "count");
  result.add("serve.queries_per_batch",
             count(traced.queries_answered) /
                 std::max(1.0, count(traced.query_batches)),
             "count");
  result.add("serve.update_batches", count(traced.update_batches), "count");
  result.add("serve.updates_per_batch",
             count(traced.updates_applied) /
                 std::max(1.0, count(traced.update_batches)),
             "count");
  // Client latency from due time to answer, at the reference rate, from
  // the untraced rungs: tracing would inflate it.
  result.add("serve.query_p50_us", quantile(untraced.query_us, 0.5), "us");
  result.add("serve.query_p99_us", quantile(untraced.query_us, 0.99), "us");
  result.add("serve.broker_latency_p99_us", quantile(traced.broker_us, 0.99),
             "us");
  result.add("serve.submit_call_p99_us", quantile(traced.submit_us, 0.99),
             "us");
  result.add("serve.generator_lateness_p99_us",
             quantile(traced.lateness_us, 0.99), "us");
  result.add("serve.backlog_max", static_cast<double>(traced.backlog_max),
             "count");
  result.add("serve.queries_shed", static_cast<double>(inst.shed), "count");
  result.add("serve.updates_rejected", static_cast<double>(inst.rejected),
             "count");

  // The pump thread's timeline: every pump, poll and idle wait on it.
  // Forest phases run inside pumps; executor dispatches inside phases.
  const double executor_self = pump_log.self_s(SpanKind::kDispatch);
  result.layers = {
      {"serve", pump_s - phases + pump_log.total_s(SpanKind::kPoll)},
      {"serve.idle", traced.pump_idle_s},
      {"core.dyn_forest", phases - executor_self},
      {"dmpc.executor", executor_self},
  };
  result.close_layers(traced.wall_s);
  add_self_metrics(result);
  const auto busy_per_op = [](const Rung& r) {
    return r.pump_busy_s / static_cast<double>(std::max<std::uint64_t>(1, r.ops));
  };
  result.add("trace.overhead_pct",
             100.0 * (busy_per_op(traced) / busy_per_op(untraced) - 1.0), "%");
  if (!options.trace_out.empty()) {
    write_chrome_trace(options.trace_out, {&pump_log, &gen_log},
                       {"pump", "generator"});
  }
  return result;
}

}  // namespace perfbench
