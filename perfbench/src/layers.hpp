// The benchmark's probes on the layers below the harness, measured from
// outside through each layer's public functions:
//
//   * TimedForest<F> forwards the forest's Driver-facing calls
//     (insert/erase/apply_batch, the lookahead overload included, validate,
//     cluster, batch_stats) and times them.  Each forwarder exists only
//     while F has the call, so the adapter satisfies exactly the Driver
//     concepts F satisfies and harness::Driver takes the same path
//     through either.
//   * MeteredExecutor is a dmpc::RoundExecutor decorator, installed with
//     Cluster::set_executor, that counts and times every dispatch and
//     every task of it.
//
// Both write spans into a SpanLog only while that log is enabled (the
// traced run).  TimedForest always records each apply_batch wall time:
// two clock reads per batch, which the batch_p* metrics need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dmpc/executor.hpp"
#include "graph/update_stream.hpp"
#include "spans.hpp"

namespace perfbench {

/// What TimedForest measured.
struct ForestProbe {
  SpanLog* log = nullptr;           ///< spans go here while it is enabled
  std::vector<double> batch_s;      ///< wall of every apply_batch call
  std::uint64_t next_batch_id = 0;  ///< span id of the next batch
};

template <typename F>
class TimedForest {
 public:
  TimedForest(F& forest, ForestProbe& probe) : f_(forest), probe_(&probe) {}

  void insert(dmpc::VertexId u, dmpc::VertexId v) {
    SpanScope span(probe_->log, SpanKind::kUpdate);
    f_.insert(u, v);
  }
  void insert(dmpc::VertexId u, dmpc::VertexId v, graph::Weight w)
    requires requires(F& f) { f.insert(u, v, w); }
  {
    SpanScope span(probe_->log, SpanKind::kUpdate);
    f_.insert(u, v, w);
  }
  void erase(dmpc::VertexId u, dmpc::VertexId v) {
    SpanScope span(probe_->log, SpanKind::kUpdate);
    f_.erase(u, v);
  }

  void apply_batch(std::span<const graph::Update> batch)
    requires requires(F& f) { f.apply_batch(batch); }
  {
    const BatchTimer timer(*probe_);
    f_.apply_batch(batch);
  }
  void apply_batch(std::span<const graph::Update> batch,
                   std::span<const graph::Update> lookahead)
    requires requires(F& f) { f.apply_batch(batch, lookahead); }
  {
    const BatchTimer timer(*probe_);
    f_.apply_batch(batch, lookahead);
  }

  [[nodiscard]] bool validate(std::string* why) const
    requires requires(const F& f) { f.validate(why); }
  {
    SpanScope span(probe_->log, SpanKind::kValidate,
                   probe_->log != nullptr ? probe_->log->current_id() : 0);
    return f_.validate(why);
  }

  [[nodiscard]] decltype(auto) cluster() { return f_.cluster(); }
  [[nodiscard]] decltype(auto) cluster() const {
    return std::as_const(f_).cluster();
  }

  [[nodiscard]] decltype(auto) batch_stats() const
    requires requires(const F& f) { f.batch_stats(); }
  {
    return std::as_const(f_).batch_stats();
  }

 private:
  /// Times one apply_batch into the probe, and spans it when traced.
  class BatchTimer {
   public:
    explicit BatchTimer(ForestProbe& probe)
        : probe_(probe),
          span_(probe.log, SpanKind::kApplyBatch, probe.next_batch_id++),
          begin_ns_(now_ns()) {}
    BatchTimer(const BatchTimer&) = delete;
    BatchTimer& operator=(const BatchTimer&) = delete;
    ~BatchTimer() {
      probe_.batch_s.push_back(static_cast<double>(now_ns() - begin_ns_) *
                               1e-9);
    }

   private:
    ForestProbe& probe_;
    SpanScope span_;
    std::uint64_t begin_ns_;
  };

  F& f_;
  ForestProbe* probe_;
};

/// Counters of MeteredExecutor.
struct ExecutorStats {
  std::uint64_t dispatches = 0;
  std::uint64_t tasks = 0;
  std::uint64_t inline_dispatches = 0;  ///< ran on the calling thread only
  std::uint64_t dispatch_ns = 0;        ///< wall inside run()
  std::uint64_t task_busy_ns = 0;       ///< sum of task durations
  /// Sum over dispatches of (threads that could run its tasks) x (its
  /// wall): the denominator of utilization.
  std::uint64_t capacity_ns = 0;
  /// Sum over dispatches of (longest task - mean task).
  std::uint64_t straggler_ns = 0;
};

/// Decorates a RoundExecutor with dispatch and per-task timing.  Tasks
/// write only their own slot of the per-dispatch timing vector, so the
/// executor's concurrency contract is unchanged.  Over a one-thread
/// executor the whole dispatch counts as task time.
class MeteredExecutor final : public dmpc::RoundExecutor {
 public:
  /// `threads`: how many threads the inner executor runs a dispatch on
  /// (the pool's workers plus the caller; 1 for a serial executor).
  /// Dispatches of at most `inline_cutoff` tasks run on the caller alone.
  MeteredExecutor(std::shared_ptr<dmpc::RoundExecutor> inner,
                  std::size_t threads, std::size_t inline_cutoff,
                  SpanLog* log);

  /// Wraps the serial executor: every dispatch runs inline.
  static std::shared_ptr<MeteredExecutor> serial(SpanLog* log);
  /// Wraps a ThreadPoolExecutor with `workers` workers plus the caller.
  static std::shared_ptr<MeteredExecutor> pool(std::size_t workers,
                                               SpanLog* log);

  void run(std::size_t count,
           const std::function<void(std::size_t)>& work) override;
  [[nodiscard]] const char* name() const override { return inner_->name(); }

  [[nodiscard]] const ExecutorStats& stats() const { return stats_; }

 private:
  std::shared_ptr<dmpc::RoundExecutor> inner_;
  std::size_t threads_;
  std::size_t inline_cutoff_;
  SpanLog* log_;
  std::vector<std::uint64_t> task_ns_;
  ExecutorStats stats_;
};

}  // namespace perfbench
