#include "harness/driver.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

namespace harness {
namespace {

/// Folds one per-update record into a per-batch accumulator: rounds and
/// traffic add up, the per-round maxima stay maxima.
void accumulate(dmpc::UpdateRecord& batch, const dmpc::UpdateRecord& up) {
  batch.rounds += up.rounds;
  batch.total_comm_words += up.total_comm_words;
  batch.max_active_machines =
      std::max(batch.max_active_machines, up.max_active_machines);
  batch.max_comm_words = std::max(batch.max_comm_words, up.max_comm_words);
}

/// Capped exponential backoff before retry `attempt` (0-based).
void recovery_backoff(const DriverConfig& config, std::size_t attempt) {
  if (config.recovery_backoff_base_us == 0) return;
  const std::uint64_t shift = std::min<std::size_t>(attempt, 20);
  const std::uint64_t us = std::min(config.recovery_backoff_cap_us,
                                    config.recovery_backoff_base_us << shift);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Bisect-and-retry recovery after a failed whole-batch apply (which the
/// caller already counted): sub-batches are retried in batch order with
/// backoff, split in half when retries run out, and abandoned as
/// singletons.  `attempt(off, len)` applies b[off, off+len); `abandoned`
/// is marked per dropped position.  Assumes the algorithm restores its
/// pre-attempt state on every throw (the strong exception guarantee).
template <typename Attempt>
void recover_batch(const DriverConfig& config, std::size_t size,
                   const Attempt& attempt, RecoveryStats& rs,
                   std::vector<char>& abandoned) {
  std::deque<std::pair<std::size_t, std::size_t>> segs;
  segs.emplace_back(0, size);
  while (!segs.empty()) {
    const auto [off, len] = segs.front();
    segs.pop_front();
    bool committed = false;
    for (std::size_t a = 0; a < std::max<std::size_t>(
                                    1, config.recovery_max_retries) &&
                            !committed;
         ++a) {
      recovery_backoff(config, a);
      ++rs.retries;
      try {
        attempt(off, len);
        committed = true;
      } catch (...) {
        ++rs.aborts;
      }
    }
    if (committed) {
      rs.updates_recovered += len;
    } else if (len > 1) {
      ++rs.bisections;
      const std::size_t half = len / 2;
      segs.emplace_front(off + half, len - half);
      segs.emplace_front(off, half);
    } else {
      ++rs.updates_abandoned;
      abandoned[off] = 1;
    }
  }
}

}  // namespace

const AlgorithmStats* DriverReport::find(std::string_view name) const {
  for (const auto& a : algorithms) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

Driver::Driver(std::size_t n, DriverConfig config)
    : config_(config), shadow_(n) {}

void Driver::seed(const graph::EdgeList& edges) {
  for (auto [u, v] : edges) shadow_.insert_edge(u, v);
}

void Driver::seed(const graph::WeightedEdgeList& edges) {
  for (const auto& e : edges) shadow_.insert_edge(e.u, e.v);
}

void Driver::run_checkpoint() {
  for (const Handle& h : handles_) {
    if (!h.validate) continue;
    std::string why;
    if (!h.validate(&why)) {
      throw ValidationError("algorithm '" + h.name +
                            "' failed validate() at step " +
                            std::to_string(report_.applied) + ": " + why);
    }
  }
  const Checkpoint cp{report_.applied, shadow_};
  for (const CheckpointFn& fn : checkpoint_fns_) fn(cp);
  ++report_.checkpoints;
}

const DriverReport& Driver::run(const graph::UpdateStream& stream) {
  while (report_.algorithms.size() < handles_.size()) {
    const Handle& h = handles_[report_.algorithms.size()];
    AlgorithmStats stats;
    stats.name = h.name;
    stats.instrumented = static_cast<bool>(h.last_update);
    stats.batched = batching() && static_cast<bool>(h.apply_batch);
    stats.scheduled = stats.batched && static_cast<bool>(h.sched_stats);
    report_.algorithms.push_back(std::move(stats));
  }
  // The open batch's effective updates (already applied to the filter
  // shadow).  Per-update algorithms are fed at batch close too, so every
  // checkpoint observes all algorithms at the same committed step.
  std::vector<graph::Update> batch;
  // Per-algorithm accumulation of a closing batch's per-update records
  // (serial instrumented algorithms only).
  std::vector<dmpc::UpdateRecord> batch_acc(handles_.size());
  std::size_t batches_since_checkpoint = 0;
  // True while the current state has already been checkpointed, so the
  // final checkpoint is skipped when the last batch landed on a
  // checkpoint boundary (no duplicate oracle sweeps on identical state).
  bool at_checkpoint = false;
  // Set when stop_when_ fires at a checkpoint: the run returns without
  // reading or applying anything further.
  bool stopped = false;
  const auto close_batch = [&](const std::vector<graph::Update>& b) {
    // Positions dropped by recovery (exhausted retries), union across
    // handles: they must not reach the shadow or later handles.  With
    // several algorithms registered, handles processed BEFORE the one
    // that abandoned have already applied the update — mixed
    // registration only stays differential while nothing is abandoned.
    std::vector<char> abandoned(b.size(), 0);
    dmpc::PhaseScope batch_phase(tracer_.get(), dmpc::TracePhase::kBatch);
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      const Handle& h = handles_[i];
      RecoveryStats& rs = report_.algorithms[i].recovery;
      if (batching() && h.apply_batch) {
        const std::span<const graph::Update> whole(b);
        if (!config_.recover_failures) {
          h.apply_batch(whole);
        } else {
          bool ok = true;
          try {
            h.apply_batch(whole);
          } catch (...) {
            ok = false;
            ++rs.aborts;
          }
          if (!ok) {
            dmpc::PhaseScope recovery(tracer_.get(),
                                      dmpc::TracePhase::kRecovery);
            recover_batch(
                config_, b.size(),
                [&](std::size_t off, std::size_t len) {
                  h.apply_batch(whole.subspan(off, len));
                },
                rs, abandoned);
          }
        }
        if (h.last_update) {
          report_.algorithms[i].batch_agg.absorb(h.last_update());
        }
        // The algorithm's scheduler stats are cumulative; keep the
        // report's copy current after every batch.
        if (h.sched_stats) report_.algorithms[i].sched = h.sched_stats();
      } else {
        for (std::size_t j = 0; j < b.size(); ++j) {
          if (abandoned[j] != 0) continue;
          const graph::Update& up = b[j];
          if (!config_.recover_failures) {
            h.apply(up);
          } else {
            // The per-update analogue: retry the lone update with
            // backoff, abandon when retries run out.
            bool ok = true;
            try {
              h.apply(up);
            } catch (...) {
              ok = false;
              ++rs.aborts;
            }
            if (!ok) {
              std::vector<char> one(1, 0);
              dmpc::PhaseScope recovery(tracer_.get(),
                                        dmpc::TracePhase::kRecovery);
              recover_batch(
                  config_, 1,
                  [&](std::size_t, std::size_t) { h.apply(up); }, rs, one);
              if (one[0] != 0) {
                abandoned[j] = 1;
                continue;
              }
            }
          }
          if (h.last_update) {
            const dmpc::UpdateRecord rec = h.last_update();
            report_.algorithms[i].agg.absorb(rec);
            accumulate(batch_acc[i], rec);
          }
        }
        if (h.last_update) {
          report_.algorithms[i].batch_agg.absorb(batch_acc[i]);
          batch_acc[i] = dmpc::UpdateRecord{};
        }
      }
    }
    // The batch span ends here: commit hooks (the serving layer's epoch
    // pump) and checkpoints that follow are not batch-apply work.
    batch_phase.close();
    std::size_t dropped = 0;
    for (const char a : abandoned) dropped += a != 0 ? 1 : 0;
    report_.applied += b.size() - dropped;
    if (dropped != 0) {
      // The filter shadow ran ahead of the algorithms; peel the
      // abandoned updates back out (newest first) so checkpoints and
      // later filtering compare against what actually committed.
      for (std::size_t j = b.size(); j-- > 0;) {
        if (abandoned[j] == 0) continue;
        if (b[j].kind == graph::UpdateKind::kInsert) {
          shadow_.delete_edge(b[j].u, b[j].v);
        } else {
          shadow_.insert_edge(b[j].u, b[j].v);
        }
      }
    }
    ++report_.batches;
    for (const auto& fn : batch_commit_fns_) fn(report_.batches, shadow_);
    for (const auto& fn : batch_end_fns_) fn();
    if (config_.checkpoint_every != 0 &&
        ++batches_since_checkpoint >= config_.checkpoint_every) {
      batches_since_checkpoint = 0;
      run_checkpoint();
      at_checkpoint = true;
      if (stop_when_ && stop_when_()) stopped = true;
    }
  };
  for (const graph::Update& up : stream) {
    if (stopped) break;
    // Enforce the algorithms' preconditions against the shadow: inserts of
    // present edges and deletes of absent ones are no-ops and are dropped.
    if (!graph::apply_update(shadow_, up)) {
      ++report_.skipped;
      continue;
    }
    // Queue the update as the serial path would pass it: when the driver
    // is configured weighted the stream's weight travels verbatim (0
    // included — it is a legal weight); otherwise serial inserts see the
    // algorithms' default weight of 1, so the batch carries that.  Batched
    // and serial application therefore see identical inputs.
    graph::Update queued = up;
    if (!config_.weighted) queued.w = 1;
    batch.push_back(queued);
    at_checkpoint = false;
    if (batch.size() == config_.batch_size) {
      close_batch(batch);
      batch.clear();
    }
  }
  // A stop fires only at a batch close, so nothing stays buffered: the
  // filter shadow already equals the committed state.
  if (stopped) return report_;
  if (!batch.empty()) {
    close_batch(batch);
    batch.clear();
  }
  if (config_.final_checkpoint && !at_checkpoint) {
    run_checkpoint();
  }
  return report_;
}

}  // namespace harness
