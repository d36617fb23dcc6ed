// The benchmark's three named workloads.  Each runs in its own process
// (perfbench/run.py starts one per run) and builds its inputs from the
// seed before any timing starts.
//
//   sparse-churn-2e20    Driver + unweighted DynamicForest over
//                        graph::random_stream(2^20, p_insert 0.75),
//                        batch 16, thread-pool executor, no checkpoints.
//   mst-audited-deletes  Driver with validate + oracle checkpoints over a
//                        weighted DynamicForest on
//                        graph::weighted_interleaved_delete_stream(2^16,
//                        256 paths, 4 chords), batch 16, serial executor.
//   zipf-serving         serve::QueryBroker over a serial forest at 2^14,
//                        fed graph::zipfian_serving_stream open loop.
//
// See perfbench/README.md for why each exists and what each metric means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dyn_forest.hpp"
#include "graph/update_stream.hpp"
#include "harness/driver.hpp"
#include "report.hpp"

namespace perfbench {

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 5;
/// Updates per batch of both Driver workloads.
inline constexpr std::size_t kBatch = 16;
/// Batches per Driver::run call.
inline constexpr std::size_t kChunkBatches = 8;
/// Batches of the warm-up Driver::run in set-up: fewer than any
/// checkpoint cadence, so set-up runs no checkpoint.
inline constexpr std::size_t kWarmupBatches = 4;

/// The inputs of an update workload: edges loaded by preprocess (and
/// seeded into the Driver's shadow), then the streamed updates cut into
/// the chunks handed to successive Driver::run calls.
struct UpdateInputs {
  graph::WeightedEdgeList preprocessed;
  std::vector<graph::UpdateStream> chunks;
};

/// Configuration of one Driver workload.  Sizes are parameters so the
/// wrapper-identity tests can run the same workload small.
struct UpdateWorkload {
  std::size_t n = 0;
  bool weighted = false;
  bool pooled = false;              ///< thread pool (nproc - 1 workers)
  std::size_t checkpoint_every = 0;  ///< in batches; 0 = no checkpoints
  /// Runs apply whole periods of this many chunks.
  std::size_t chunks_per_period = 1;
  /// Streamed updates generated per run: enough for many times the
  /// batches one run applies at today's speed.
  std::size_t stream_updates = 0;
  graph::UpdateStream (*generate)(std::size_t n, std::size_t length,
                                  std::uint64_t seed) = nullptr;
  /// Load the stream's build phase (every insert before the first
  /// delete) with preprocess instead of streaming it.
  bool preprocess_build_phase = false;

  [[nodiscard]] core::DynForestConfig forest_config() const;
  [[nodiscard]] harness::DriverConfig driver_config() const;
  [[nodiscard]] UpdateInputs make_inputs(std::uint64_t seed) const;
  /// Loads the inputs' preprocessed edges into the forest and seeds the
  /// Driver's shadow with them.
  void preprocess(core::DynamicForest& forest, harness::Driver& driver,
                  const UpdateInputs& inputs) const;
};

UpdateWorkload sparse_churn_workload(std::size_t n = std::size_t{1} << 20);
UpdateWorkload mst_audited_deletes_workload(
    std::size_t n = std::size_t{1} << 16);

/// Runs an update workload end to end (set-up, timed run, traced run
/// when options.trace, output checks).
Result run_update_workload(const UpdateWorkload& workload,
                           const RunOptions& options);

/// Configuration of the serving workload.  Sizes are parameters so the
/// wrapper-identity tests can build the same stream small.
struct ServingWorkload {
  std::size_t n = std::size_t{1} << 14;
  std::size_t blocks = 64;  ///< components of the stream's build phase

  [[nodiscard]] graph::ZipfianServingConfig stream_config(
      std::uint64_t seed, std::size_t length) const;
};

ServingWorkload zipf_serving_workload();

Result run_serving_workload(const ServingWorkload& workload,
                            const RunOptions& options);

}  // namespace perfbench
