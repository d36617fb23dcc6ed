// Sliding-window web/link stream (the paper's introduction: "the dynamic
// structure of the Web where new pages appear or get deleted and new
// links get formed or removed"): links live for a bounded window, and we
// maintain connected components (site clusters) plus a (2+eps) matching
// (e.g. pairing pages for dedup comparison) continuously — showing the
// polylog-profile algorithm on the same stream as the sqrt(N) one.
//
// Both algorithms run side by side through the harness Driver, which
// owns the ground-truth shadow graph, batches the link events, drains
// the (2+eps) schedulers between batches, cross-checks both solutions
// against oracles at periodic checkpoints, and aggregates each
// algorithm's per-update DMPC cost.
#include <cstdio>

#include "core/cs_matching.hpp"
#include "core/dyn_forest.hpp"
#include "graph/update_stream.hpp"
#include "harness/checks.hpp"
#include "harness/driver.hpp"
#include "oracle/oracles.hpp"

int main() {
  const std::size_t n = 1024;
  const std::size_t window = 2048;
  auto stream = graph::sliding_window_stream(n, 6000, window, 42);
  std::printf("web stream: %zu pages, %zu link events, window %zu\n", n,
              stream.size(), window);

  core::DynamicForest clusters({.n = n, .m_cap = window + 64});
  clusters.preprocess(graph::EdgeList{});
  core::CsMatching pairs({.n = n, .eps = 0.25, .seed = 43});

  // 64-event batches; every 16th batch the Driver runs both algorithms'
  // validate() plus the oracle cross-checks below.
  harness::Driver driver(
      n, harness::DriverConfig{.batch_size = 64, .checkpoint_every = 16});
  driver.add("clusters", clusters);
  driver.add("pairs", pairs);
  driver.on_batch_end([&] { pairs.idle_cycles(4); });
  driver.on_checkpoint(harness::components_match_oracle(clusters, "clusters"));
  driver.on_checkpoint(harness::matching_valid(pairs, "pairs"));
  const auto& report = driver.run(stream);
  std::printf("driver: %zu link events applied in %zu batches, "
              "%zu oracle checkpoints passed\n",
              report.applied, report.batches, report.checkpoints);

  const auto labels = clusters.component_snapshot();
  std::size_t comps = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (labels[v] == static_cast<graph::VertexId>(v)) ++comps;
  }
  const auto m = pairs.matching_snapshot();
  std::printf("live links: %zu; clusters: %zu; paired pages: %zu "
              "(valid=%d)\n",
              driver.shadow().num_edges(), comps, 2 * oracle::matching_size(m),
              oracle::matching_is_valid(driver.shadow(), m));

  // The clusters algorithm supports apply_batch, so the driver handed it
  // whole 64-event batches: independent link events share protocol
  // rounds, and the per-batch aggregate is where its cost lives.
  const auto& agg_c = report.find("clusters")->batch_agg;
  // The pairing algorithm also does scheduler-drain work in the
  // on_batch_end idle cycles, which the driver's per-update aggregate
  // does not see; read its cluster's own aggregate so the reported
  // worst case covers that batched work too.
  const auto& agg_p = pairs.cluster().metrics().aggregate();
  std::printf("clusters: %.2f rounds per link event over %llu batches "
              "(batched; %llu rounds worst batch)\n",
              static_cast<double>(agg_c.total_rounds) /
                  static_cast<double>(report.applied),
              static_cast<unsigned long long>(agg_c.updates),
              static_cast<unsigned long long>(agg_c.worst_rounds));
  std::printf("per link event (worst case):\n");
  std::printf("  clusters (Section 5):  batched — see above; worst batch "
              "round moved %llu words over %llu machines\n",
              static_cast<unsigned long long>(agg_c.worst_comm_words),
              static_cast<unsigned long long>(agg_c.worst_active_machines));
  std::printf("  pairing (Section 6):   %llu rounds, %llu machines, %llu "
              "words  <- the O~(1) profile\n",
              static_cast<unsigned long long>(agg_p.worst_rounds),
              static_cast<unsigned long long>(agg_p.worst_active_machines),
              static_cast<unsigned long long>(agg_p.worst_comm_words));
  return 0;
}
