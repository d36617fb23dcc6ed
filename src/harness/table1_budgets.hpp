// Shared Table-1 complexity budgets: measured worst-case per-update
// triples on fixed seeds plus ~30-50% headroom, loose enough to survive
// benign protocol tweaks, tight enough that an asymptotic slip (an extra
// round per update, a broadcast past O(sqrt N)) trips them.
//
// Two consumers gate on these numbers:
//   * tests/test_table1_budgets.cpp asserts the full (rounds, machines,
//     communication) triple at n = 256, where the machines/comm values
//     were measured;
//   * bench_table1 / bench_scaling --check gate the ROUNDS component
//     only: per-update rounds are O(1) — independent of n — so the same
//     budget applies at every size the benches sweep, while machines and
//     communication grow with sqrt(N) and are only meaningful at the
//     size they were measured.
// The batched budgets bound mean rounds per update of apply_batch on the
// bench workloads (batch = 16), the metric the CI bench job guards.
#pragma once

#include <cstdint>

namespace harness::budgets {

struct Table1Budget {
  const char* name;
  std::uint64_t rounds;      ///< worst rounds per update (any n)
  std::uint64_t machines;    ///< worst active machines per round (n = 256)
  std::uint64_t comm_words;  ///< worst comm words per round (n = 256)
};

inline constexpr Table1Budget kMaximalMatching{"maximal matching", 16, 6,
                                               2100};
inline constexpr Table1Budget kThreeHalvesMatching{"3/2-approx matching", 18,
                                                   10, 2100};
inline constexpr Table1Budget kCsMatching{"(2+eps)-approx matching", 6, 32,
                                          64};
inline constexpr Table1Budget kConnectedComponents{"connected components", 18,
                                                   44, 600};
inline constexpr Table1Budget kApproximateMst{"(1+eps)-MST", 28, 44, 600};

/// Batched connectivity at batch = 16, mean rounds per update on
/// bench_scaling's uniformly random streams (every n it sweeps).
/// Measured 1.40 at n = 256 and 0.37 from n = 4096 up; the per-update
/// protocol pays ~6, so the bound keeps batches sharing their rounds.
inline constexpr double kBatchedConnectivityRoundsPerUpdate = 3.8;
/// apply_batch on the delete-heavy interleaved streams at batch = 16:
/// the whole batch is classified once, every tree deletion runs through
/// ONE k-way tour split round, one parallel replacement cascade with
/// deterministic (w,u,v) tie-breaks re-links the fragments, and all
/// merges/joins commit as one k-way join round — no serial fallback
/// (bench_table1 separately gates serial_updates == 0 on these rows).
/// Measured ~0.09 unweighted — the interleaved adversary's
/// delete/re-insert pairs are net no-ops, so net-op compression elides
/// most of the stream and the remainder runs in O(1)-round stages — and
/// ~1.14 weighted (no compression; every batch pays the k-way split
/// round, one replacement cascade, the k-way join round, and the shared
/// path-max round of its cycle-rule inserts), against ~6.7 / ~9.6 for
/// per-update application.  The headroom keeps both the compression and
/// the shared stage rounds load-bearing.
inline constexpr double kBatchDynamicDeleteHeavyRoundsPerUpdate = 1.0;
inline constexpr double kBatchDynamicWeightedDeleteHeavyRoundsPerUpdate = 1.5;

}  // namespace harness::budgets
