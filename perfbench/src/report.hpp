// What one benchmark run reports, and the statistics helpers the
// workloads share.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the traced run's attribution table: a layer's self time.
struct LayerRow {
  std::string layer;
  double self_s = 0.0;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path of the traced run ("" = none)
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> metrics;
  /// Traced run only: self time per layer plus an explicit
  /// "unattributed" row; the rows sum to wall_s, the one denominator of
  /// every share.
  std::vector<LayerRow> layers;
  double wall_s = 0.0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string what, std::uint64_t count = 1) {
    failed += count;
    failures.push_back(std::move(what));
  }
  /// Closes the attribution table with the "unattributed" row.
  void close_layers(double wall);
};

/// The q-quantile (0 <= q <= 1), interpolated linearly between the two
/// nearest ranks (so q = 0.5 is the usual median); 0 for an empty sample.
double quantile(std::vector<double> sample, double q);
inline double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}
/// The mean of the middle half of the sample (ranks n/4 to n - n/4); 0 for
/// an empty sample.  Unlike the median it stays put when the sample has
/// two equal modes, where the median is the edge of one of them.
double interquartile_mean(std::vector<double> sample);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// The whole result as one JSON object (metrics, layer table, failures).
std::string to_json(const RunOptions& options, const Result& result);

}  // namespace perfbench
