#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

namespace perfbench {
namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Result::close_layers(double wall) {
  wall_s = wall;
  double attributed = 0.0;
  for (const LayerRow& row : layers) attributed += row.self_s;
  layers.push_back({"unattributed", wall - attributed});
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (pos - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
}

double interquartile_mean(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t cut = sample.size() / 4;
  const auto first = sample.begin() + static_cast<std::ptrdiff_t>(cut);
  const auto last = sample.end() - static_cast<std::ptrdiff_t>(cut);
  return std::accumulate(first, last, 0.0) /
         static_cast<double>(last - first);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string to_json(const RunOptions& options, const Result& result) {
  std::string out = "{";
  out += "\"workload\":" + quoted(options.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"trace\":" + std::string(options.trace ? "1" : "0");
  out += ",\"correct\":" + std::string(result.failed == 0 ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ',';
    out += quoted(m.name) + ":{\"value\":" + number(m.value) +
           ",\"unit\":" + quoted(m.unit) + "}";
  }
  out += "},\"layers\":[";
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const LayerRow& row = result.layers[i];
    if (i > 0) out += ',';
    out += "{\"layer\":" + quoted(row.layer) +
           ",\"self_s\":" + number(row.self_s) + ",\"share\":" +
           number(result.wall_s > 0.0 ? row.self_s / result.wall_s : 0.0) +
           "}";
  }
  out += "],\"wall_s\":" + number(result.wall_s);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(result.failures[i]);
  }
  out += "],\"build\":{\"type\":" + quoted(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + quoted(PERFBENCH_COMPILER) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         "}}";
  return out;
}

}  // namespace perfbench
