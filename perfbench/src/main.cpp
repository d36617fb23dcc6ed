// perfbench: runs one workload of the repo benchmark and prints its result
// as one JSON object on the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// perfbench/run.py builds this binary and is the command BENCHMARK.json
// names; it adds the run metadata and reduces the object to the four keys
// of the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload <sparse-churn-2e20|"
               "zipf-serving|mst-audited-deletes> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

std::uint64_t parse_u64(const char* argv0, const std::string& flag,
                        const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    usage(argv0, "bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(argv[0], flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(argv[0], flag, value);
      if (s < 1 || s > 3600) usage(argv[0], "--seconds must be 1..3600");
      options.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage(argv[0], "--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage(argv[0], "unknown flag " + flag);
    }
  }
  if (options.workload.empty() || !have_seconds) {
    usage(argv[0], "--workload and --seconds are required");
  }
  try {
    perfbench::Result result;
    if (options.workload == "sparse-churn-2e20") {
      result = perfbench::run_update_workload(
          perfbench::sparse_churn_workload(), options);
    } else if (options.workload == "mst-audited-deletes") {
      result = perfbench::run_update_workload(
          perfbench::mst_audited_deletes_workload(), options);
    } else if (options.workload == "zipf-serving") {
      result = perfbench::run_serving_workload(
          perfbench::zipf_serving_workload(), options);
    } else {
      usage(argv[0], "unknown workload '" + options.workload + "'");
    }
    for (const std::string& f : result.failures) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
    std::printf("%s\n", perfbench::to_json(options, result).c_str());
    return result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
