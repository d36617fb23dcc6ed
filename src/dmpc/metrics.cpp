#include "dmpc/metrics.hpp"

#include <cmath>

namespace dmpc {

std::map<std::pair<MachineId, MachineId>, WordCount> Metrics::pair_traffic()
    const {
  std::map<std::pair<MachineId, MachineId>, WordCount> out;
  for (std::size_t from = 0; from < pair_traffic_.size(); ++from) {
    const std::vector<WordCount>& row = pair_traffic_[from];
    for (std::size_t to = 0; to < row.size(); ++to) {
      if (row[to] != 0) {
        out[{static_cast<MachineId>(from), static_cast<MachineId>(to)}] =
            row[to];
      }
    }
  }
  return out;
}

double Metrics::pair_entropy_bits() const {
  WordCount total = 0;
  for (const std::vector<WordCount>& row : pair_traffic_) {
    for (const WordCount words : row) total += words;
  }
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const std::vector<WordCount>& row : pair_traffic_) {
    for (const WordCount words : row) {
      if (words == 0) continue;
      const double p =
          static_cast<double>(words) / static_cast<double>(total);
      h -= p * std::log2(p);
    }
  }
  return h;
}

void Metrics::reset() {
  rounds_.clear();
  current_ = UpdateRecord{};
  last_update_ = UpdateRecord{};
  in_update_ = false;
  in_query_ = false;
  rounds_mark_ = 0;
  aggregate_ = UpdateAggregate{};
  query_agg_ = QueryAggregate{};
  abort_agg_ = AbortAggregate{};
  pair_traffic_.clear();
}

}  // namespace dmpc
