#include "layers.hpp"

#include <algorithm>
#include <limits>

namespace perfbench {

MeteredExecutor::MeteredExecutor(std::shared_ptr<dmpc::RoundExecutor> inner,
                                 std::size_t threads,
                                 std::size_t inline_cutoff, SpanLog* log)
    : inner_(std::move(inner)),
      threads_(std::max<std::size_t>(1, threads)),
      inline_cutoff_(inline_cutoff),
      log_(log) {}

std::shared_ptr<MeteredExecutor> MeteredExecutor::serial(SpanLog* log) {
  return std::make_shared<MeteredExecutor>(
      std::make_shared<dmpc::SerialExecutor>(), 1,
      std::numeric_limits<std::size_t>::max(), log);
}

std::shared_ptr<MeteredExecutor> MeteredExecutor::pool(std::size_t workers,
                                                       SpanLog* log) {
  auto inner = std::make_shared<dmpc::ThreadPoolExecutor>(workers);
  const std::size_t cutoff = inner->serial_cutoff();
  return std::make_shared<MeteredExecutor>(std::move(inner), workers + 1,
                                           cutoff, log);
}

void MeteredExecutor::run(std::size_t count,
                          const std::function<void(std::size_t)>& work) {
  SpanScope span(log_, SpanKind::kDispatch,
                 log_ != nullptr ? log_->current_id() : 0);
  const std::uint64_t begin = now_ns();
  std::uint64_t busy = 0;
  std::uint64_t longest = 0;
  if (threads_ == 1) {
    // One thread runs the tasks back to back: the dispatch is all task
    // time, and timing each task would only time the clock.
    inner_->run(count, work);
    busy = now_ns() - begin;
  } else {
    if (task_ns_.size() < count) task_ns_.resize(count);
    inner_->run(count, [&](std::size_t i) {
      const std::uint64_t t0 = now_ns();
      try {
        work(i);
      } catch (...) {
        task_ns_[i] = now_ns() - t0;
        throw;
      }
      task_ns_[i] = now_ns() - t0;
    });
    for (std::size_t i = 0; i < count; ++i) {
      busy += task_ns_[i];
      longest = std::max(longest, task_ns_[i]);
    }
  }
  const std::uint64_t wall = now_ns() - begin;
  const bool inline_run = count <= inline_cutoff_;
  const std::uint64_t threads =
      inline_run ? 1 : std::min<std::uint64_t>(count, threads_);
  ++stats_.dispatches;
  stats_.tasks += count;
  stats_.inline_dispatches += inline_run ? 1 : 0;
  stats_.dispatch_ns += wall;
  stats_.task_busy_ns += busy;
  stats_.capacity_ns += wall * threads;
  if (count > 0 && longest > 0) stats_.straggler_ns += longest - busy / count;
  // The tasks ran the caller's work: their time, spread over the threads
  // that ran them, is the caller's self time; the rest of the dispatch
  // (wake-up, barrier, imbalance) is the executor's.
  span.inherit(busy / threads);
}

}  // namespace perfbench
