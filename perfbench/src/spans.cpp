#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kHarnessRun: return "harness.run";
    case SpanKind::kOracle: return "harness.oracle";
    case SpanKind::kApplyBatch: return "forest.apply_batch";
    case SpanKind::kUpdate: return "forest.update";
    case SpanKind::kValidate: return "forest.validate";
    case SpanKind::kDispatch: return "executor.dispatch";
    case SpanKind::kPump: return "serve.pump";
    case SpanKind::kPoll: return "serve.poll";
    case SpanKind::kSubmit: return "serve.submit";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

std::uint64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

SpanLog::SpanLog(std::size_t max_spans) : max_spans_(max_spans) {
  spans_.reserve(max_spans_);
  stack_.reserve(16);
}

void SpanLog::begin(SpanKind kind, std::uint64_t id) {
  Open open;
  open.kind = kind;
  open.id = id;
  open.begin_ns = now_ns();
  if (spans_.size() < max_spans_) {
    open.index = static_cast<std::int64_t>(spans_.size());
    Span span;
    span.kind = kind;
    span.id = id;
    span.parent = stack_.empty() ? -1 : stack_.back().index;
    span.begin_ns = open.begin_ns;
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
  stack_.push_back(open);
}

void SpanLog::end(std::uint64_t inherited_ns) {
  if (stack_.empty()) return;
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t end = now_ns();
  const std::uint64_t duration = end - open.begin_ns;
  const std::uint64_t inherited =
      stack_.empty() ? 0 : std::min(inherited_ns, duration);
  SpanTotals& t = totals_[static_cast<std::size_t>(open.kind)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - std::min(duration, open.child_ns + inherited);
  if (!stack_.empty()) stack_.back().child_ns += duration - inherited;
  if (open.index >= 0) spans_[static_cast<std::size_t>(open.index)].end_ns = end;
}

double SpanLog::total_s(SpanKind kind) const {
  return static_cast<double>(totals_[static_cast<std::size_t>(kind)].total_ns) *
         1e-9;
}

double SpanLog::self_s(SpanKind kind) const {
  return static_cast<double>(totals_[static_cast<std::size_t>(kind)].self_ns) *
         1e-9;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        const std::vector<std::string>& track_names) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    std::fprintf(out,
                 "%s{\"ph\":\"M\",\"pid\":0,\"tid\":%zu,\"name\":"
                 "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", t,
                 t < track_names.size() ? track_names[t].c_str() : "track");
    first = false;
    for (const Span& s : logs[t]->spans()) {
      std::fprintf(out,
                   ",{\"ph\":\"X\",\"pid\":0,\"tid\":%zu,\"name\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%lld}}",
                   t, span_name(s.kind), static_cast<double>(s.begin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.parent));
    }
  }
  std::uint64_t dropped = 0;
  for (const SpanLog* log : logs) dropped += log->dropped();
  std::fprintf(out, "],\"dropped_spans\":%llu}\n",
               static_cast<unsigned long long>(dropped));
  const bool write_error = std::ferror(out) != 0;
  if (std::fclose(out) != 0 || write_error) {
    throw std::runtime_error("error writing trace file " + path);
  }
}

}  // namespace perfbench
