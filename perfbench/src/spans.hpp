// Span recording for the benchmark's traced run.
//
// A span sits around one call into a layer (a Driver::run, a forest
// apply_batch, an executor dispatch, a broker pump, ...) and records its
// name, start, end, parent and an id shared by every span of one batch or
// query.  Each driving thread owns one SpanLog; spans nest by a stack, so
// a span's parent is the span open on the same thread when it began.
//
// Per-kind totals (count, inclusive time, self time) are accumulated when
// a span closes and stay exact even after the in-memory event log reaches
// its cap and starts dropping events.  Self time is a span's duration
// minus the time its child spans cover.  A span may hand part of its
// duration back to its parent (SpanScope::inherit): an executor dispatch
// does this for the time its tasks ran the caller's work, so the
// executor's self time is its own scheduling and waiting.  The log is
// written out as Chrome trace-event JSON once the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layer boundaries the benchmark records.
enum class SpanKind : std::uint8_t {
  kHarnessRun,    ///< one harness::Driver::run call
  kOracle,        ///< the oracle cross-check at a Driver checkpoint
  kApplyBatch,    ///< forest apply_batch (either overload)
  kUpdate,        ///< forest insert/erase
  kValidate,      ///< forest validate at a Driver checkpoint
  kDispatch,      ///< one RoundExecutor::run (a for_each_machine barrier)
  kPump,          ///< one QueryBroker::pump
  kPoll,          ///< the pump thread polling answers and logging epochs
  kSubmit,        ///< one QueryBroker::submit_query / submit_update
  kCount,         ///< sentinel, not a span
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

const char* span_name(SpanKind kind);

/// Steady-clock ns since a process-wide origin shared by every log, so
/// spans of different threads line up in one trace.
std::uint64_t now_ns();

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

struct Span {
  SpanKind kind = SpanKind::kCount;
  std::uint64_t id = 0;
  std::int64_t parent = -1;  ///< index in the same log, -1 for a root
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< inclusive duration
  std::uint64_t self_ns = 0;   ///< duration minus child spans
};

/// One thread's spans.  Not thread-safe: only its owning thread calls
/// begin/end.  Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(std::size_t max_spans = std::size_t{1} << 16);

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(SpanKind kind, std::uint64_t id);
  /// Id of the innermost open span (0 when none): nested spans of one
  /// batch pass it on, so every span of the batch shares its id.
  [[nodiscard]] std::uint64_t current_id() const {
    return stack_.empty() ? 0 : stack_.back().id;
  }
  /// Closes the innermost span; `inherited_ns` of its duration counts as
  /// its parent's self time instead of its own.
  void end(std::uint64_t inherited_ns = 0);

  [[nodiscard]] const std::array<SpanTotals, kSpanKinds>& totals() const {
    return totals_;
  }
  [[nodiscard]] double total_s(SpanKind kind) const;
  [[nodiscard]] double self_s(SpanKind kind) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    std::int64_t index = -1;  ///< slot in spans_, -1 when dropped
    std::uint64_t id = 0;
    std::uint64_t begin_ns = 0;
    std::uint64_t child_ns = 0;
    SpanKind kind = SpanKind::kCount;
  };

  bool enabled_ = false;
  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::array<SpanTotals, kSpanKinds> totals_{};
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null or disabled log costs one branch.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanKind kind, std::uint64_t id = 0)
      : log_(log != nullptr && log->enabled() ? log : nullptr) {
    if (log_ != nullptr) log_->begin(kind, id);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_ != nullptr) log_->end(inherited_ns_);
  }

  /// See SpanLog::end.
  void inherit(std::uint64_t ns) { inherited_ns_ = ns; }

 private:
  SpanLog* log_;
  std::uint64_t inherited_ns_ = 0;
};

/// Writes the logs as Chrome trace-event JSON (one track per log, in the
/// given order, named by `track_names`), with the number of spans the
/// logs dropped past their cap.  Throws std::runtime_error when
/// the file cannot be written.
void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        const std::vector<std::string>& track_names);

}  // namespace perfbench
