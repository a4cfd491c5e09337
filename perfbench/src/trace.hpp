// In-memory span recorder for the traced run.
//
// The benchmark records a span around each of its own calls into a layer
// (and around each request it sends): name, start, end, parent span and
// request id. Spans stay in memory while the workload runs and are written
// out once at the end, so recording costs one vector append. A disabled
// Trace records nothing; the untraced run uses one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

/// CPU time of the calling thread, in nanoseconds. In-process steps are
/// timed with it: on a shared virtual machine the host can deschedule a
/// virtual CPU for milliseconds at a time, which lands in the wall time of
/// a CPU-bound step but not in its CPU time.
std::int64_t thread_cpu_ns();

/// Wall and thread CPU time since construction.
class Stopwatch {
 public:
  Stopwatch() : wall_(now_ns()), cpu_(thread_cpu_ns()) {}
  [[nodiscard]] double wall_ms() const { return 1e-6 * static_cast<double>(now_ns() - wall_); }
  [[nodiscard]] double cpu_ms() const { return 1e-6 * static_cast<double>(thread_cpu_ns() - cpu_); }

 private:
  std::int64_t wall_;
  std::int64_t cpu_;
};

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;           ///< index of the parent span, -1 for a root
  std::int64_t request = -1;  ///< request id shared by one request's spans, -1 if none
};

/// Per span name: how many, their total duration and their total self time.
struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span starting now; returns its index, or -1 when disabled.
  int begin(const std::string& name, int parent = -1, std::int64_t request = -1);
  /// Closes span `id` now (no-op for -1).
  void end(int id);
  /// Records an already-timed span; returns its index, or -1 when disabled.
  int add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns, int parent = -1,
          std::int64_t request = -1);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that the union of its children's intervals covers.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// Totals per span name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as one JSON document; false on an I/O error.
  bool write(const std::string& path) const;

  /// `{"trace_file": path, "spans": {name: {count, total_ms, self_ms}}}`.
  [[nodiscard]] std::string summary_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const std::string& name, int parent = -1, std::int64_t request = -1)
      : trace_(trace), id_(trace.begin(name, parent, request)) {}
  ~ScopedSpan() { trace_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Trace& trace_;
  int id_;
};

}  // namespace perfbench
