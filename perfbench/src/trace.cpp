#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>

#include "util/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int Trace::begin(const std::string& name, int parent, std::int64_t request) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  return add(name, t, t, parent, request);
}

void Trace::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int Trace::add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns, int parent,
               std::int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<std::int64_t> Trace::self_ns() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
  }
  std::vector<std::int64_t> self(spans_.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    covered.clear();
    for (const int c : children[i]) {
      const Span& child = spans_[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(child.start_ns, s.start_ns);
      const std::int64_t hi = std::min(child.end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ns += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, SpanTotals> Trace::totals() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

bool Trace::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::vector<std::int64_t> self = self_ns();
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    lid::util::JsonWriter w;
    w.begin_object();
    w.key("id").value(static_cast<std::int64_t>(i));
    w.key("name").value(s.name);
    w.key("start_ns").value(s.start_ns - origin);
    w.key("end_ns").value(s.end_ns - origin);
    w.key("self_ns").value(self[i]);
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.key("request").value(s.request);
    w.end_object();
    out << w.str() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::string Trace::summary_json(const std::string& path) const {
  lid::util::JsonWriter w;
  w.begin_object().key("trace_file").value(path);
  w.key("spans").begin_object();
  for (const auto& [name, t] : totals()) {
    w.key(name).begin_object();
    w.key("count").value(t.count);
    w.key("total_ms").value(1e-6 * static_cast<double>(t.total_ns));
    w.key("self_ms").value(1e-6 * static_cast<double>(t.self_ns));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace perfbench
