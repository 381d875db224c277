#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/trace.h"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

void MetricTable::declare(const std::string& name, const std::string& unit) {
  if (index_.count(name) != 0) {
    throw std::logic_error("metric declared twice: " + name);
  }
  index_[name] = entries_.size();
  entries_.push_back({name, unit, 0});
}

void MetricTable::set(const std::string& name, double value) {
  auto it = index_.find(name);
  if (it == index_.end()) throw std::logic_error("undeclared metric: " + name);
  entries_[it->second].value = std::isfinite(value) ? value : 0;
}

std::string MetricTable::to_json() const {
  std::string out = "{";
  char num[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(num, sizeof(num), "%.17g", e.value);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

double SpanSummary::self(const std::string& name) const {
  auto it = self_s.find(name);
  return it == self_s.end() ? 0 : it->second;
}

SpanSummary summarize_spans() {
  using mrflow::common::trace::RecentSpan;
  std::vector<RecentSpan> spans =
      mrflow::common::trace::recent_spans(std::numeric_limits<size_t>::max());
  SpanSummary out;
  out.spans = spans.size();
  out.dropped = mrflow::common::trace::dropped_count();

  // Per thread, by start time; an enclosing span sorts before the spans
  // it encloses (longer first on equal starts).
  std::sort(spans.begin(), spans.end(),
            [](const RecentSpan& a, const RecentSpan& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  struct Open {
    const RecentSpan* span;
    uint64_t end_ns;
    uint64_t child_ns;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    const std::string name = o.span->name;
    const uint64_t self_ns =
        o.span->dur_ns > o.child_ns ? o.span->dur_ns - o.child_ns : 0;
    out.self_s[name] += static_cast<double>(self_ns) * 1e-9;
    out.durations_s[name].push_back(static_cast<double>(o.span->dur_ns) * 1e-9);
  };
  uint32_t tid = ~0u;
  for (const RecentSpan& s : spans) {
    if (s.tid != tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      tid = s.tid;
    }
    const uint64_t end = s.start_ns + s.dur_ns;
    while (!stack.empty() && stack.back().end_ns <= s.start_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      // Clip to the parent: a span recorded across a clock tick boundary
      // cannot cover more of its parent than the parent lasted.
      const uint64_t covered = std::min(end, stack.back().end_ns) - s.start_ns;
      stack.back().child_ns += covered;
    }
    stack.push_back({&s, end, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return out;
}

}  // namespace perfbench
