// Measurement helpers for the perfbench binary: clocks, order statistics,
// the metric table printed as the run's result, and the per-thread span
// nesting that turns a recorded trace into exclusive ("self") time per
// span name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double wall_now();     // steady clock, seconds
double cpu_now();      // process user + system CPU, seconds
double peak_rss_mb();  // process peak resident set, MB (10^6 bytes)

double median(std::vector<double> v);
// Nearest-rank quantile: the smallest sample with at least q of the
// samples at or below it (q = 0.99 over 1,000 samples leaves ten above).
double quantile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);

// Named metrics in a fixed order. Every name is declared up front with
// its unit (value 0), so a workload prints the full table even where a
// layer does no work.
class MetricTable {
 public:
  void declare(const std::string& name, const std::string& unit);
  void set(const std::string& name, double value);  // must be declared
  bool has(const std::string& name) const { return index_.count(name) != 0; }
  // {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

// The spans the tracer currently holds, folded per span name.
struct SpanSummary {
  std::map<std::string, double> self_s;   // duration minus nested children
  std::map<std::string, std::vector<double>> durations_s;  // per span,
                                                           // inclusive
  uint64_t spans = 0;                     // spans kept
  uint64_t dropped = 0;                   // spans lost to ring wrap
  double self(const std::string& name) const;
};

// Reads every span held by common::trace and nests them per thread: a span
// is the child of the innermost span on the same thread that encloses it.
SpanSummary summarize_spans();

}  // namespace perfbench
