// The three perfbench workloads. Each one builds its inputs from the seed,
// runs whole rounds of the same operations for at least `seconds`, checks
// every answer against a computation made apart from the solver under test,
// and fills the end-to-end table (untraced run) or the per-layer table
// (traced run). See README.md for the inputs and the metric definitions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;    // traced run: per-layer metrics
  bool smoke = false;    // small inputs, same checks
  int threads = 1;       // ClusterConfig::executor_threads
  std::string out_dir;   // where the traced run writes its Chrome trace
};

struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few diagnostics
  void fail(const std::string& why);
};

const std::vector<std::string>& workload_names();

// Declares every metric of each table, in print order.
void declare_end_to_end(MetricTable& t);
void declare_per_layer(MetricTable& t);

// Runs `cfg.workload`, filling `e2e` (cfg.trace == false) or `layer`.
RunOutcome run_workload(const RunConfig& cfg, MetricTable& e2e,
                        MetricTable& layer);

}  // namespace perfbench
