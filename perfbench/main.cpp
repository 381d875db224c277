// perfbench: runs one named workload in this process and prints its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out_dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit code 0 only when every checked operation passed;
// 1 on a failed check, 2 on bad arguments. Normally driven through
// perfbench/run.py, which builds this binary first.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common/log.h"
#include "measure.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--out_dir <dir>]\n"
               "workloads:",
               why);
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  // Executor threads: the host's cores, at most 4 (the reference host).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = static_cast<int>(std::min(hw, 4u));
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
        cfg.trace = v == "1";
      } else if (arg == "--smoke") {
        cfg.smoke = true;
      } else if (arg == "--out_dir") {
        cfg.out_dir = value();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    return usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
  if (!(cfg.seconds >= 0)) return usage("--seconds must be >= 0");
  mrflow::common::set_log_level(mrflow::common::LogLevel::kWarn);

  perfbench::MetricTable e2e, layer;
  perfbench::declare_end_to_end(e2e);
  perfbench::declare_per_layer(layer);
  perfbench::RunOutcome out;
  try {
    out = perfbench::run_workload(cfg, e2e, layer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": " +
      (cfg.trace ? layer : e2e).to_json() + "}";
  if (!cfg.out_dir.empty()) {
    std::ofstream f(cfg.out_dir + "/result-" + cfg.workload +
                    (cfg.trace ? "-trace" : "") + ".json");
    f << "{\"workload\": \"" << cfg.workload << "\", \"seed\": " << cfg.seed
      << ", \"seconds\": " << cfg.seconds
      << ", \"smoke\": " << (cfg.smoke ? "true" : "false")
      << ", \"executor_threads\": " << cfg.threads << ", \"result\": "
      << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
