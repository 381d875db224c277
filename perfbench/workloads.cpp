#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "bench/bench_common.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "common/rng.h"
#include "common/trace.h"
#include "ffmr/solver.h"
#include "ffpr/solver.h"
#include "flow/certify.h"
#include "flow/max_flow.h"
#include "graph/generators.h"
#include "mapreduce/cluster.h"
#include "service/flow_service.h"
#include "service/trace.h"

namespace perfbench {

using namespace mrflow;
using common::TraceSpan;

void RunOutcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "smallworld-ff5", "lattice-ffpr", "service-mixed"};
  return names;
}

namespace {

// Input sizes. The batch sizes keep one solve at a few seconds on a 4-core
// host so a run repeats it; the smoke sizes finish in about a second.
struct Sizes {
  double fb_scale;          // facebook_ladder scale for the FB4' analog
  int fb_terminals;         // super-terminal width w
  graph::VertexId lat_rows, lat_cols;
  graph::VertexId ws_vertices;
  uint64_t trace_ops;
};
constexpr Sizes kBatch = {0.03, 16, 40, 120, 500, 250};
constexpr Sizes kSmoke = {0.004, 4, 6, 12, 120, 60};

constexpr int kFb4Index = 3;              // FB4' in facebook_ladder()
constexpr int kWsNeighbors = 6;           // Watts-Strogatz k
constexpr double kWsRewire = 0.1;         // Watts-Strogatz beta
// A service run replays at least this many traces of about 225 queries
// (TraceGenOptions' default mix of 90% queries), so the latency percentiles
// of a traced run pool at least 1,000 untraced queries (ten beyond p99).
constexpr size_t kMinReplays = 5;

// setup_s is a median over at least this many set-ups; cheap set-ups are
// repeated until they add up to kSetupSampleBudget seconds (at most
// kMaxSetupSamples times), so a millisecond-scale median is not one
// scheduler hiccup.
constexpr size_t kMinSetupSamples = 3;
constexpr double kSetupSampleBudget = 0.5;
constexpr size_t kMaxSetupSamples = 100;

const Sizes& sizes(const RunConfig& cfg) { return cfg.smoke ? kSmoke : kBatch; }

// Per-operation samples, reduced to medians at the end of the run.
class Samples {
 public:
  void add(const std::string& name, double x) { v_[name].push_back(x); }
  const std::vector<double>& all(const std::string& name) const {
    static const std::vector<double> empty;
    auto it = v_.find(name);
    return it == v_.end() ? empty : it->second;
  }
  double med(const std::string& name) const { return median(all(name)); }
  double mean(const std::string& name) const {
    const std::vector<double>& xs = all(name);
    return xs.empty() ? 0 : sum(xs) / static_cast<double>(xs.size());
  }
  size_t count(const std::string& name) const { return all(name).size(); }
  // Every sampled name that `t` declares gets the median of its samples.
  void medians_into(MetricTable& t) const {
    for (const auto& [name, xs] : v_) {
      if (t.has(name)) t.set(name, median(xs));
    }
  }
  // The end-to-end table: medians of times, means of the work counts.
  // Counts vary only with the input, so the mean over a run's inputs is
  // the steadier estimate; times also carry host noise, which the median
  // resists.
  void end_to_end_into(MetricTable& t) const {
    medians_into(t);
    for (const char* count : {"rounds", "shuffle_mb"}) t.set(count, mean(count));
  }

 private:
  std::map<std::string, std::vector<double>> v_;
};

// ------------------------------------------------------------ metric names

const char* const kSelfSpans[][2] = {
    {"mapreduce.map_self_s", "map"},
    {"mapreduce.reduce_self_s", "reduce"},
    {"mapreduce.fetch_self_s", "fetch"},
    {"mapreduce.merge_self_s", "merge"},
    {"mapreduce.spill_self_s", "spill"},
    {"mapreduce.idle_s", "idle"},
    {"mapreduce.rpc_self_s", "rpc"},
    {"dfs.write_self_s", "dfs.write"},
    {"ffmr.aug_accept_self_s", "aug.accept"},
};

std::string blame_metric(size_t c) {
  return std::string("mapreduce.sim.") +
         common::BlameBreakdown::name(static_cast<common::BlameCategory>(c)) +
         "_s";
}

// Self time per layer from one traced operation, plus the trace's health.
void record_span_metrics(const SpanSummary& spans, Samples& s) {
  for (const auto& [metric, span] : kSelfSpans) s.add(metric, spans.self(span));
  s.add("dfs.read_self_s", spans.self("dfs.read") + spans.self("dfs.read_block"));
  s.add("common.codec_self_s",
        spans.self("compress") + spans.self("decompress"));
  s.add("trace.spans", static_cast<double>(spans.spans));
  s.add("trace.spans_dropped", static_cast<double>(spans.dropped));
}

void start_tracing() {
  common::trace::clear();
  common::trace::set_enabled(true);
}

SpanSummary stop_tracing(const RunConfig& cfg, bool write_chrome_trace) {
  common::trace::set_enabled(false);
  SpanSummary spans = summarize_spans();
  if (write_chrome_trace && !cfg.out_dir.empty()) {
    const std::string path =
        cfg.out_dir + "/trace-" + cfg.workload + ".json";
    if (!common::trace::write_chrome_trace(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }
  common::trace::clear();
  return spans;
}

// Traced against untraced time of the same inputs, in percent.
double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  const double base = sum(untraced);
  return base > 0 ? (sum(traced) / base - 1.0) * 100.0 : 0.0;
}

// The input seed of round `round` in a run with seed `seed`.
uint64_t input_seed(uint64_t seed, size_t round) {
  return seed * 1000 + round;
}

// Whether another round fits: a run measures for about cfg.seconds and
// stops early rather than overrun by more than half a round.
bool more_time(double run_start, double round_start, const RunConfig& cfg) {
  const double now = wall_now();
  return now - run_start + 0.5 * (now - round_start) < cfg.seconds;
}

// Repeats `setup` until setup_s has enough samples (see kMinSetupSamples).
void top_up_setup_samples(Samples& s, const std::function<void()>& setup) {
  while (s.count("setup_s") < kMinSetupSamples ||
         (sum(s.all("setup_s")) < kSetupSampleBudget &&
          s.count("setup_s") < kMaxSetupSamples)) {
    const double t0 = wall_now();
    setup();
    s.add("setup_s", wall_now() - t0);
  }
}

mr::ClusterConfig cli_cluster(const RunConfig& cfg) {
  // maxflow_cli's cluster: its --nodes=4 default and ClusterConfig's
  // default slots, replication and block size.
  mr::ClusterConfig c;
  c.num_slave_nodes = 4;
  c.executor_threads = cfg.threads;
  return c;
}

mr::ClusterConfig paper_cluster(const RunConfig& cfg) {
  // The benches' testbed shape (20 slaves, 15 + 15 slots, replication 2),
  // with the default cost model rather than the benches' scale-dependent one.
  mr::ClusterConfig c = bench::BenchEnv{}.make_config();
  c.executor_threads = cfg.threads;
  return c;
}

// ------------------------------------------------------ solve workloads

struct Input {
  graph::FlowProblem problem;
  mr::ClusterConfig config;
  double build_s = 0;  // generator calls only
};

struct Solved {
  graph::Capacity flow = 0;
  graph::FlowAssignment assignment;
  mr::JobStats totals;
  std::vector<double> job_wall_s;  // per MR job, round 0 included
  double critical_path_s = 0;
  std::map<std::string, double> layer;  // solver-specific per-layer values
};

template <typename Info>
void collect_jobs(const std::vector<Info>& rounds, Solved& out) {
  for (const Info& r : rounds) {
    out.job_wall_s.push_back(r.stats.wall_seconds);
    out.critical_path_s += r.stats.critical_path_ms / 1e3;
  }
}

// One round per input: set up, Dinic oracle, solve (the timed call), check.
// Round i of a run solves the input of input_seed(seed, i), so a run's
// medians span several inputs. The traced run solves each input twice, once
// untraced (counts, bytes and the overhead baseline) and once traced (self
// times).
RunOutcome run_solve_workload(
    const RunConfig& cfg, MetricTable& e2e, MetricTable& layer,
    const std::string& solver,
    const std::function<Input(uint64_t seed)>& make_input,
    const std::function<Solved(mr::Cluster&, const graph::FlowProblem&)>&
        solve) {
  RunOutcome out;
  Samples s;
  std::vector<double> untraced_wall, traced_wall;
  const double start = wall_now();
  double t0 = start;
  for (size_t round = 0;
       round < (cfg.trace ? 1 : kMinSetupSamples) || more_time(start, t0, cfg);
       ++round) {
    t0 = wall_now();
    Input in;
    {
      TraceSpan span("bench.setup", "bench");
      in = make_input(input_seed(cfg.seed, round));
    }
    auto cluster = std::make_unique<mr::Cluster>(in.config);
    s.add("setup_s", wall_now() - t0);
    s.add("graph.build_s", in.build_s);
    const graph::FlowProblem& p = in.problem;

    const double td = wall_now();
    const graph::Capacity oracle =
        flow::max_flow_dinic(p.graph, p.source, p.sink).value;
    s.add("flow.dinic_s", wall_now() - td);

    for (const bool traced : {false, true}) {
      if (traced && !cfg.trace) break;
      if (traced) {
        cluster = std::make_unique<mr::Cluster>(in.config);
        start_tracing();
      }
      const double c0 = cpu_now();
      const double w0 = wall_now();
      Solved r;
      ++out.attempted;
      try {
        TraceSpan span("bench.solve", "bench");
        r = solve(*cluster, p);
      } catch (const std::exception& e) {
        if (traced) stop_tracing(cfg, false);
        out.fail(solver + " solve threw: " + e.what());
        continue;
      }
      const double wall = wall_now() - w0;
      const double cpu = cpu_now() - c0;
      SpanSummary spans;
      if (traced) spans = stop_tracing(cfg, traced_wall.empty());

      const double tc = wall_now();
      flow::Certificate cert =
          flow::certify_max_flow(p.graph, p.source, p.sink, r.assignment);
      s.add("flow.certify_s", wall_now() - tc);
      if (!cert.valid()) {
        out.fail(solver + " certificate invalid: " + cert.summary());
      } else if (r.flow != oracle || cert.flow_value != r.flow) {
        out.fail(solver + " flow " + std::to_string(r.flow) + " != dinic " +
                 std::to_string(oracle));
      }

      if (traced) {
        traced_wall.push_back(wall);
        record_span_metrics(spans, s);
        continue;
      }
      untraced_wall.push_back(wall);
      std::fprintf(stderr,
                   "perfbench: %s input %llu: flow %lld, %zu jobs, %.1f MB "
                   "shuffled, %.3f s, %.3f s CPU\n",
                   solver.c_str(),
                   static_cast<unsigned long long>(input_seed(cfg.seed, round)),
                   static_cast<long long>(r.flow), r.job_wall_s.size(),
                   static_cast<double>(r.totals.shuffle_bytes) / 1e6, wall, cpu);
      const double job_wall = sum(r.job_wall_s);
      s.add("solve_s", wall);
      s.add("cpu_s", cpu);
      s.add("rounds", static_cast<double>(r.job_wall_s.size() - 1));
      s.add("shuffle_mb", static_cast<double>(r.totals.shuffle_bytes) / 1e6);
      s.add("mapreduce.jobs", static_cast<double>(r.job_wall_s.size()));
      s.add("mapreduce.job_wall_s", job_wall);
      for (double w : r.job_wall_s) s.add("job_ms", w * 1e3);
      s.add("mapreduce.map_output_records",
            static_cast<double>(r.totals.map_output_records));
      s.add("mapreduce.shuffle_wire_mb",
            static_cast<double>(r.totals.shuffle_bytes_wire) / 1e6);
      s.add("mapreduce.schimmy_mb",
            static_cast<double>(r.totals.schimmy_bytes) / 1e6);
      s.add("mapreduce.critical_path_s", r.critical_path_s);
      s.add("mapreduce.sim_s", r.totals.sim_seconds);
      for (size_t c = 0; c < common::BlameBreakdown::kCategories; ++c) {
        s.add(blame_metric(c), r.totals.blame.seconds[c]);
      }
      s.add(solver + ".driver_s", wall - job_wall);
      for (const auto& [name, value] : r.layer) s.add(name, value);
    }
  }

  if (cfg.trace) {
    s.medians_into(layer);
    layer.set("mapreduce.job_p50_ms", s.med("job_ms"));
    layer.set("trace.overhead_pct", overhead_pct(traced_wall, untraced_wall));
    // A query here is one whole solve.
    std::vector<double> solve_ms;
    for (double w : untraced_wall) solve_ms.push_back(w * 1e3);
    layer.set("ops_per_s", 1.0 / median(untraced_wall));
    layer.set("query_p50_ms", median(solve_ms));
    layer.set("query_p99_ms", quantile(solve_ms, 0.99));
    return out;
  }
  top_up_setup_samples(s, [&] {
    Input in = make_input(input_seed(cfg.seed, 0));
    mr::Cluster cluster(in.config);
  });
  s.end_to_end_into(e2e);
  e2e.set("peak_rss_mb", peak_rss_mb());
  return out;
}

RunOutcome run_smallworld_ff5(const RunConfig& cfg, MetricTable& e2e,
                              MetricTable& layer) {
  const Sizes& z = sizes(cfg);
  const graph::FacebookLadderEntry entry =
      graph::facebook_ladder(z.fb_scale)[kFb4Index];
  auto make_input = [&](uint64_t seed) {
    Input in;
    const double t0 = wall_now();
    in.problem = bench::attach_terminals(bench::build_fb_graph(entry, seed),
                                         z.fb_terminals, entry.avg_degree,
                                         seed);
    in.build_s = wall_now() - t0;
    in.config = paper_cluster(cfg);
    return in;
  };
  auto solve = [](mr::Cluster& cluster, const graph::FlowProblem& p) {
    ffmr::FfmrOptions options;
    options.variant = ffmr::Variant::FF5;
    options.wire = ffmr::WireChoice::kOn;
    ffmr::FfmrResult r = ffmr::solve_max_flow(cluster, p, options);
    Solved out;
    out.flow = r.max_flow;
    out.assignment = std::move(r.assignment);
    out.totals = r.totals;
    collect_jobs(r.rounds_info, out);
    double extended = 0, candidates = 0, accepted = 0, max_queue = 0;
    for (const ffmr::RoundInfo& ri : r.rounds_info) {
      extended += static_cast<double>(ri.paths_extended);
      candidates += static_cast<double>(ri.candidates);
      accepted += static_cast<double>(ri.accepted_paths);
      max_queue = std::max(max_queue, static_cast<double>(ri.max_queue));
    }
    out.layer["ffmr.rounds"] = r.rounds;
    out.layer["ffmr.paths_extended"] = extended;
    out.layer["ffmr.candidates"] = candidates;
    out.layer["ffmr.accepted_paths"] = accepted;
    out.layer["ffmr.accept_ratio"] = candidates > 0 ? accepted / candidates : 0;
    out.layer["ffmr.max_queue"] = max_queue;
    return out;
  };
  return run_solve_workload(cfg, e2e, layer, "ffmr", make_input, solve);
}

RunOutcome run_lattice_ffpr(const RunConfig& cfg, MetricTable& e2e,
                            MetricTable& layer) {
  const Sizes& z = sizes(cfg);
  auto make_input = [&](uint64_t seed) {
    Input in;
    const double t0 = wall_now();
    const graph::FlowProblem grid =
        graph::lattice_flow_problem(z.lat_rows, z.lat_cols);
    // The seed relabels the vertices with a random permutation, which moves
    // them between map and reduce partitions. Shape, diameter, capacities
    // and the flow value do not depend on it.
    std::vector<graph::VertexId> label(grid.graph.num_vertices());
    for (graph::VertexId v = 0; v < label.size(); ++v) label[v] = v;
    rng::Xoshiro256 rng(seed);
    for (size_t i = label.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(label[i - 1], label[rng.next_below(i)]);
    }
    graph::Graph g(grid.graph.num_vertices());
    for (const graph::EdgePair& e : grid.graph.edges()) {
      g.add_edge(label[e.a], label[e.b], e.cap_ab, e.cap_ba);
    }
    g.finalize();
    in.problem = {std::move(g), label[grid.source], label[grid.sink]};
    in.build_s = wall_now() - t0;
    in.config = cli_cluster(cfg);
    return in;
  };
  auto solve = [](mr::Cluster& cluster, const graph::FlowProblem& p) {
    ffpr::FfprResult r = ffpr::solve_max_flow(cluster, p, ffpr::FfprOptions{});
    Solved out;
    out.flow = r.max_flow;
    out.assignment = std::move(r.assignment);
    out.totals = r.totals;
    collect_jobs(r.rounds_info, out);
    // Round 0's source saturation grants pushes nobody requested; the
    // ratio covers the push waves only.
    double requests = 0, pushes = 0;
    for (size_t i = 1; i < r.rounds_info.size(); ++i) {
      requests += static_cast<double>(r.rounds_info[i].requests);
      pushes += static_cast<double>(r.rounds_info[i].pushes);
    }
    out.layer["ffpr.waves"] = r.waves;
    out.layer["ffpr.relabel_jobs"] = r.relabel_rounds;
    out.layer["ffpr.requests"] = requests;
    out.layer["ffpr.push_ratio"] = requests > 0 ? pushes / requests : 0;
    out.layer["ffpr.lifts"] = static_cast<double>(r.total_lifts);
    return out;
  };
  return run_solve_workload(cfg, e2e, layer, "ffpr", make_input, solve);
}

// ------------------------------------------------------- service workload

struct ServiceInput {
  graph::Graph graph;
  service::Trace trace;
  std::unique_ptr<mr::Cluster> cluster;
  std::unique_ptr<service::FlowService> svc;  // declared after cluster, so
                                              // destroyed before it
  double build_s = 0;
};

std::unique_ptr<ServiceInput> make_service_input(const RunConfig& cfg,
                                                 uint64_t seed) {
  const Sizes& z = sizes(cfg);
  auto in = std::make_unique<ServiceInput>();
  const double t0 = wall_now();
  in->graph =
      graph::watts_strogatz(z.ws_vertices, kWsNeighbors, kWsRewire, seed);
  in->graph.finalize();
  in->build_s = wall_now() - t0;
  // generate_trace's default mix and hot set, as maxflow_cli's example
  // traces (make_example_graph) use.
  service::TraceGenOptions topt;
  topt.ops = z.trace_ops;
  topt.seed = seed;
  in->trace = service::generate_trace(in->graph, topt);
  in->cluster = std::make_unique<mr::Cluster>(cli_cluster(cfg));
  // maxflow_cli --serve --algo=ff5: FFMR backend with cache, warm start,
  // batching (window 8) and per-answer certification on.
  service::ServiceOptions sopt;
  sopt.backend = service::Backend::kFfmr;
  sopt.ffmr.variant = ffmr::Variant::FF5;
  in->svc = std::make_unique<service::FlowService>(in->cluster.get(),
                                                   in->graph, sopt);
  return in;
}

// Answers of a cold replay: sequential Dinic, no cache, no warm start, no
// batching -- nothing the service under test relies on.
std::vector<graph::Capacity> cold_dinic_answers(const ServiceInput& in) {
  service::ServiceOptions sopt;
  sopt.backend = service::Backend::kDinic;
  sopt.cache = false;
  sopt.warm_start = false;
  sopt.batching = false;
  sopt.certify_answers = false;
  service::FlowService cold(nullptr, in.graph, sopt);
  std::vector<graph::Capacity> values;
  for (const service::QueryResult& q : cold.replay(in.trace).query_results) {
    values.push_back(q.value);
  }
  return values;
}

uint64_t shuffled_bytes_so_far() {
  const common::MetricsSnapshot snap =
      common::MetricsRegistry::global().cumulative();
  auto it = snap.histograms.find("map.run_bytes");
  return it == snap.histograms.end() ? 0 : it->second.sum();
}

struct ReplayStats {
  double call_s = 0;  // summed duration of the apply/query/query_batch calls
  double cpu_s = 0;   // process CPU over those calls
  double solver_rounds = 0;
  double shuffle_mb = 0;
  double certify_s = 0;  // the benchmark's own certificate checks
  std::vector<double> query_ms, update_ms;
  std::map<service::AnswerSource, std::vector<double>> source_ms;
};

// Replays the trace the way FlowService::replay() groups it -- updates one
// by one through apply(), runs of consecutive queries in windows of
// batch_window through query_batch() (a lone query through query()) --
// timing each call and checking every answer outside the timed calls.
ReplayStats replay_checked(ServiceInput& in,
                           const std::vector<graph::Capacity>& expected,
                           RunOutcome& out) {
  ReplayStats st;
  const uint64_t bytes0 = shuffled_bytes_so_far();
  const size_t window_max =
      static_cast<size_t>(service::ServiceOptions{}.batch_window);
  std::vector<std::pair<graph::VertexId, graph::VertexId>> window;
  size_t next_query = 0;  // index into `expected`

  auto timed = [&](auto&& call) {
    const double c0 = cpu_now();
    const double w0 = wall_now();
    call();
    const double dt = wall_now() - w0;
    st.cpu_s += cpu_now() - c0;
    st.call_s += dt;
    return dt;
  };
  auto check = [&](const service::QueryResult& r, graph::VertexId s,
                   graph::VertexId t, double dt) {
    const size_t qi = next_query++;
    ++out.attempted;
    st.query_ms.push_back(dt * 1e3);
    st.source_ms[r.source].push_back(dt * 1e3);
    st.solver_rounds += r.rounds;
    const double tc = wall_now();
    const flow::Certificate cert =
        flow::certify_max_flow(in.svc->graph(), s, t, r.assignment);
    st.certify_s += wall_now() - tc;
    if (qi >= expected.size() || r.value != expected[qi]) {
      out.fail("query " + std::to_string(qi) + " (" + std::to_string(s) +
               "," + std::to_string(t) + ") answered " +
               std::to_string(r.value) + ", cold dinic replay " +
               (qi < expected.size() ? std::to_string(expected[qi]) : "none"));
    } else if (!cert.valid() || cert.flow_value != r.value) {
      out.fail("query " + std::to_string(qi) +
               " certificate invalid: " + cert.summary());
    }
  };
  auto flush = [&] {
    if (window.empty()) return;
    try {
      if (window.size() == 1) {
        service::QueryResult r;
        const double dt = timed([&] {
          TraceSpan span("bench.service.query", "bench");
          r = in.svc->query(window[0].first, window[0].second);
        });
        check(r, window[0].first, window[0].second, dt);
      } else {
        std::vector<service::QueryResult> rs;
        const double dt = timed([&] {
          TraceSpan span("bench.service.query_batch", "bench");
          rs = in.svc->query_batch(window);
        });
        for (size_t i = 0; i < window.size(); ++i) {
          check(rs.at(i), window[i].first, window[i].second, dt);
        }
      }
    } catch (const std::exception& e) {
      for (size_t i = 0; i < window.size(); ++i, ++next_query) {
        ++out.attempted;
        out.fail(std::string("query threw: ") + e.what());
      }
    }
    window.clear();
  };
  for (const service::Op& op : in.trace) {
    if (op.kind == service::OpKind::kQuery) {
      window.emplace_back(op.u, op.v);
      if (window.size() >= window_max) flush();
      continue;
    }
    flush();
    ++out.attempted;
    try {
      const double dt = timed([&] {
        TraceSpan span("bench.service.apply", "bench");
        in.svc->apply(op);
      });
      st.update_ms.push_back(dt * 1e3);
    } catch (const std::exception& e) {
      out.fail(std::string(service::op_kind_name(op.kind)) +
               " threw: " + e.what());
    }
  }
  flush();
  st.shuffle_mb = static_cast<double>(shuffled_bytes_so_far() - bytes0) / 1e6;
  return st;
}

// One round per input: set up a service on a fresh graph and trace, replay
// it cold with Dinic for the expected answers, then replay it through the
// service under test. The traced run replays each input a second time, on
// a second fresh service, with tracing on.
RunOutcome run_service_mixed(const RunConfig& cfg, MetricTable& e2e,
                             MetricTable& layer) {
  RunOutcome out;
  Samples s;
  std::vector<double> untraced_wall, traced_wall;
  std::vector<double> query_ms, update_ms;
  std::map<service::AnswerSource, std::vector<double>> source_ms;
  const double start = wall_now();
  double t0 = start;
  for (size_t round = 0;
       round < kMinReplays || more_time(start, t0, cfg);
       ++round) {
    t0 = wall_now();
    const uint64_t seed = input_seed(cfg.seed, round);
    std::unique_ptr<ServiceInput> in;
    {
      TraceSpan span("bench.setup", "bench");
      in = make_service_input(cfg, seed);
    }
    s.add("setup_s", wall_now() - t0);
    s.add("graph.build_s", in->build_s);
    const double td = wall_now();
    const std::vector<graph::Capacity> expected = cold_dinic_answers(*in);
    s.add("flow.dinic_s", wall_now() - td);

    const ReplayStats st = replay_checked(*in, expected, out);
    std::fprintf(stderr,
                 "perfbench: service input %llu: %zu ops, %.0f solver rounds, "
                 "%.1f MB shuffled, %.3f s, %.3f s CPU\n",
                 static_cast<unsigned long long>(seed), in->trace.size(),
                 st.solver_rounds, st.shuffle_mb, st.call_s, st.cpu_s);
    untraced_wall.push_back(st.call_s);
    s.add("solve_s", st.call_s);
    s.add("ops_per_s", static_cast<double>(in->trace.size()) / st.call_s);
    s.add("cpu_s", st.cpu_s);
    s.add("rounds", st.solver_rounds);
    s.add("shuffle_mb", st.shuffle_mb);
    s.add("flow.certify_s", st.certify_s);
    query_ms.insert(query_ms.end(), st.query_ms.begin(), st.query_ms.end());
    update_ms.insert(update_ms.end(), st.update_ms.begin(), st.update_ms.end());
    for (const auto& [src, ms] : st.source_ms) {
      auto& dst = source_ms[src];
      dst.insert(dst.end(), ms.begin(), ms.end());
    }
    const service::ServiceCounters& c = in->svc->counters();
    s.add("service.cache_hit_ratio",
          c.queries > 0 ? static_cast<double>(c.cache_hits) /
                              static_cast<double>(c.queries)
                        : 0);
    s.add("service.cold_solves", static_cast<double>(c.cold_solves));
    s.add("service.warm_hits", static_cast<double>(c.warm_hits));
    s.add("service.queries_batched", static_cast<double>(c.queries_batched));
    s.add("service.repair_rounds", static_cast<double>(c.repair_rounds));
    s.add("service.cache_invalidations",
          static_cast<double>(c.cache_invalidations));

    if (!cfg.trace) continue;
    in = make_service_input(cfg, seed);
    start_tracing();
    const ReplayStats traced = replay_checked(*in, expected, out);
    const SpanSummary spans = stop_tracing(cfg, traced_wall.empty());
    traced_wall.push_back(traced.call_s);
    record_span_metrics(spans, s);
    const auto it = spans.durations_s.find("job");
    if (it != spans.durations_s.end()) {
      s.add("mapreduce.jobs", static_cast<double>(it->second.size()));
      s.add("mapreduce.job_wall_s", sum(it->second));
      for (double w : it->second) s.add("job_ms", w * 1e3);
    }
  }

  if (cfg.trace) {
    s.medians_into(layer);
    layer.set("mapreduce.job_p50_ms", s.med("job_ms"));
    layer.set("query_p50_ms", median(query_ms));
    layer.set("query_p99_ms", quantile(query_ms, 0.99));
    layer.set("service.update_p50_ms", median(update_ms));
    layer.set("service.cold_p50_ms",
              median(source_ms[service::AnswerSource::kCold]));
    layer.set("service.warm_p50_ms",
              median(source_ms[service::AnswerSource::kWarm]));
    layer.set("service.batch_p50_ms",
              median(source_ms[service::AnswerSource::kBatch]));
    layer.set("trace.overhead_pct", overhead_pct(traced_wall, untraced_wall));
    return out;
  }
  top_up_setup_samples(
      s, [&] { make_service_input(cfg, input_seed(cfg.seed, 0)); });
  s.end_to_end_into(e2e);
  e2e.set("peak_rss_mb", peak_rss_mb());
  return out;
}

}  // namespace

void declare_end_to_end(MetricTable& t) {
  t.declare("setup_s", "s");
  t.declare("cpu_s", "s");
  t.declare("peak_rss_mb", "MB");
  t.declare("rounds", "count");
  t.declare("shuffle_mb", "MB");
}

void declare_per_layer(MetricTable& t) {
  // Wall-clock figures of the whole workload, from the traced run's
  // untraced passes (README: why they are not end-to-end metrics).
  t.declare("solve_s", "s");
  t.declare("ops_per_s", "ops/s");
  t.declare("query_p50_ms", "ms");
  t.declare("query_p99_ms", "ms");
  t.declare("graph.build_s", "s");
  t.declare("flow.dinic_s", "s");
  t.declare("flow.certify_s", "s");
  t.declare("mapreduce.jobs", "count");
  t.declare("mapreduce.job_wall_s", "s");
  t.declare("mapreduce.job_p50_ms", "ms");
  t.declare("mapreduce.map_output_records", "count");
  t.declare("mapreduce.shuffle_wire_mb", "MB");
  t.declare("mapreduce.schimmy_mb", "MB");
  t.declare("mapreduce.critical_path_s", "s");
  t.declare("mapreduce.sim_s", "s");
  for (size_t c = 0; c < common::BlameBreakdown::kCategories; ++c) {
    t.declare(blame_metric(c), "s");
  }
  for (const auto& [metric, span] : kSelfSpans) {
    if (std::string(metric).rfind("mapreduce.", 0) == 0) t.declare(metric, "s");
  }
  t.declare("dfs.read_self_s", "s");
  t.declare("dfs.write_self_s", "s");
  t.declare("common.codec_self_s", "s");
  t.declare("ffmr.rounds", "count");
  t.declare("ffmr.driver_s", "s");
  t.declare("ffmr.paths_extended", "count");
  t.declare("ffmr.candidates", "count");
  t.declare("ffmr.accepted_paths", "count");
  t.declare("ffmr.accept_ratio", "ratio");
  t.declare("ffmr.max_queue", "count");
  t.declare("ffmr.aug_accept_self_s", "s");
  t.declare("ffpr.waves", "count");
  t.declare("ffpr.relabel_jobs", "count");
  t.declare("ffpr.driver_s", "s");
  t.declare("ffpr.requests", "count");
  t.declare("ffpr.push_ratio", "ratio");
  t.declare("ffpr.lifts", "count");
  t.declare("service.cache_hit_ratio", "ratio");
  t.declare("service.cold_solves", "count");
  t.declare("service.warm_hits", "count");
  t.declare("service.queries_batched", "count");
  t.declare("service.repair_rounds", "count");
  t.declare("service.cache_invalidations", "count");
  t.declare("service.update_p50_ms", "ms");
  t.declare("service.cold_p50_ms", "ms");
  t.declare("service.warm_p50_ms", "ms");
  t.declare("service.batch_p50_ms", "ms");
  t.declare("trace.spans", "count");
  t.declare("trace.spans_dropped", "count");
  t.declare("trace.overhead_pct", "%");
}

RunOutcome run_workload(const RunConfig& cfg, MetricTable& e2e,
                        MetricTable& layer) {
  if (cfg.workload == "smallworld-ff5") return run_smallworld_ff5(cfg, e2e, layer);
  if (cfg.workload == "lattice-ffpr") return run_lattice_ffpr(cfg, e2e, layer);
  if (cfg.workload == "service-mixed") return run_service_mixed(cfg, e2e, layer);
  throw std::invalid_argument("unknown workload: " + cfg.workload);
}

}  // namespace perfbench
