// perfbench: the repository benchmark program.
//
//   perfbench --workload saturated|chaos|offline --seed N --seconds S
//             --trace 0|1 [--smoke] [--out-dir DIR] [--revision REV]
//
// Builds the workload from the seed (several times, timing set-up), repeats
// the run until S seconds have been measured, then checks the split set-up
// against exp::make_instance. --trace 0 prints the end-to-end metrics;
// --trace 1 alternates untraced and traced repetitions, prints the
// per-layer metrics, and writes a chrome://tracing file plus a self-time
// table into DIR. The last stdout line is always one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 on success, 1 when a correctness check failed (the JSON
// is still printed and says so), 2 on usage or configuration errors.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::LayerTally;
using perfbench::RepResult;

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload saturated|chaos|offline "
               "--seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR] "
               "[--revision REV]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = static_cast<unsigned>(std::stoul(val));
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--out-dir") {
        a.out_dir = val;
      } else if (key == "--revision") {
        a.revision = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double p) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// The highest of the usual tail percentiles that leaves at least ten of
/// `samples` beyond it; 100 (the maximum) below eleven samples. The
/// samples are per-slot medians, one per slot, so the percentile does not
/// depend on how many repetitions fit in the run.
double tail_percentile(std::size_t samples) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0}) {
    const double beyond = static_cast<double>(samples) * (1.0 - p / 100.0);
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return 100.0;
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics of one traced repetition (see perfbench/README.md for
/// the layer -> metric -> workload table).
std::vector<Metric> layer_metrics(const RepResult& r) {
  const LayerTally& t = r.layers;
  const double run_ms = r.run_s * 1e3;
  const double build_self = t.build_ms - t.build_candidate_ms;
  // Everything a layer replay or the decorator measured directly; the
  // residuals (decide self, engine, admission) are not counted.
  const double covered =
      t.candidate_ms + build_self + t.solve_ms + t.overlay_ms + t.feedback_ms;
  const double program_ms =
      t.offline_call_ms > 0.0 ? t.offline_call_ms : t.decide_ms;
  return {
      {"core.candidate_calls", static_cast<double>(t.candidate_calls), "count"},
      {"core.candidate_us_per_call",
       safe_div(t.candidate_ms * 1e3, static_cast<double>(t.candidate_calls)),
       "us"},
      {"core.candidates_feasible_mean",
       safe_div(static_cast<double>(t.feasible_sampled),
                static_cast<double>(t.sampled_calls)),
       "count"},
      {"core.candidates_kept_ratio",
       safe_div(static_cast<double>(t.kept_sampled),
                static_cast<double>(t.feasible_sampled)),
       "ratio"},
      {"core.candidate_share", safe_div(t.candidate_ms, run_ms), "ratio"},
      {"core.build_slot_lp_ms", build_self, "ms"},
      {"core.lp_cols",
       safe_div(static_cast<double>(t.lp_cols), static_cast<double>(t.builds)),
       "count"},
      {"core.lp_rows",
       safe_div(static_cast<double>(t.lp_rows), static_cast<double>(t.builds)),
       "count"},
      {"core.admission_ms",
       std::max(0.0, program_ms - t.candidate_ms - build_self - t.solve_ms),
       "ms"},
      {"lp.solve_ms", t.solve_ms, "ms"},
      {"lp.solve_share", safe_div(t.solve_ms, run_ms), "ratio"},
      {"lp.solves", t.lp.solves, "count"},
      {"lp.pivots_per_solve", safe_div(t.lp.pivots, t.lp.solves), "count"},
      {"lp.refactorizations", t.lp.refactorizations, "count"},
      {"lp.warm_hit_ratio",
       safe_div(t.lp.warm_hits, t.lp.warm_hits + t.lp.warm_misses), "ratio"},
      {"lp.recoveries", t.lp.recoveries, "count"},
      {"mec.overlay_rebuilds", static_cast<double>(t.overlay_rebuilds),
       "count"},
      {"mec.overlay_rebuild_ms", t.overlay_ms, "ms"},
      {"mec.overlay_share", safe_div(t.overlay_ms, run_ms), "ratio"},
      {"sim.decide_ms", t.decide_ms, "ms"},
      {"sim.feedback_ms", t.feedback_ms, "ms"},
      {"sim.engine_ms",
       t.slots > 0 ? std::max(0.0, run_ms - t.decide_ms - t.feedback_ms) : 0.0,
       "ms"},
      {"sim.pending_per_slot",
       safe_div(static_cast<double>(t.pending_sum),
                static_cast<double>(t.slots)),
       "count"},
      {"sim.admissions", t.admissions, "count"},
      {"sim.completions", t.completions, "count"},
      {"sim.drops", t.drops, "count"},
      {"sim.preemptions", t.preemptions, "count"},
      {"sim.displacements", t.displacements, "count"},
      {"sim.lp_fallbacks", t.lp_fallbacks, "count"},
      {"bandit.arm_pulls", t.arm_pulls, "count"},
      {"bandit.arm_eliminations", t.arm_eliminations, "count"},
      {"bandit.active_arms_final", t.active_arms_final, "count"},
      {"obs.layer_coverage", safe_div(covered, run_ms), "ratio"},
      {"obs.counter_mismatches", static_cast<double>(t.counter_mismatches),
       "count"},
  };
}

/// Self time per layer of one traced repetition: replayed layers are
/// charged to the program span that made the call and subtracted from its
/// self time.
std::string self_time_table(const RepResult& r) {
  const LayerTally& t = r.layers;
  const double run_ms = r.run_s * 1e3;
  const double build_self = t.build_ms - t.build_candidate_ms;
  struct Row {
    const char* layer;
    double calls;
    double ms;
  };
  std::vector<Row> rows = {
      {"core.candidate_stations (replayed)",
       static_cast<double>(t.candidate_calls), t.candidate_ms},
      {"core.build_slot_lp self (replayed)", static_cast<double>(t.builds),
       build_self},
      {"lp.solve_lp (replayed)", t.replay_lp.solves, t.solve_ms},
      {"mec.TopologyOverlay rebuild (replayed)",
       static_cast<double>(t.overlay_rebuilds), t.overlay_ms},
  };
  const double layered = t.candidate_ms + build_self + t.solve_ms;
  if (t.offline_call_ms > 0.0) {
    rows.push_back({"core admission/rounding self (Appro+Heu - above)", 2.0,
                    std::max(0.0, t.offline_call_ms - layered)});
  } else {
    rows.push_back({"sim.decide self (decide - replayed core/lp)",
                    static_cast<double>(t.slots),
                    std::max(0.0, t.decide_ms - layered)});
    rows.push_back({"sim.feedback", static_cast<double>(t.slots),
                    t.feedback_ms});
    rows.push_back(
        {"sim engine self (run - decide - feedback - overlay)",
         static_cast<double>(t.slots),
         std::max(0.0, run_ms - t.decide_ms - t.feedback_ms - t.overlay_ms)});
  }
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-52s %10s %12s %8s\n", "layer", "calls",
                "self_ms", "share");
  os << line;
  for (const Row& row : rows) {
    std::snprintf(line, sizeof line, "%-52s %10.0f %12.3f %7.1f%%\n",
                  row.layer, row.calls, row.ms,
                  100.0 * safe_div(row.ms, run_ms));
    os << line;
  }
  std::snprintf(line, sizeof line, "%-52s %10s %12.3f %7.1f%%\n", "run_s",
                "", run_ms, 100.0);
  os << line;
  return os.str();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
#ifndef NDEBUG
  usage("refusing a build with assertions enabled");
#endif
  // Single-threaded by construction: the pool reads MECAR_THREADS on first
  // use, and the simulator runs one shard (set explicitly in set_up).
  setenv("MECAR_THREADS", "1", 1);

  perfbench::WorkloadSpec spec;
  try {
    spec = perfbench::workload_spec(args.workload, args.smoke);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  std::cout << "# config {\"workload\": " << json_string(spec.name)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << json_number(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"smoke\": " << (args.smoke ? "true" : "false")
            << ", \"stations\": " << spec.stations
            << ", \"requests\": " << spec.requests
            << ", \"horizon_slots\": " << spec.horizon
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"MECAR_THREADS\": " << json_string(getenv("MECAR_THREADS"))
            << ", \"shards\": " << (spec.online ? 1 : 0)
            << ", \"telemetry\": " << (MECAR_TELEMETRY_ENABLED ? "true" : "false")
            << ", \"revision\": " << json_string(args.revision) << "}\n";

  // Set-up, several times: setup_s is the median. Cheap set-ups repeat for
  // at least a second so the median is not one noisy sample.
  const perfbench::Clock setup_clock;
  std::vector<double> setup_s, topology_s, requests_s, ctor_s;
  std::unique_ptr<perfbench::Bench> bench;
  for (int i = 1;; ++i) {
    bench.reset();  // free the last instance first, so it does not add to RSS
    perfbench::SetupTimes times;
    bench = perfbench::set_up(spec, args.seed, times);
    setup_s.push_back(times.total());
    topology_s.push_back(times.topology_s);
    requests_s.push_back(times.requests_s);
    ctor_s.push_back(times.ctor_s);
    if (args.smoke || i >= 50 || (i >= 3 && setup_clock.now_us() >= 1e6)) {
      break;
    }
  }

  // Measured repetitions until --seconds have passed. --trace 1 alternates
  // untraced and traced repetitions so both see the same host conditions;
  // only the first traced one keeps its spans.
  const perfbench::Clock clock;
  perfbench::SpanRecorder spans(args.trace);
  perfbench::SpanRecorder untraced;
  std::vector<RepResult> plain, traced;
  std::vector<std::string> violations;
  const double measure_start = clock.now_us();
  long long attempted = 0;
  for (std::size_t rep = 0;; ++rep) {
    const bool trace_this = args.trace && rep % 2 == 1;
    RepResult r = perfbench::run_rep(*bench, trace_this,
                                     trace_this ? spans : untraced, clock);
    if (trace_this) spans.disable();
    attempted += r.attempted;
    for (const std::string& v : r.violations) {
      violations.push_back("rep " + std::to_string(rep) + ": " + v);
    }
    if (!plain.empty() && (r.reward != plain.front().reward ||
                           r.served != plain.front().served)) {
      violations.push_back("rep " + std::to_string(rep) +
                           ": reward/served differ from the first repetition");
    }
    (trace_this ? traced : plain).push_back(std::move(r));
    const double elapsed_s = (clock.now_us() - measure_start) / 1e6;
    const std::size_t min_plain = args.trace || args.smoke ? 1 : 3;
    if (elapsed_s >= args.seconds && plain.size() >= min_plain &&
        (!args.trace || !traced.empty())) {
      break;
    }
  }

  // Peak RSS of set-up and measurement, read before the instance check
  // below builds a second instance of its own.
  const double rss_mb = peak_rss_mb();
  for (const std::string& v : perfbench::check_instance(*bench)) {
    violations.push_back("instance: " + v);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Every repetition makes the same decisions, so slot k is the same
    // work in each: its median over the repetitions discards a host
    // disturbance that hit one repetition, and the slot percentiles are
    // taken over those per-slot medians.
    const RepResult& r0 = plain.front();
    std::vector<double> run, slot_med;
    std::ostringstream per_rep;
    for (const RepResult& r : plain) {
      run.push_back(r.run_s);
      per_rep << ' ' << r.run_s;
    }
    for (std::size_t k = 0; k < r0.slot_ms.size(); ++k) {
      std::vector<double> at_k;
      for (const RepResult& r : plain) at_k.push_back(r.slot_ms[k]);
      slot_med.push_back(median(at_k));
    }
    std::sort(slot_med.begin(), slot_med.end());
    const double p_tail = tail_percentile(slot_med.size());
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"run_s", median(run), "s"},
        {"slot_ms_p50", percentile_sorted(slot_med, 50.0), "ms"},
        {"slot_ms_tail", percentile_sorted(slot_med, p_tail), "ms"},
        {"reward", r0.reward, "dollars"},
        {"completion_ratio",
         safe_div(static_cast<double>(r0.served),
                  static_cast<double>(r0.attempted)),
         "ratio"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    std::cout << "# " << plain.size() << " reps; slot_ms over "
              << slot_med.size() << " per-slot medians, slot_ms_tail = p"
              << p_tail << " (" << slot_med.size()
              << " samples); per rep: " << r0.attempted << " attempted, "
              << r0.served << " served, " << r0.dropped
              << " dropped\n# run_s per rep:" << per_rep.str() << '\n';
  } else {
    // Per-layer: median over traced repetitions, set-up layers over the
    // set-up repetitions.
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, std::string> units;
    std::vector<std::string> order;
    std::vector<double> plain_run, traced_run;
    for (const RepResult& r : plain) plain_run.push_back(r.run_s);
    for (const RepResult& r : traced) {
      traced_run.push_back(r.run_s);
      for (const Metric& m : layer_metrics(r)) {
        if (!values.count(m.name)) order.push_back(m.name);
        values[m.name].push_back(m.value);
        units[m.name] = m.unit;
      }
    }
    metrics = {
        {"mec.topology_s", median(topology_s), "s"},
        {"mec.requests_s", median(requests_s), "s"},
        {"sim.ctor_s", median(ctor_s), "s"},
    };
    for (const std::string& name : order) {
      metrics.push_back({name, median(values[name]), units[name]});
    }
    // Alternation pairs each traced repetition with an untraced one.
    metrics.push_back({"obs.trace_overhead_ratio",
                       safe_div(median(traced_run), median(plain_run)),
                       "ratio"});

    const std::string table = self_time_table(traced.front());
    std::cout << "# self time per layer, first traced repetition ("
              << plain.size() << " untraced, " << traced.size()
              << " traced reps)\n";
    std::istringstream lines(table);
    for (std::string line; std::getline(lines, line);) {
      std::cout << "#   " << line << '\n';
    }
    const std::string stem = args.out_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed);
    std::ofstream(stem + ".selftime.txt") << table;
    if (!spans.write_chrome_trace(stem + ".trace.json")) {
      std::cerr << "perfbench: cannot write " << stem << ".trace.json\n";
    } else {
      std::cout << "# chrome trace: " << stem << ".trace.json ("
                << spans.spans().size() << " spans)\n";
    }
  }

  for (const std::string& v : violations) {
    std::cout << "# VIOLATION " << v << '\n';
  }
  const long long failed = static_cast<long long>(violations.size());
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(metrics[i].name)
              << ": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}
