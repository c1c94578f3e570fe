// The benchmark's workloads: instance set-up split by layer, one measured
// repetition of the online slot loop or the offline Appro + Heu pair, the
// timing decorator around OnlinePolicy, and the layer replays a traced
// repetition adds. Every call goes through mecar's public API.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/instance.h"
#include "sim/dynamic_rr.h"
#include "sim/fault_plan.h"
#include "sim/online_sim.h"
#include "trace.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool online = true;
  int stations = 0;
  int requests = 0;
  int horizon = 0;  // slots; 0 = offline
  bool chaos = false;
};

/// `saturated`, `chaos` or `offline`; `smoke` shrinks each to a few
/// hundred milliseconds. Throws std::invalid_argument on other names.
WorkloadSpec workload_spec(const std::string& name, bool smoke);

/// Wall time of the three set-up layers, seconds.
struct SetupTimes {
  double topology_s = 0.0;  // mec::generate_topology, all-pairs Dijkstra
  double requests_s = 0.0;  // mec::generate_requests + demand realization
  double ctor_s = 0.0;      // OnlineSimulator construction (online only)
  double total() const { return topology_s + requests_s + ctor_s; }
};

/// A built workload, reused by every measured repetition.
struct Bench {
  WorkloadSpec spec;
  unsigned seed = 0;
  mecar::exp::InstanceConfig config;
  mecar::exp::Instance inst;
  mecar::sim::FaultPlan plan;
  std::unique_ptr<mecar::sim::OnlineSimulator> sim;
};

/// Generates the workload for `seed` (topology -> requests -> realizations
/// -> fault plan -> simulator), timing each layer.
std::unique_ptr<Bench> set_up(const WorkloadSpec& spec, unsigned seed,
                              SetupTimes& times);

/// Compares the split set-up against exp::make_instance for the same seed;
/// returns one message per difference.
std::vector<std::string> check_instance(const Bench& bench);

/// LP solve counters, as lp::RevisedSimplexSolver records them in the obs
/// catalog (lp.solves, lp.pivots, ...).
struct LpCounts {
  double solves = 0.0;
  double pivots = 0.0;
  double refactorizations = 0.0;
  double warm_hits = 0.0;
  double warm_misses = 0.0;
  double recoveries = 0.0;
};

/// Raw per-repetition sums behind the per-layer metrics. Times in ms.
struct LayerTally {
  // Replayed layers (traced repetitions only).
  long long candidate_calls = 0;
  double candidate_ms = 0.0;
  long long feasible_sampled = 0;  // feasible stations over sampled calls
  long long kept_sampled = 0;      // returned candidates over sampled calls
  long long sampled_calls = 0;
  long long builds = 0;
  double build_ms = 0.0;            // build_slot_lp, candidate scans included
  double build_candidate_ms = 0.0;  // the candidate scans build_slot_lp makes
  long long lp_cols = 0;
  long long lp_rows = 0;
  LpCounts replay_lp;  // what the replayed solves added to the obs counters
  double solve_ms = 0.0;
  long long overlay_rebuilds = 0;
  double overlay_ms = 0.0;
  // Program calls timed by the decorator / around the offline calls.
  double decide_ms = 0.0;
  double feedback_ms = 0.0;
  double offline_call_ms = 0.0;
  long long slots = 0;
  long long pending_sum = 0;
  // The program's own obs counters over the repetition, replays excluded.
  LpCounts lp;
  double admissions = 0.0;
  double completions = 0.0;
  double drops = 0.0;
  double preemptions = 0.0;
  double displacements = 0.0;
  double lp_fallbacks = 0.0;
  double arm_pulls = 0.0;
  double arm_eliminations = 0.0;
  double active_arms_final = 0.0;
  /// Replay-vs-program disagreements (traced repetitions only).
  long long counter_mismatches = 0;
};

struct RepResult {
  double run_s = 0.0;
  /// Whole-slot wall times (ms) between successive decide entries, the
  /// last slot closing at the end of the run; offline: the Appro call and
  /// the Heu call.
  std::vector<double> slot_ms;
  double reward = 0.0;
  long long attempted = 0;  // requests offered (offline: per algorithm)
  long long served = 0;     // completed online, rewarded offline
  long long dropped = 0;    // dropped online, not rewarded offline
  std::vector<std::string> violations;
  LayerTally layers;
};

/// One measured repetition. A traced repetition records spans into
/// `spans` and replays the candidate, slot-LP, LP and overlay layers on
/// the program's inputs; replay time is excluded from run_s and slot_ms.
RepResult run_rep(Bench& bench, bool traced, SpanRecorder& spans,
                  const Clock& clock);

}  // namespace perfbench
