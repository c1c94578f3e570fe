// Declarative experiment descriptions — the front door of the scenario
// engine. A ScenarioSpec captures everything one experiment needs:
// topology + workload parameters, arrival process, fault injection
// (scripted plan reference or chaos intensity), mobility, the sweep axis
// and its points, the policies under comparison, seeds, horizon, and the
// metrics to collect. exp::Runner executes any spec; the figure benches
// are thin specs, and `mecar_cli experiment --spec=FILE` runs arbitrary
// ones without compiling anything.
//
// Specs round-trip through a line-oriented text format (mirroring the
// fault-plan format, parsed with the hardened util::parse readers):
//
//   # comment
//   name fig4_online
//   kind sweep                      # sweep | regret
//   axis requests                   # requests|stations|rate_max|chaos|
//                                   #   horizon|kappa|none
//   points 100 150 200 250 300
//   seeds 3
//   horizon 600                     # 0 = offline problem
//   requests 150
//   stations 20
//   rate_min 30
//   rate_max 50
//   reward_model independent        # independent | proportional
//   arrivals uniform                # uniform | poisson | flash_crowd
//   home_skew 1.0
//   link_bandwidth 210 390          # MB/s; "inf" = unconstrained (default)
//   policy DynamicRR                # registry name [display label...]
//   policy offline:Greedy Greedy    # offline:/online: disambiguates names
//   metric reward                   # one line per collected metric
//   policy_seed_offset 1            # policy rng = Rng(seed + offset)
//   chaos 0.5                       # fixed chaos intensity (axis!=chaos)
//   fault_plan scenarios/cut.plan   # scripted faults (excludes chaos)
//   mobility 12 300 4               # request, slot, new home station
//   threshold_range 500 1100        # DynamicRR C^th range, MHz
//   kappa 4
//   scale_thresholds true           # derive the range from the rate
//   threshold_headroom 5            #   support: [rate_min, rate_max+h]*C_u
//   rounding_divisor 4              # Appro knobs
//   backfill true
//   backhaul_audit false            # audit offline results against links
//   collect_detail false            # per-slot detail (p50/p95/fairness)
//   requests_per_slot 0.5           # axis=horizon: |R| = T * this
//   lp_max_iterations 0             # slot-LP pivot cap (0 = automatic);
//                                   #   exhausting it -> greedy fallback
//   lp_budget 32 [5.0]              # anytime slot-LP budget: pivots and
//                                   #   optional wall-clock deadline (ms);
//                                   #   exhausting it keeps the best
//                                   #   feasible iterate (kDeadline)
//   shards 4                        # sharded slot loop (bit-identical);
//                                   #   0 = MECAR_SHARDS env, -1 = legacy
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.h"
#include "exp/instance.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"

namespace mecar::exp {

enum class ScenarioKind {
  /// Sweep the axis, running every policy per point (the figure shape).
  kSweep,
  /// Theorem-3 regret protocol: per point, DynamicRR with learning on vs
  /// the best FIXED threshold arm chosen in hindsight; emits the series
  /// "best fixed" and "DynamicRR".
  kRegret,
};

enum class SweepAxis {
  kNone,            // single point (policy-comparison tables)
  kRequests,        // |R|
  kStations,        // |BS|
  kRateMax,         // demand-support maximum, MB/s
  kChaosIntensity,  // injected-fault intensity
  kHorizon,         // T, slots
  kKappa,           // DynamicRR arm count
};

/// A policy under comparison: a registry name (optionally qualified
/// `offline:`/`online:` when the bare name exists on both sides) plus the
/// display label used in tables (defaults to the unqualified name).
struct PolicyRef {
  std::string name;
  std::string label;
};

struct ScenarioSpec {
  std::string name = "scenario";
  ScenarioKind kind = ScenarioKind::kSweep;
  SweepAxis axis = SweepAxis::kNone;
  std::vector<double> points;
  int seeds = 3;
  /// Online horizon in slots; 0 = the offline problem.
  int horizon = 0;
  /// Base instance parameters; the axis overrides one field per point.
  InstanceConfig base;
  std::vector<PolicyRef> policies;
  std::vector<std::string> metrics;
  /// Policy randomness derives from Rng(seed + policy_seed_offset).
  unsigned policy_seed_offset = 1;
  /// Fixed chaos intensity applied at every point when axis != kChaos.
  double chaos_intensity = 0.0;
  /// Scripted fault scenario file (read via sim::read_fault_plan);
  /// mutually exclusive with chaos.
  std::string fault_plan_path;
  std::vector<sim::MobilityEvent> mobility;
  /// DynamicRR knobs shared by its registry variants.
  sim::DynamicRrParams rr;
  /// Derive the threshold range from the demand support per point:
  /// [rate_min, rate_max + headroom] * C_unit (Fig. 6 coupling).
  bool scale_thresholds = false;
  double threshold_headroom = 5.0;
  /// Offline algorithm knobs (Appro divisor/backfill etc.).
  core::AlgorithmParams alg;
  /// Audit every offline result against finite backhaul links and expose
  /// the voided / peak_link_util metrics.
  bool backhaul_audit = false;
  bool collect_detail = false;
  /// When axis = horizon and this is > 0, |R| = horizon * requests_per_slot
  /// (arrival intensity held constant as T grows).
  double requests_per_slot = 0.0;
  /// Slot-loop engine (sim::OnlineParams::num_shards): > 0 sharded with
  /// that many shards, 0 consults MECAR_SHARDS (default), -1 forces the
  /// legacy loop. Results are bit-identical either way.
  int shards = 0;
};

/// Structured scenario-file parse failure carrying the 1-based line number.
class ScenarioParseError : public std::invalid_argument {
 public:
  ScenarioParseError(int line, const std::string& what)
      : std::invalid_argument(what), line_(line) {}
  int line() const noexcept { return line_; }

 private:
  int line_;
};

/// The axis token of the text format ("requests", "chaos", ...).
std::string axis_token(SweepAxis axis);
/// The axis column header of the emitted tables ("|R|", "intensity", ...).
std::string axis_label(SweepAxis axis);
/// Formats one sweep-point value the way the figure benches label rows
/// (integer axes via to_string, rates with 0 decimals, chaos with 2).
std::string point_label(SweepAxis axis, double value);

/// Parses the text format documented above. Throws ScenarioParseError on
/// malformed input (unknown key, bad token, wrong arity) naming the line.
ScenarioSpec read_scenario(std::istream& is);

/// Writes a spec in the text format; round-trips through read_scenario.
/// Fields at their defaults are omitted except the identifying ones.
void write_scenario(const ScenarioSpec& spec, std::ostream& os);

}  // namespace mecar::exp
