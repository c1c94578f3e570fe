#include "exp/runner.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <fstream>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bandit/lipschitz.h"
#include "core/backhaul.h"
#include "obs/catalog.h"
#include "obs/telemetry.h"
#include "sim/checkpoint.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "util/snapshot.h"
#include "util/timer.h"

namespace mecar::exp {

namespace {

using MetricMap = std::map<std::string, double>;

/// Everything one sweep point fixes for its trials.
struct PointSetup {
  InstanceConfig offline_config;  // horizon 0
  InstanceConfig online_config;   // horizon = effective horizon
  int horizon = 0;
  sim::DynamicRrParams rr;
  double chaos_intensity = 0.0;
};

/// Everything one sweep point fixes for its trials, derived identically by
/// the pooled and the checkpointed execution paths.
PointSetup make_point_setup(const ScenarioSpec& spec, double point,
                            int base_horizon, int lp_budget_override) {
  PointSetup setup;
  setup.horizon = spec.axis == SweepAxis::kHorizon ? static_cast<int>(point)
                                                   : base_horizon;
  setup.offline_config = spec.base;
  setup.offline_config.horizon_slots = 0;
  setup.rr = spec.rr;
  if (lp_budget_override > 0) setup.rr.lp_pivot_budget = lp_budget_override;
  setup.chaos_intensity = spec.axis == SweepAxis::kChaosIntensity
                              ? point
                              : spec.chaos_intensity;
  switch (spec.axis) {
    case SweepAxis::kRequests:
      setup.offline_config.num_requests = static_cast<int>(point);
      break;
    case SweepAxis::kStations:
      setup.offline_config.num_stations = static_cast<int>(point);
      break;
    case SweepAxis::kRateMax:
      setup.offline_config.rate_max = point;
      break;
    case SweepAxis::kHorizon:
      if (spec.requests_per_slot > 0.0) {
        setup.offline_config.num_requests =
            static_cast<int>(point * spec.requests_per_slot);
      }
      break;
    case SweepAxis::kKappa:
      setup.rr.kappa = static_cast<int>(point);
      break;
    case SweepAxis::kNone:
    case SweepAxis::kChaosIntensity:
      break;
  }
  setup.online_config = setup.offline_config;
  setup.online_config.horizon_slots = setup.horizon;
  if (spec.scale_thresholds) {
    // Fig. 6 coupling: the provider knows the demand support, so the
    // threshold range brackets it per sweep point.
    setup.rr.threshold_min_mhz =
        setup.online_config.rate_min * spec.alg.c_unit;
    setup.rr.threshold_max_mhz =
        (setup.online_config.rate_max + spec.threshold_headroom) *
        spec.alg.c_unit;
  }
  return setup;
}

/// One offline policy's metric map (both execution paths).
MetricMap offline_trial_metrics(const PolicyRegistry& registry,
                                const ScenarioSpec& spec,
                                const std::string& policy_name,
                                const Instance& inst, unsigned seed) {
  MetricMap m;
  util::Rng rng(seed + spec.policy_seed_offset);
  util::Timer timer;
  core::OffloadResult res =
      registry.run_offline(policy_name, inst, spec.alg, rng);
  m["runtime_ms"] = timer.elapsed_ms();
  if (spec.backhaul_audit) {
    const core::BackhaulAudit audit =
        core::apply_backhaul_audit(inst.topo, inst.requests, res);
    m["voided"] = audit.voided;
    m["reward_lost"] = audit.reward_lost;
    m["peak_link_util"] = audit.peak_link_utilization;
  }
  m["reward"] = res.total_reward();
  m["latency"] = res.average_latency_ms();
  m["admitted"] = res.num_admitted();
  m["rewarded"] = res.num_rewarded();
  m["lp_bound"] = res.lp_bound;
  return m;
}

/// One online policy's metric map from its faulted metrics and fault-free
/// reference (both execution paths).
MetricMap online_trial_metrics(const ScenarioSpec& spec,
                               const sim::OnlineMetrics& metrics,
                               const sim::OnlineMetrics& ref) {
  MetricMap m;
  m["reward"] = metrics.total_reward;
  m["latency"] = metrics.avg_latency_ms;
  m["drops"] = metrics.dropped;
  m["completed"] = metrics.completed;
  m["arrived"] = metrics.arrived;
  m["unfinished"] = metrics.unfinished;
  m["displaced"] = metrics.displaced;
  m["handovers"] = metrics.handovers;
  m["baseline_reward"] = ref.total_reward;
  m["retention"] = ref.total_reward > 0.0
                       ? metrics.total_reward / ref.total_reward
                       : 1.0;
  const sim::ResilienceReport& rs = metrics.resilience;
  m["fault_epochs"] = rs.fault_epochs;
  m["displaced_outage"] = rs.displaced_outage;
  m["displaced_partition"] = rs.displaced_partition;
  m["recovered"] = rs.recovered;
  m["unrecovered"] = rs.unrecovered;
  m["mean_recovery_slots"] = rs.mean_recovery_slots;
  m["dropped_starvation"] = rs.dropped_starvation;
  m["dropped_fault"] = rs.dropped_fault;
  m["dropped_partition"] = rs.dropped_partition;
  m["fault_dropped_expected_reward"] = rs.fault_dropped_expected_reward;
  if (spec.collect_detail) {
    const sim::DetailedSummary s = sim::summarize(metrics);
    m["latency_p50"] = s.latency_p50_ms;
    m["latency_p95"] = s.latency_p95_ms;
    m["latency_max"] = s.latency_max_ms;
    m["fairness"] = s.service_fairness;
    m["mean_util"] = s.mean_utilization;
    m["peak_util"] = s.peak_utilization;
  }
  return m;
}

// ---- Runner checkpoint frame -----------------------------------------
//
// [fingerprint][Report][cursor][obs MetricsSnapshot], framed with
// kCkptMagic/kCkptVersion (DESIGN.md §14). The fingerprint pins the run
// configuration; resuming under a different one is a user error
// (std::invalid_argument), unlike a corrupt generation, which falls back
// down the ladder. The cursor layout depends on the scenario kind (which
// the fingerprint fixes): sweeps store (point, seed, policy, stage) plus
// an optional reference OnlineMetrics and an optional mid-sim
// SimSnapshot; regret runs store (point, task, stage), the completed
// tasks' rewards, and an optional mid-sim SimSnapshot.

constexpr std::uint32_t kCkptMagic = 0x4b43524dU;  // "MRCK"
constexpr std::uint32_t kCkptVersion = 2;

struct CkptFingerprint {
  std::string name;
  std::uint8_t kind = 0;
  std::int32_t num_seeds = 0;
  std::int32_t base_horizon = 0;
  std::int32_t shards = 0;
  std::int32_t lp_budget = 0;
  std::vector<double> points;
  std::vector<std::string> metrics;
  std::vector<std::string> policies;
};

void save_fingerprint(const CkptFingerprint& fp, util::SnapshotWriter& w) {
  w.str(fp.name);
  w.u8(fp.kind);
  w.i32(fp.num_seeds);
  w.i32(fp.base_horizon);
  w.i32(fp.shards);
  w.i32(fp.lp_budget);
  w.vec(fp.points, [&](double v) { w.f64(v); });
  w.vec(fp.metrics, [&](const std::string& s) { w.str(s); });
  w.vec(fp.policies, [&](const std::string& s) { w.str(s); });
}

/// Throws std::invalid_argument when the checkpoint's fingerprint differs
/// from the current run configuration in `field` terms a user can act on.
void check_fingerprint(const CkptFingerprint& fp, util::SnapshotReader& r,
                       const std::string& context) {
  const auto mismatch = [&](const char* field) {
    throw std::invalid_argument(
        context + "checkpoint was written by a different run configuration (" +
        field + " differs); pass a fresh --checkpoint-dir or matching flags");
  };
  if (r.str() != fp.name) mismatch("scenario name");
  if (r.u8() != fp.kind) mismatch("scenario kind");
  if (r.i32() != fp.num_seeds) mismatch("seeds");
  if (r.i32() != fp.base_horizon) mismatch("horizon");
  if (r.i32() != fp.shards) mismatch("shards");
  if (r.i32() != fp.lp_budget) mismatch("lp budget");
  if (r.vec<double>([&] { return r.f64(); }) != fp.points) mismatch("points");
  if (r.vec<std::string>([&] { return r.str(); }) != fp.metrics) {
    mismatch("metrics");
  }
  if (r.vec<std::string>([&] { return r.str(); }) != fp.policies) {
    mismatch("policies");
  }
}

/// Engine hook that checkpoints the in-flight simulation every
/// `every` slots (slot 0 is the initial state; nothing to save yet).
struct MidSimHook final : sim::SlotHook {
  int every = 0;
  std::function<void(sim::SimSnapshot)> sink;

  bool want_snapshot(int slot) override {
    return every > 0 && slot > 0 && slot % every == 0;
  }
  void on_snapshot(int /*slot*/, sim::SimSnapshot snapshot) override {
    sink(std::move(snapshot));
  }
};

/// Where a checkpointed run left off. stage 0 = before the cursor unit's
/// first simulation, 1 = inside the fault-free reference run, 2 = inside
/// the faulted run (the reference result rides in `ref`).
struct ResumeCursor {
  std::size_t point = 0;
  std::size_t seed = 0;    // sweep: seed index
  std::size_t policy = 0;  // sweep: policy index
  std::size_t task = 0;    // regret: task index within the point
  std::uint8_t stage = 0;
  std::optional<sim::OnlineMetrics> ref;
  std::optional<sim::SimSnapshot> snap;
  std::vector<double> rewards;  // regret: completed tasks of the point
};

/// Walks the generation ladder newest-first and loads the first readable
/// checkpoint into (report, cur), restoring the obs registry as a side
/// effect. A generation failing CRC/parse validation logs a structured
/// diagnostic and falls back to the previous one; an empty or fully
/// corrupt ladder returns false (start fresh). A fingerprint mismatch is
/// a user error and propagates as std::invalid_argument instead.
bool load_latest_checkpoint(const sim::CheckpointStore& store,
                            const CkptFingerprint& fp,
                            const std::string& context, Report& report,
                            ResumeCursor& cur) {
  for (const std::string& path : store.generations()) {
    try {
      const std::vector<std::uint8_t> bytes =
          sim::CheckpointStore::read_file(path);
      util::SnapshotReader r(bytes, kCkptMagic, kCkptVersion);
      check_fingerprint(fp, r, context);
      Report loaded;
      loaded.load(r);
      ResumeCursor c;
      if (fp.kind == 0) {  // sweep cursor
        c.point = static_cast<std::size_t>(r.u64());
        c.seed = static_cast<std::size_t>(r.u64());
        c.policy = static_cast<std::size_t>(r.u64());
        c.stage = r.u8();
        if (r.boolean()) c.ref = sim::load_online_metrics(r);
        if (r.boolean()) c.snap = sim::load_sim_snapshot(r);
      } else {  // regret cursor
        c.point = static_cast<std::size_t>(r.u64());
        c.task = static_cast<std::size_t>(r.u64());
        c.stage = r.u8();
        c.rewards = r.vec<double>([&] { return r.f64(); });
        if (r.boolean()) c.snap = sim::load_sim_snapshot(r);
      }
      const obs::MetricsSnapshot ms = obs::load_metrics_snapshot(r);
      r.expect_end();
      report = std::move(loaded);
      cur = std::move(c);
      obs::registry().restore(ms);
      std::fprintf(stderr, "mecar: resuming from %s\n", path.c_str());
      return true;
    } catch (const util::SnapshotParseError& e) {
      std::fprintf(stderr,
                   "mecar: checkpoint %s rejected at byte %zu (%s); "
                   "falling back to the previous generation\n",
                   path.c_str(), e.offset(), e.what());
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr,
                   "mecar: checkpoint %s unreadable (%s); "
                   "falling back to the previous generation\n",
                   path.c_str(), e.what());
    }
  }
  std::fprintf(stderr, "mecar: no usable checkpoint in %s; starting fresh\n",
               store.dir().c_str());
  return false;
}

const std::set<std::string>& known_metrics() {
  static const std::set<std::string> metrics{
      // offline
      "reward", "latency", "runtime_ms", "admitted", "rewarded", "lp_bound",
      "voided", "reward_lost", "peak_link_util",
      // online
      "drops", "completed", "arrived", "unfinished", "displaced",
      "handovers", "baseline_reward", "retention", "fault_epochs",
      "displaced_outage", "displaced_partition", "recovered", "unrecovered",
      "mean_recovery_slots", "dropped_starvation", "dropped_fault",
      "dropped_partition", "fault_dropped_expected_reward",
      // detail
      "latency_p50", "latency_p95", "latency_max", "fairness", "mean_util",
      "peak_util"};
  return metrics;
}

}  // namespace

Runner::Runner(ScenarioSpec spec, const PolicyRegistry& registry)
    : spec_(std::move(spec)), registry_(&registry) {}

void Runner::set_seeds(int seeds) { seeds_override_ = seeds; }

void Runner::set_horizon(int horizon) { horizon_override_ = horizon; }

void Runner::set_lp_budget(int pivots) { lp_budget_override_ = pivots; }

void Runner::set_shards(int shards) { shards_override_ = shards; }

void Runner::set_observer(
    std::function<void(const TrialObservation&)> observer) {
  observer_ = std::move(observer);
}

void Runner::set_checkpoint(CheckpointOptions options) {
  checkpoint_ = std::move(options);
}

Report Runner::run() const {
  const ScenarioSpec& spec = spec_;
  const std::string context = "scenario '" + spec.name + "': ";
  const int num_seeds = seeds_override_ > 0 ? seeds_override_ : spec.seeds;
  if (num_seeds < 1) throw std::invalid_argument(context + "seeds must be >= 1");
  const int base_horizon =
      horizon_override_ >= 0 ? horizon_override_ : spec.horizon;

  std::vector<double> points = spec.points;
  if (spec.axis == SweepAxis::kNone) {
    if (points.size() > 1) {
      throw std::invalid_argument(context +
                                  "axis 'none' admits at most one point");
    }
    if (points.empty()) points.push_back(0.0);
  } else if (points.empty()) {
    throw std::invalid_argument(context + "sweep axis set but no points");
  }

  const std::vector<unsigned> seeds = bench_seeds(num_seeds);

  // ---- Theorem-3 regret protocol -------------------------------------
  if (spec.kind == ScenarioKind::kRegret) {
    if (!checkpoint_.dir.empty()) {
      return run_regret_checkpointed(seeds, base_horizon, points);
    }
    Report report(spec.name, axis_label(spec.axis), {"reward"},
                  {"best fixed", "DynamicRR"});
    for (const double point : points) {
      const int kappa = spec.axis == SweepAxis::kKappa
                            ? static_cast<int>(point)
                            : spec.rr.kappa;
      const int horizon = spec.axis == SweepAxis::kHorizon
                              ? static_cast<int>(point)
                              : base_horizon;
      if (horizon <= 0) {
        throw std::invalid_argument(context +
                                    "regret scenarios need a horizon > 0");
      }
      InstanceConfig config = spec.base;
      config.horizon_slots = horizon;
      if (spec.axis == SweepAxis::kHorizon && spec.requests_per_slot > 0.0) {
        config.num_requests =
            static_cast<int>(point * spec.requests_per_slot);
      }
      const bandit::LipschitzGrid grid(spec.rr.threshold_min_mhz,
                                       spec.rr.threshold_max_mhz, kappa);
      const std::size_t arms = static_cast<std::size_t>(grid.num_arms());
      // Task layout per seed s: indices [s*(arms+1), s*(arms+1)+arms) are
      // the fixed-arm runs, index s*(arms+1)+arms is the learned run.
      const std::size_t per_seed = arms + 1;
      const auto rewards = util::parallel_map(
          seeds.size() * per_seed, [&](std::size_t i) {
            obs::metrics().exp_trials.add();
            const unsigned seed = seeds[i / per_seed];
            const std::size_t k = i % per_seed;
            const Instance inst = make_instance(seed, config);
            sim::OnlineParams params;
            params.horizon_slots = horizon;
            params.num_shards =
                shards_override_ != 0 ? shards_override_ : spec.shards;
            sim::DynamicRrParams dparams = spec.rr;
            if (lp_budget_override_ > 0) {
              dparams.lp_pivot_budget = lp_budget_override_;
            }
            if (k < arms) {
              dparams.kappa = 1;
              dparams.threshold_min_mhz = grid.value(static_cast<int>(k));
              dparams.threshold_max_mhz = dparams.threshold_min_mhz;
            } else {
              dparams.kappa = kappa;
            }
            auto policy = registry_->make_online(
                "DynamicRR", inst.topo, spec.alg, dparams,
                util::Rng(seed + spec.policy_seed_offset));
            sim::OnlineSimulator simulator(inst.topo, inst.requests,
                                           inst.realized, params);
            return simulator.run(*policy).total_reward;
          });
      report.start_point(point, point_label(spec.axis, point));
      for (std::size_t s = 0; s < seeds.size(); ++s) {
        double best = 0.0;
        for (std::size_t k = 0; k < arms; ++k) {
          best = std::max(best, rewards[s * per_seed + k]);
        }
        report.add("reward", "best fixed", best);
        report.add("reward", "DynamicRR", rewards[s * per_seed + arms]);
      }
    }
    return report;
  }

  // ---- Generic sweep --------------------------------------------------
  if (spec.policies.empty()) {
    throw std::invalid_argument(context + "no policies to compare");
  }
  if (spec.metrics.empty()) {
    throw std::invalid_argument(context + "no metrics to collect");
  }
  for (const std::string& metric : spec.metrics) {
    if (known_metrics().count(metric) == 0) {
      std::string known;
      for (const std::string& name : known_metrics()) {
        known += (known.empty() ? "" : ", ") + name;
      }
      throw std::invalid_argument(context + "unknown metric '" + metric +
                                  "' (known: " + known + ")");
    }
  }

  std::vector<ResolvedPolicy> resolved;
  std::vector<std::string> labels;
  resolved.reserve(spec.policies.size());
  bool any_offline = false;
  bool any_online = false;
  for (const PolicyRef& ref : spec.policies) {
    resolved.push_back(resolve_policy(*registry_, ref.name, base_horizon));
    (resolved.back().online ? any_online : any_offline) = true;
    const std::string label =
        ref.label.empty() ? resolved.back().name : ref.label;
    if (std::find(labels.begin(), labels.end(), label) != labels.end()) {
      throw std::invalid_argument(context + "duplicate policy label '" +
                                  label + "'");
    }
    labels.push_back(label);
  }
  if (any_online && base_horizon <= 0 && spec.axis != SweepAxis::kHorizon) {
    throw std::invalid_argument(context +
                                "online policies need a horizon > 0");
  }

  sim::FaultPlan file_plan;
  if (!spec.fault_plan_path.empty()) {
    std::ifstream file(spec.fault_plan_path);
    if (!file) {
      throw std::invalid_argument(context + "cannot open fault plan '" +
                                  spec.fault_plan_path + "'");
    }
    file_plan = sim::read_fault_plan(file);
  }

  if (!checkpoint_.dir.empty()) {
    return run_sweep_checkpointed(seeds, base_horizon, points, resolved,
                                  labels, any_offline, any_online, file_plan);
  }

  Report report(spec.name, axis_label(spec.axis), spec.metrics, labels);

  for (std::size_t p = 0; p < points.size(); ++p) {
    const double point = points[p];
    const PointSetup setup =
        make_point_setup(spec, point, base_horizon, lp_budget_override_);

    // One trial = one (sweep point, seed) pair; trials are independent and
    // fully determined by their seed, so the pool runs them concurrently
    // and the ordered reduction below reproduces the serial output bit for
    // bit.
    const auto samples = sweep_seeds(seeds, [&](unsigned seed) {
      obs::metrics().exp_trials.add();
      std::vector<MetricMap> out;
      out.reserve(resolved.size());
      std::optional<Instance> offline_inst;
      std::optional<Instance> online_inst;
      if (any_offline) {
        offline_inst.emplace(make_instance(seed, setup.offline_config));
      }
      if (any_online) {
        online_inst.emplace(make_instance(seed, setup.online_config));
      }

      sim::FaultPlan plan = file_plan;
      if (setup.chaos_intensity > 0.0) {
        sim::ChaosParams chaos;
        chaos.intensity = setup.chaos_intensity;
        // The plan derives entirely from the trial seed (offset so the
        // chaos stream is independent of the workload stream).
        util::Rng chaos_rng(seed * 2654435761u + 17u);
        plan = sim::generate_chaos(online_inst->topo, chaos, setup.horizon,
                                   chaos_rng);
      }

      for (const ResolvedPolicy& policy : resolved) {
        MetricMap m;
        if (!policy.online) {
          m = offline_trial_metrics(*registry_, spec, policy.name,
                                    *offline_inst, seed);
        } else {
          sim::OnlineParams params;
          params.horizon_slots = setup.horizon;
          params.alg = spec.alg;
          params.mobility = spec.mobility;
          params.collect_detail = spec.collect_detail;
          params.num_shards =
              shards_override_ != 0 ? shards_override_ : spec.shards;

          // Fault-free reference with common random numbers (the faulted
          // run reuses the same instance and a fresh policy).
          auto ref_policy = registry_->make_online(
              policy.name, online_inst->topo, spec.alg, setup.rr,
              util::Rng(seed + spec.policy_seed_offset));
          sim::OnlineSimulator ref_sim(online_inst->topo,
                                       online_inst->requests,
                                       online_inst->realized, params);
          const sim::OnlineMetrics ref = ref_sim.run(*ref_policy);

          sim::OnlineMetrics metrics = ref;
          if (!plan.empty()) {
            params.faults = plan;
            auto faulted_policy = registry_->make_online(
                policy.name, online_inst->topo, spec.alg, setup.rr,
                util::Rng(seed + spec.policy_seed_offset));
            sim::OnlineSimulator faulted_sim(online_inst->topo,
                                             online_inst->requests,
                                             online_inst->realized, params);
            metrics = faulted_sim.run(*faulted_policy);
          }

          m = online_trial_metrics(spec, metrics, ref);
        }
        out.push_back(std::move(m));
      }
      return out;
    });

    report.start_point(point, point_label(spec.axis, point));
    for (std::size_t s = 0; s < samples.size(); ++s) {
      for (std::size_t i = 0; i < labels.size(); ++i) {
        const MetricMap& m = samples[s][i];
        if (observer_) {
          TrialObservation obs;
          obs.point_index = p;
          obs.point_value = point;
          obs.seed = seeds[s];
          obs.policy = &labels[i];
          obs.metrics = &m;
          observer_(obs);
        }
        for (const std::string& metric : spec.metrics) {
          const auto it = m.find(metric);
          if (it != m.end()) report.add(metric, labels[i], it->second);
        }
      }
    }
  }
  return report;
}

// ---- Serial checkpointed execution -----------------------------------
//
// Same computations, same (point, seed, policy) reduction order as the
// pooled path above, so the resulting Report is bit-identical — but one
// unit at a time, with a checkpoint generation written after every unit
// and (via MidSimHook) every checkpoint_.every_slots simulated slots.
// Invariants the cursor encodes:
//  * sweep: the report holds start_point for every point <= cursor.point
//    and the adds of every unit strictly before (point, seed, policy);
//  * regret: the report holds the reduction of every point < cursor.point
//    (a point's start_point/adds land atomically after its last task),
//    and `rewards` holds the tasks strictly before cursor.task.
// Resuming replays nothing: completed units are skipped, an in-flight
// simulation restarts from its SimSnapshot, and the obs registry picks up
// from its restored totals.

Report Runner::run_sweep_checkpointed(
    const std::vector<unsigned>& seeds, int base_horizon,
    const std::vector<double>& points,
    const std::vector<ResolvedPolicy>& resolved,
    const std::vector<std::string>& labels, bool any_offline, bool any_online,
    const sim::FaultPlan& file_plan) const {
  const ScenarioSpec& spec = spec_;
  const std::string context = "scenario '" + spec.name + "': ";
  sim::CheckpointStore store(checkpoint_.dir);

  CkptFingerprint fp;
  fp.name = spec.name;
  fp.kind = 0;
  fp.num_seeds = static_cast<std::int32_t>(seeds.size());
  fp.base_horizon = base_horizon;
  fp.shards = shards_override_ != 0 ? shards_override_ : spec.shards;
  fp.lp_budget = lp_budget_override_;
  fp.points = points;
  fp.metrics = spec.metrics;
  fp.policies = labels;

  Report report(spec.name, axis_label(spec.axis), spec.metrics, labels);
  ResumeCursor cur;
  bool resumed = false;
  if (checkpoint_.resume) {
    resumed = load_latest_checkpoint(store, fp, context, report, cur);
  }

  const auto write_ckpt = [&](std::size_t p, std::size_t s, std::size_t i,
                              std::uint8_t stage,
                              const sim::OnlineMetrics* ref,
                              const sim::SimSnapshot* snap) {
    util::SnapshotWriter w;
    save_fingerprint(fp, w);
    report.save(w);
    w.u64(p);
    w.u64(s);
    w.u64(i);
    w.u8(stage);
    w.boolean(ref != nullptr);
    if (ref != nullptr) sim::save_online_metrics(w, *ref);
    w.boolean(snap != nullptr);
    if (snap != nullptr) sim::save_sim_snapshot(w, *snap);
    obs::save_metrics_snapshot(obs::registry().snapshot(), w);
    store.write(w.finish(kCkptMagic, kCkptVersion));
  };

  int done_units = 0;
  for (std::size_t p = cur.point; p < points.size(); ++p) {
    const double point = points[p];
    const PointSetup setup =
        make_point_setup(spec, point, base_horizon, lp_budget_override_);
    if (report.num_points() <= p) {
      report.start_point(point, point_label(spec.axis, point));
    }
    for (std::size_t s = p == cur.point ? cur.seed : 0; s < seeds.size();
         ++s) {
      const unsigned seed = seeds[s];
      const bool resumed_seed = resumed && p == cur.point && s == cur.seed;
      // The pooled path counts one exp trial per (point, seed) before its
      // first policy; a restored registry already holds that count when
      // the cursor sits past the seed's first policy boundary.
      if (!(resumed_seed && (cur.policy > 0 || cur.stage != 0))) {
        obs::metrics().exp_trials.add();
      }
      std::optional<Instance> offline_inst;
      std::optional<Instance> online_inst;
      if (any_offline) {
        offline_inst.emplace(make_instance(seed, setup.offline_config));
      }
      if (any_online) {
        online_inst.emplace(make_instance(seed, setup.online_config));
      }

      sim::FaultPlan plan = file_plan;
      if (setup.chaos_intensity > 0.0) {
        sim::ChaosParams chaos;
        chaos.intensity = setup.chaos_intensity;
        util::Rng chaos_rng(seed * 2654435761u + 17u);
        plan = sim::generate_chaos(online_inst->topo, chaos, setup.horizon,
                                   chaos_rng);
      }

      for (std::size_t i = resumed_seed ? cur.policy : 0; i < resolved.size();
           ++i) {
        const ResolvedPolicy& policy = resolved[i];
        const bool resumed_unit = resumed_seed && i == cur.policy;
        MetricMap m;
        if (!policy.online) {
          m = offline_trial_metrics(*registry_, spec, policy.name,
                                    *offline_inst, seed);
        } else {
          sim::OnlineParams params;
          params.horizon_slots = setup.horizon;
          params.alg = spec.alg;
          params.mobility = spec.mobility;
          params.collect_detail = spec.collect_detail;
          params.num_shards =
              shards_override_ != 0 ? shards_override_ : spec.shards;

          sim::OnlineMetrics ref;
          if (resumed_unit && cur.stage == 2 && cur.ref) {
            ref = *cur.ref;  // reference leg finished before the crash
          } else {
            auto ref_policy = registry_->make_online(
                policy.name, online_inst->topo, spec.alg, setup.rr,
                util::Rng(seed + spec.policy_seed_offset));
            MidSimHook hook;
            hook.every = checkpoint_.every_slots;
            hook.sink = [&](sim::SimSnapshot snap) {
              write_ckpt(p, s, i, 1, nullptr, &snap);
            };
            const sim::SimSnapshot* from =
                resumed_unit && cur.stage == 1 && cur.snap ? &*cur.snap
                                                           : nullptr;
            sim::OnlineSimulator ref_sim(online_inst->topo,
                                         online_inst->requests,
                                         online_inst->realized, params);
            ref = ref_sim.run(*ref_policy, &hook, from);
          }

          sim::OnlineMetrics metrics = ref;
          if (!plan.empty()) {
            params.faults = plan;
            auto faulted_policy = registry_->make_online(
                policy.name, online_inst->topo, spec.alg, setup.rr,
                util::Rng(seed + spec.policy_seed_offset));
            MidSimHook hook;
            hook.every = checkpoint_.every_slots;
            hook.sink = [&](sim::SimSnapshot snap) {
              write_ckpt(p, s, i, 2, &ref, &snap);
            };
            const sim::SimSnapshot* from =
                resumed_unit && cur.stage == 2 && cur.snap ? &*cur.snap
                                                           : nullptr;
            sim::OnlineSimulator faulted_sim(online_inst->topo,
                                             online_inst->requests,
                                             online_inst->realized, params);
            metrics = faulted_sim.run(*faulted_policy, &hook, from);
          }
          m = online_trial_metrics(spec, metrics, ref);
        }

        if (observer_) {
          TrialObservation obs;
          obs.point_index = p;
          obs.point_value = point;
          obs.seed = seed;
          obs.policy = &labels[i];
          obs.metrics = &m;
          observer_(obs);
        }
        for (const std::string& metric : spec.metrics) {
          const auto it = m.find(metric);
          if (it != m.end()) report.add(metric, labels[i], it->second);
        }

        // Advance the cursor past this unit and persist the boundary.
        std::size_t np = p;
        std::size_t ns = s;
        std::size_t ni = i + 1;
        if (ni == resolved.size()) {
          ni = 0;
          ++ns;
        }
        if (ns == seeds.size()) {
          ns = 0;
          ++np;
        }
        write_ckpt(np, ns, ni, 0, nullptr, nullptr);
        sim::unit_crash_point(++done_units);
      }
    }
  }
  return report;
}

Report Runner::run_regret_checkpointed(
    const std::vector<unsigned>& seeds, int base_horizon,
    const std::vector<double>& points) const {
  const ScenarioSpec& spec = spec_;
  const std::string context = "scenario '" + spec.name + "': ";
  sim::CheckpointStore store(checkpoint_.dir);

  CkptFingerprint fp;
  fp.name = spec.name;
  fp.kind = 1;
  fp.num_seeds = static_cast<std::int32_t>(seeds.size());
  fp.base_horizon = base_horizon;
  fp.shards = shards_override_ != 0 ? shards_override_ : spec.shards;
  fp.lp_budget = lp_budget_override_;
  fp.points = points;
  fp.metrics = {"reward"};
  fp.policies = {"best fixed", "DynamicRR"};

  Report report(spec.name, axis_label(spec.axis), {"reward"},
                {"best fixed", "DynamicRR"});
  ResumeCursor cur;
  bool resumed = false;
  if (checkpoint_.resume) {
    resumed = load_latest_checkpoint(store, fp, context, report, cur);
  }

  std::vector<double> rewards;
  const auto write_ckpt = [&](std::size_t p, std::size_t task,
                              std::uint8_t stage,
                              const sim::SimSnapshot* snap) {
    util::SnapshotWriter w;
    save_fingerprint(fp, w);
    report.save(w);
    w.u64(p);
    w.u64(task);
    w.u8(stage);
    w.vec(rewards, [&](double v) { w.f64(v); });
    w.boolean(snap != nullptr);
    if (snap != nullptr) sim::save_sim_snapshot(w, *snap);
    obs::save_metrics_snapshot(obs::registry().snapshot(), w);
    store.write(w.finish(kCkptMagic, kCkptVersion));
  };

  int done_units = 0;
  for (std::size_t p = cur.point; p < points.size(); ++p) {
    const double point = points[p];
    const int kappa = spec.axis == SweepAxis::kKappa ? static_cast<int>(point)
                                                     : spec.rr.kappa;
    const int horizon = spec.axis == SweepAxis::kHorizon
                            ? static_cast<int>(point)
                            : base_horizon;
    if (horizon <= 0) {
      throw std::invalid_argument(context +
                                  "regret scenarios need a horizon > 0");
    }
    InstanceConfig config = spec.base;
    config.horizon_slots = horizon;
    if (spec.axis == SweepAxis::kHorizon && spec.requests_per_slot > 0.0) {
      config.num_requests = static_cast<int>(point * spec.requests_per_slot);
    }
    const bandit::LipschitzGrid grid(spec.rr.threshold_min_mhz,
                                     spec.rr.threshold_max_mhz, kappa);
    const std::size_t arms = static_cast<std::size_t>(grid.num_arms());
    const std::size_t per_seed = arms + 1;
    const std::size_t total = seeds.size() * per_seed;

    rewards.clear();
    std::size_t first_task = 0;
    if (resumed && p == cur.point) {
      rewards = cur.rewards;
      first_task = cur.task;
    }
    for (std::size_t i = first_task; i < total; ++i) {
      const bool resumed_task = resumed && p == cur.point && i == cur.task;
      if (!(resumed_task && cur.stage != 0)) obs::metrics().exp_trials.add();
      const unsigned seed = seeds[i / per_seed];
      const std::size_t k = i % per_seed;
      const Instance inst = make_instance(seed, config);
      sim::OnlineParams params;
      params.horizon_slots = horizon;
      params.num_shards =
          shards_override_ != 0 ? shards_override_ : spec.shards;
      sim::DynamicRrParams dparams = spec.rr;
      if (lp_budget_override_ > 0) {
        dparams.lp_pivot_budget = lp_budget_override_;
      }
      if (k < arms) {
        dparams.kappa = 1;
        dparams.threshold_min_mhz = grid.value(static_cast<int>(k));
        dparams.threshold_max_mhz = dparams.threshold_min_mhz;
      } else {
        dparams.kappa = kappa;
      }
      auto policy = registry_->make_online(
          "DynamicRR", inst.topo, spec.alg, dparams,
          util::Rng(seed + spec.policy_seed_offset));
      sim::OnlineSimulator simulator(inst.topo, inst.requests, inst.realized,
                                     params);
      MidSimHook hook;
      hook.every = checkpoint_.every_slots;
      hook.sink = [&](sim::SimSnapshot snap) { write_ckpt(p, i, 1, &snap); };
      const sim::SimSnapshot* from =
          resumed_task && cur.stage == 1 && cur.snap ? &*cur.snap : nullptr;
      rewards.push_back(simulator.run(*policy, &hook, from).total_reward);
      write_ckpt(p, i + 1, 0, nullptr);
      sim::unit_crash_point(++done_units);
    }

    report.start_point(point, point_label(spec.axis, point));
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      double best = 0.0;
      for (std::size_t k = 0; k < arms; ++k) {
        best = std::max(best, rewards[s * per_seed + k]);
      }
      report.add("reward", "best fixed", best);
      report.add("reward", "DynamicRR", rewards[s * per_seed + arms]);
    }
  }
  return report;
}

}  // namespace mecar::exp
