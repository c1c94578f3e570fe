#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "core/appro.h"
#include "core/heu.h"
#include "core/slot_lp.h"
#include "core/validate.h"
#include "lp/revised_simplex.h"
#include "mec/topology_overlay.h"
#include "obs/telemetry.h"

namespace perfbench {

using namespace mecar;

namespace {

// Seeds of the streams derived from the workload seed. The instance stream
// is the seed itself, so exp::make_instance(seed) reproduces it.
unsigned chaos_seed(unsigned seed) { return seed ^ 0x3c6ef372u; }
unsigned policy_seed(unsigned seed) { return seed ^ 0x5bd1e995u; }
unsigned appro_seed(unsigned seed) { return seed ^ 0x1b873593u; }
unsigned heu_seed(unsigned seed) { return seed ^ 0x85ebca6bu; }

// One candidate call in this many also counts its feasible stations (the
// count costs a second full scan, so it is sampled).
constexpr long long kFeasibleSampleEvery = 8;

double ms_between(double start_us, double end_us) {
  return (end_us - start_us) / 1e3;
}

double counter(const obs::MetricsSnapshot& snap, std::string_view name) {
  const obs::CounterSnapshot* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0.0;
}

double gauge(const obs::MetricsSnapshot& snap, std::string_view name) {
  const obs::GaugeSnapshot* g = snap.find_gauge(name);
  return g != nullptr ? g->value : 0.0;
}

/// Adds one solve to `c` the way the lp solvers add it to the obs counters.
void count_solve(const lp::SolveResult& res, LpCounts& c) {
  c.solves += 1.0;
  c.pivots += res.iterations;
  c.refactorizations += res.stats.refactorizations;
  if (res.stats.warm_start_attempted) {
    (res.stats.warm_start_used ? c.warm_hits : c.warm_misses) += 1.0;
  }
  c.recoveries += res.stats.recoveries();
}

/// LP counters on which the program and the replays of its solves differ.
long long lp_mismatches(const LpCounts& program, const LpCounts& replay) {
  return (program.solves != replay.solves) + (program.pivots != replay.pivots) +
         (program.refactorizations != replay.refactorizations) +
         (program.warm_hits != replay.warm_hits) +
         (program.warm_misses != replay.warm_misses) +
         (program.recoveries != replay.recoveries);
}

/// Times one core::candidate_stations call and, on sampled calls, counts
/// the stations that met the budget before truncation.
void replay_candidates(const mec::Topology& topo, const mec::ARRequest& req,
                       const core::AlgorithmParams& alg, double waiting_ms,
                       const Clock& clock, LayerTally& t) {
  const double t0 = clock.now_us();
  const std::size_t kept =
      core::candidate_stations(topo, req, alg, waiting_ms).size();
  t.candidate_ms += ms_between(t0, clock.now_us());
  if (t.candidate_calls++ % kFeasibleSampleEvery != 0) return;
  long long feasible = 0;
  for (int bs = 0; bs < topo.num_stations(); ++bs) {
    if (waiting_ms + mec::placement_latency_ms(topo, req, bs) <=
        req.latency_budget_ms) {
      ++feasible;
    }
  }
  t.feasible_sampled += feasible;
  t.kept_sampled += static_cast<long long>(kept);
  ++t.sampled_calls;
}

/// Replays the slot-LP layers of one DynamicRR decision on the inputs the
/// policy saw: the same batch (displaced streams as degenerate ghosts,
/// then the waiting queue by reward density, capped at max_batch), the
/// same residual capacities and share cap, and a warm basis carried across
/// slots exactly as the policy carries its own. The candidate scans of the
/// greedy fallback are replayed for every batch request the decision left
/// unplaced, so the replayed call count is a lower bound.
class OnlineReplay {
 public:
  OnlineReplay(const core::AlgorithmParams& alg,
               const sim::DynamicRrParams& rr, const Clock& clock,
               SpanRecorder& spans, LayerTally& tally)
      : alg_(alg), rr_(rr), clock_(clock), spans_(spans), t_(tally) {}

  void slot(const mec::Topology& topo, const sim::SlotView& view,
            const sim::SlotDecision& decision, double threshold_mhz,
            int parent) {
    if (view.pending.empty()) return;
    const auto& states = *view.states;
    const auto& requests = *view.requests;
    const auto num_bs = static_cast<std::size_t>(topo.num_stations());

    used_.assign(num_bs, 0.0);
    waiting_.clear();
    displaced_.clear();
    for (int j : view.pending) {
      const sim::RequestState& st = states[static_cast<std::size_t>(j)];
      if (st.phase == sim::Phase::kServed) {
        if (st.station >= 0) {
          used_[static_cast<std::size_t>(st.station)] += st.demand_mhz;
        } else {
          displaced_.push_back(j);
        }
      } else {
        waiting_.push_back(j);
      }
    }
    std::vector<double> residual(num_bs, 0.0);
    for (std::size_t bs = 0; bs < num_bs; ++bs) {
      const int id = static_cast<int>(bs);
      residual[bs] = view.is_up(id)
                         ? std::max(0.0, topo.station(id).capacity_mhz -
                                             used_[bs])
                         : 0.0;
    }
    auto density = [&](int j) {
      const auto& d = requests[static_cast<std::size_t>(j)].demand;
      return d.expected_reward() / std::max(1e-9, d.expected_rate());
    };
    std::sort(waiting_.begin(), waiting_.end(), [&](int a, int b) {
      const double da = density(a);
      const double db = density(b);
      if (da != db) return da > db;
      return a < b;
    });
    const int cap =
        std::max(0, rr_.max_batch - static_cast<int>(displaced_.size()));
    if (static_cast<int>(waiting_.size()) > cap) {
      waiting_.resize(static_cast<std::size_t>(cap));
    }
    if (waiting_.empty() && displaced_.empty()) return;

    batch_.clear();
    waits_.clear();
    core::SlotLpOptions options;
    options.share_cap_mhz = threshold_mhz;
    options.capacity_override_mhz = residual;
    for (int j : displaced_) {
      const sim::RequestState& st = states[static_cast<std::size_t>(j)];
      mec::ARRequest ghost = requests[static_cast<std::size_t>(j)];
      ghost.demand = mec::RateRewardDist(
          {{st.demand_mhz / std::max(1e-12, alg_.c_unit), 1.0,
            ghost.demand.level(st.realized_level).reward}});
      ghost.latency_budget_ms = 1e9;
      batch_.push_back(std::move(ghost));
      waits_.push_back(0.0);
    }
    for (int j : waiting_) {
      batch_.push_back(requests[static_cast<std::size_t>(j)]);
      waits_.push_back(view.waiting_ms(j));
    }
    options.waiting_ms_per_request = waits_;

    const double b0 = clock_.now_us();
    const core::SlotLpInstance inst =
        core::build_slot_lp(topo, batch_, alg_, options);
    const double b1 = clock_.now_us();
    ++t_.builds;
    t_.build_ms += ms_between(b0, b1);
    t_.lp_cols += inst.model.num_variables();
    t_.lp_rows += inst.model.num_constraints();
    spans_.record("core.build_slot_lp", b0, b1, parent, 1);

    const double c0 = clock_.now_us();
    const double before = t_.candidate_ms;
    for (std::size_t b = 0; b < batch_.size(); ++b) {
      replay_candidates(topo, batch_[b], alg_, waits_[b], clock_, t_);
    }
    t_.build_candidate_ms += t_.candidate_ms - before;
    spans_.record("core.candidate_stations", c0, clock_.now_us(), parent, 1);

    if (inst.model.num_variables() > 0) {
      lp::RevisedSimplexOptions ropt;
      ropt.max_iterations = rr_.lp_max_iterations;
      ropt.budget.max_pivots = rr_.lp_pivot_budget;
      if (view.lp_pivot_budget > 0 &&
          (ropt.budget.max_pivots == 0 ||
           view.lp_pivot_budget < ropt.budget.max_pivots)) {
        ropt.budget.max_pivots = view.lp_pivot_budget;
      }
      if (view.lp_fault) ropt.inject_nan_at_pivot = 1;
      const double s0 = clock_.now_us();
      const lp::SolveResult res =
          lp::RevisedSimplexSolver(ropt).solve(inst.model, warm_);
      const double s1 = clock_.now_us();
      if (res.status == lp::SolveStatus::kNumericalError) warm_.clear();
      count_solve(res, t_.replay_lp);
      t_.solve_ms += ms_between(s0, s1);
      spans_.record("lp.solve_lp", s0, s1, parent, 1);
    }

    // Greedy-fallback scans: every newcomer the decision left unplaced.
    placed_.clear();
    for (const auto& act : decision.active) placed_.push_back(act.request_index);
    std::sort(placed_.begin(), placed_.end());
    const double g0 = clock_.now_us();
    bool any = false;
    for (std::size_t b = displaced_.size(); b < batch_.size(); ++b) {
      const int j = waiting_[b - displaced_.size()];
      if (std::binary_search(placed_.begin(), placed_.end(), j)) continue;
      replay_candidates(topo, batch_[b], alg_, waits_[b], clock_, t_);
      any = true;
    }
    if (any) {
      spans_.record("core.candidate_stations", g0, clock_.now_us(), parent, 1);
    }
  }

 private:
  core::AlgorithmParams alg_;
  sim::DynamicRrParams rr_;
  const Clock& clock_;
  SpanRecorder& spans_;
  LayerTally& t_;
  lp::WarmStartBasis warm_;
  std::vector<double> used_;
  std::vector<int> waiting_;
  std::vector<int> displaced_;
  std::vector<int> placed_;
  std::vector<double> waits_;
  std::vector<mec::ARRequest> batch_;
};

/// Timing decorator around the policy: stamps every decide entry (the
/// slot boundaries), times decide and feedback, and in a traced
/// repetition replays the decision's layers. Replay time is kept on a
/// separate account and subtracted from every stamp, so the program's
/// timeline is the same whether or not it is traced.
class TimedPolicy final : public sim::OnlinePolicy {
 public:
  TimedPolicy(sim::DynamicRrPolicy& inner, const mec::Topology& base,
              const Clock& clock, SpanRecorder& spans, LayerTally& tally,
              OnlineReplay* replay, int run_span)
      : inner_(inner),
        base_(base),
        clock_(clock),
        spans_(spans),
        t_(tally),
        replay_(replay),
        run_span_(run_span) {}

  sim::SlotDecision decide(const sim::SlotView& view) override {
    const double t0 = clock_.now_us();
    entries_us_.push_back(t0 - excluded_us_);
    sim::SlotDecision d = inner_.decide(view);
    const double t1 = clock_.now_us();
    t_.decide_ms += ms_between(t0, t1);
    ++t_.slots;
    t_.pending_sum += static_cast<long long>(view.pending.size());
    if (replay_ != nullptr) {
      const int span = spans_.record("sim.decide", t0, t1, run_span_, 0);
      replay_->slot(view.topo != nullptr ? *view.topo : base_, view, d,
                    inner_.last_threshold_mhz(), span);
      excluded_us_ += clock_.now_us() - t1;
    }
    return d;
  }

  void feedback(const sim::SlotFeedback& fb) override {
    const double t0 = clock_.now_us();
    inner_.feedback(fb);
    const double t1 = clock_.now_us();
    t_.feedback_ms += ms_between(t0, t1);
    spans_.record("sim.feedback", t0, t1, run_span_, 0);
  }

  std::string name() const override { return inner_.name(); }

  double excluded_us() const noexcept { return excluded_us_; }
  const std::vector<double>& entries_us() const noexcept {
    return entries_us_;
  }

 private:
  sim::DynamicRrPolicy& inner_;
  const mec::Topology& base_;
  const Clock& clock_;
  SpanRecorder& spans_;
  LayerTally& t_;
  OnlineReplay* replay_;
  int run_span_;
  double excluded_us_ = 0.0;
  std::vector<double> entries_us_;
};

/// Replays the overlay rebuilds of a chaos run: projects the fault plan
/// onto every slot and applies it to a fresh overlay — the call sequence
/// the simulator makes (a healthy slot applies the identity perturbation,
/// which is what reset() does) — timing the calls that rebuild.
void replay_overlay(const Bench& bench, const Clock& clock,
                    SpanRecorder& spans, int parent, LayerTally& t) {
  const mec::Topology& topo = bench.inst.topo;
  mec::TopologyOverlay overlay(topo);
  for (int slot = 0; slot < bench.spec.horizon; ++slot) {
    const sim::FaultSnapshot snap = bench.plan.snapshot(topo, slot);
    const double t0 = clock.now_us();
    const bool rebuilt = overlay.apply(snap.perturbation);
    const double t1 = clock.now_us();
    if (!rebuilt) continue;
    ++t.overlay_rebuilds;
    t.overlay_ms += ms_between(t0, t1);
    spans.record("mec.TopologyOverlay.apply", t0, t1, parent, 1);
  }
}

/// Replays the offline layers of one Appro/Heu call: the slot LP over the
/// whole request set, its candidate scans, and the cold LP solve.
void replay_offline(const Bench& bench, const core::AlgorithmParams& alg,
                    const Clock& clock, SpanRecorder& spans, int parent,
                    LayerTally& t) {
  const mec::Topology& topo = bench.inst.topo;
  const auto& requests = bench.inst.requests;
  const double b0 = clock.now_us();
  const core::SlotLpInstance inst = core::build_slot_lp(topo, requests, alg);
  const double b1 = clock.now_us();
  ++t.builds;
  t.build_ms += ms_between(b0, b1);
  t.lp_cols += inst.model.num_variables();
  t.lp_rows += inst.model.num_constraints();
  spans.record("core.build_slot_lp", b0, b1, parent, 1);

  const double before = t.candidate_ms;
  for (const mec::ARRequest& req : requests) {
    replay_candidates(topo, req, alg, 0.0, clock, t);
  }
  t.build_candidate_ms += t.candidate_ms - before;
  spans.record("core.candidate_stations", b1, clock.now_us(), parent, 1);

  const double s0 = clock.now_us();
  const lp::SolveResult res = lp::solve_lp(inst.model);
  const double s1 = clock.now_us();
  count_solve(res, t.replay_lp);
  t.solve_ms += ms_between(s0, s1);
  spans.record("lp.solve_lp", s0, s1, parent, 1);
}

/// Reads the program's obs counters into the tally, minus what the
/// replays themselves recorded.
void read_counters(const obs::MetricsSnapshot& snap, LayerTally& t) {
  const LpCounts& r = t.replay_lp;
  t.lp.solves = counter(snap, "lp.solves") - r.solves;
  t.lp.pivots = counter(snap, "lp.pivots") - r.pivots;
  t.lp.refactorizations =
      counter(snap, "lp.refactorizations") - r.refactorizations;
  t.lp.warm_hits = counter(snap, "lp.warm_start_hits") - r.warm_hits;
  t.lp.warm_misses = counter(snap, "lp.warm_start_misses") - r.warm_misses;
  t.lp.recoveries = counter(snap, "lp.recoveries") - r.recoveries;
  t.admissions = counter(snap, "sim.admissions");
  t.completions = counter(snap, "sim.completions");
  t.drops = counter(snap, "sim.drops");
  t.preemptions = counter(snap, "sim.preemptions");
  t.displacements = counter(snap, "sim.displacements");
  t.lp_fallbacks = counter(snap, "sim.lp_fallbacks");
  t.arm_pulls = counter(snap, "bandit.arm_pulls");
  t.arm_eliminations = counter(snap, "bandit.arm_eliminations");
  t.active_arms_final = gauge(snap, "bandit.active_arms");
}

void expect_equal(std::vector<std::string>& out, const char* what, double got,
                  double want) {
  if (got != want) {
    out.push_back(std::string(what) + ": " + std::to_string(got) +
                  " != " + std::to_string(want));
  }
}

RepResult run_online(Bench& bench, bool traced, SpanRecorder& spans,
                     const Clock& clock) {
  RepResult r;
  LayerTally& t = r.layers;
  const core::AlgorithmParams alg;
  const sim::DynamicRrParams rr;
  obs::registry().reset();
  sim::DynamicRrPolicy policy(bench.inst.topo, alg, rr,
                              util::Rng(policy_seed(bench.seed)));
  OnlineReplay replay(alg, rr, clock, spans, t);

  const double start = clock.now_us();
  const int run_span = spans.record("sim.run", start, start, -1, 0);
  TimedPolicy timed(policy, bench.inst.topo, clock, spans, t,
                    traced ? &replay : nullptr, run_span);
  const sim::OnlineMetrics m = bench.sim->run(timed);
  const double end = clock.now_us();
  spans.set_end(run_span, end);

  const double end_adj = end - timed.excluded_us();
  r.run_s = (end_adj - start) / 1e6;
  const auto& entries = timed.entries_us();
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const double next = k + 1 < entries.size() ? entries[k + 1] : end_adj;
    r.slot_ms.push_back(ms_between(entries[k], next));
  }
  read_counters(obs::registry().snapshot(), t);
  if (traced && bench.spec.chaos) {
    replay_overlay(bench, clock, spans, run_span, t);
  }

  r.reward = m.total_reward;
  r.attempted = m.arrived;
  r.served = m.completed;
  r.dropped = m.dropped;

  // Correctness gate: request conservation and the obs counters
  // reconciled with OnlineMetrics.
  auto& v = r.violations;
  long long expected_arrivals = 0;
  for (const mec::ARRequest& req : bench.inst.requests) {
    if (req.arrival_slot < bench.spec.horizon) ++expected_arrivals;
  }
  expect_equal(v, "arrived vs requests in horizon", m.arrived,
               static_cast<double>(expected_arrivals));
  expect_equal(v, "arrived vs completed+dropped+unfinished", m.arrived,
               m.completed + m.dropped + m.unfinished);
  expect_equal(v, "obs sim.completions vs completed", t.completions,
               m.completed);
  expect_equal(v, "obs sim.drops vs dropped", t.drops, m.dropped);
  expect_equal(v, "obs sim.displacements vs displaced", t.displacements,
               m.displaced);
  expect_equal(v, "obs sim.admissions vs completed+unfinished", t.admissions,
               m.completed + m.unfinished);
  expect_equal(v, "decide calls vs horizon", static_cast<double>(t.slots),
               bench.spec.horizon);
  if (!std::isfinite(m.total_reward) || m.total_reward <= 0.0) {
    v.push_back("non-positive or non-finite reward");
  }

  if (traced) {
    // Benchmark health: the replays must mirror the program exactly.
    const auto& deg = policy.degradation_stats();
    t.counter_mismatches +=
        (t.replay_lp.solves != static_cast<double>(deg.lp_solves));
    t.counter_mismatches += lp_mismatches(t.lp, t.replay_lp);
    if (bench.spec.chaos) {
      t.counter_mismatches +=
          (t.overlay_rebuilds != m.resilience.fault_epochs);
    }
  }
  return r;
}

RepResult run_offline(Bench& bench, bool traced, SpanRecorder& spans,
                      const Clock& clock) {
  RepResult r;
  LayerTally& t = r.layers;
  const core::AlgorithmParams alg;
  const auto& topo = bench.inst.topo;
  const auto& requests = bench.inst.requests;
  const auto& realized = bench.inst.realized;
  obs::registry().reset();

  const double start = clock.now_us();
  const int run_span = spans.record("offline.run", start, start, -1, 0);
  util::Rng rng_a(appro_seed(bench.seed));
  const double a0 = clock.now_us();
  const core::OffloadResult appro =
      core::run_appro(topo, requests, realized, alg, rng_a);
  const double a1 = clock.now_us();
  const int appro_span = spans.record("core.run_appro", a0, a1, run_span, 0);
  const double appro_pivots = counter(obs::registry().snapshot(), "lp.pivots");
  if (traced) replay_offline(bench, alg, clock, spans, appro_span, t);
  const double appro_replay_pivots = t.replay_lp.pivots;

  util::Rng rng_h(heu_seed(bench.seed));
  const double h0 = clock.now_us();
  const core::OffloadResult heu =
      core::run_heu(topo, requests, realized, alg, rng_h);
  const double h1 = clock.now_us();
  const int heu_span = spans.record("core.run_heu", h0, h1, run_span, 0);
  if (traced) replay_offline(bench, alg, clock, spans, heu_span, t);
  spans.set_end(run_span, clock.now_us());

  t.offline_call_ms = ms_between(a0, a1) + ms_between(h0, h1);
  r.run_s = t.offline_call_ms / 1e3;
  r.slot_ms = {ms_between(a0, a1), ms_between(h0, h1)};
  read_counters(obs::registry().snapshot(), t);

  r.reward = appro.total_reward() + heu.total_reward();
  r.attempted = 2 * static_cast<long long>(requests.size());
  r.served = appro.num_rewarded() + heu.num_rewarded();
  r.dropped = r.attempted - r.served;

  for (const auto* res : {&appro, &heu}) {
    const char* who = res == &appro ? "appro: " : "heu: ";
    for (const core::Violation& viol :
         core::validate_offload(topo, requests, realized, *res)) {
      r.violations.push_back(who + core::to_string(viol.kind) + " " +
                             viol.message);
    }
    if (!std::isfinite(res->total_reward()) || res->total_reward() <= 0.0) {
      r.violations.push_back(std::string(who) + "non-positive reward");
    }
  }

  if (traced) {
    // Benchmark health: one replayed build + solve per program solve.
    t.counter_mismatches += lp_mismatches(t.lp, t.replay_lp);
    t.counter_mismatches += (appro_pivots != appro_replay_pivots);
  }
  return r;
}

bool same_request(const mec::ARRequest& a, const mec::ARRequest& b) {
  if (a.id != b.id || a.home_station != b.home_station ||
      a.latency_budget_ms != b.latency_budget_ms ||
      a.arrival_slot != b.arrival_slot ||
      a.duration_slots != b.duration_slots ||
      a.tasks.size() != b.tasks.size() ||
      a.demand.levels().size() != b.demand.levels().size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.tasks.size(); ++k) {
    if (a.tasks[k].name != b.tasks[k].name ||
        a.tasks[k].output_kb != b.tasks[k].output_kb ||
        a.tasks[k].proc_weight != b.tasks[k].proc_weight) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.demand.levels().size(); ++k) {
    const mec::RateLevel& x = a.demand.levels()[k];
    const mec::RateLevel& y = b.demand.levels()[k];
    if (x.rate != y.rate || x.prob != y.prob || x.reward != y.reward) {
      return false;
    }
  }
  return true;
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  WorkloadSpec s;
  s.name = name;
  if (name == "saturated") {
    s.stations = smoke ? 100 : 1000;
    s.requests = smoke ? 1250 : 25000;
    s.horizon = smoke ? 500 : 1000;
  } else if (name == "chaos") {
    s.stations = smoke ? 40 : 200;
    s.requests = smoke ? 800 : 8000;
    s.horizon = smoke ? 500 : 5000;
    s.chaos = true;
  } else if (name == "offline") {
    s.online = false;
    s.stations = smoke ? 30 : 100;
    s.requests = smoke ? 150 : 1000;
    s.horizon = 0;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (saturated, chaos, offline)");
  }
  return s;
}

std::unique_ptr<Bench> set_up(const WorkloadSpec& spec, unsigned seed,
                              SetupTimes& times) {
  exp::InstanceConfig config;
  config.num_stations = spec.stations;
  config.num_requests = spec.requests;
  config.horizon_slots = spec.horizon;

  // The same generator sequence as exp::make_instance, one layer at a time.
  const Clock clock;
  util::Rng rng(seed);
  const double t0 = clock.now_us();
  mec::TopologyParams tparams;
  tparams.num_stations = config.num_stations;
  tparams.link_bandwidth_min_mbps = config.link_bandwidth_min_mbps;
  tparams.link_bandwidth_max_mbps = config.link_bandwidth_max_mbps;
  mec::Topology topo = mec::generate_topology(tparams, rng);
  const double t1 = clock.now_us();
  mec::WorkloadParams wparams;
  wparams.num_requests = config.num_requests;
  wparams.rate_min = config.rate_min;
  wparams.rate_max = config.rate_max;
  wparams.horizon_slots = config.horizon_slots;
  wparams.reward_model = config.reward_model;
  wparams.arrivals = config.arrivals;
  wparams.home_skew = config.home_skew;
  auto requests = mec::generate_requests(wparams, topo, rng);
  auto realized = core::realize_demand_levels(requests, rng);
  const double t2 = clock.now_us();

  auto bench = std::make_unique<Bench>(Bench{
      spec, seed, config,
      exp::Instance{std::move(topo), std::move(requests), std::move(realized)},
      sim::FaultPlan{}, nullptr});
  times.topology_s = (t1 - t0) / 1e6;
  times.requests_s = (t2 - t1) / 1e6;
  times.ctor_s = 0.0;
  if (!spec.online) return bench;

  const double t3 = clock.now_us();
  sim::OnlineParams params;
  params.horizon_slots = spec.horizon;
  params.num_shards = 1;  // explicit: 0 would consult MECAR_SHARDS
  if (spec.chaos) {
    sim::ChaosParams chaos;
    chaos.intensity = 1.0;
    chaos.p_solver_fault = 0.5;
    util::Rng chaos_rng(chaos_seed(seed));
    bench->plan = sim::generate_chaos(bench->inst.topo, chaos, spec.horizon,
                                      chaos_rng);
    params.faults = bench->plan;
  }
  bench->sim = std::make_unique<sim::OnlineSimulator>(
      bench->inst.topo, bench->inst.requests, bench->inst.realized, params);
  times.ctor_s = (clock.now_us() - t3) / 1e6;
  return bench;
}

std::vector<std::string> check_instance(const Bench& bench) {
  std::vector<std::string> out;
  const exp::Instance ref = exp::make_instance(bench.seed, bench.config);
  const mec::Topology& a = bench.inst.topo;
  const mec::Topology& b = ref.topo;
  if (a.num_stations() != b.num_stations() ||
      a.links().size() != b.links().size()) {
    out.push_back("topology shape differs from exp::make_instance");
    return out;
  }
  for (int s = 0; s < a.num_stations(); ++s) {
    const auto& x = a.station(s);
    const auto& y = b.station(s);
    if (x.capacity_mhz != y.capacity_mhz ||
        x.proc_ms_per_unit != y.proc_ms_per_unit || x.x != y.x || x.y != y.y) {
      out.push_back("station " + std::to_string(s) + " differs");
    }
    for (int d = 0; d < a.num_stations(); ++d) {
      if (a.transmission_delay_ms(s, d) != b.transmission_delay_ms(s, d)) {
        out.push_back("shortest-path delay " + std::to_string(s) + "->" +
                      std::to_string(d) + " differs");
        return out;
      }
    }
  }
  for (std::size_t l = 0; l < a.links().size(); ++l) {
    const auto& x = a.links()[l];
    const auto& y = b.links()[l];
    if (x.a != y.a || x.b != y.b || x.delay_ms != y.delay_ms) {
      out.push_back("link " + std::to_string(l) + " differs");
    }
  }
  if (bench.inst.requests.size() != ref.requests.size()) {
    out.push_back("request count differs");
    return out;
  }
  for (std::size_t j = 0; j < ref.requests.size(); ++j) {
    if (!same_request(bench.inst.requests[j], ref.requests[j])) {
      out.push_back("request " + std::to_string(j) + " differs");
    }
  }
  if (bench.inst.realized != ref.realized) {
    out.push_back("demand realizations differ");
  }
  return out;
}

RepResult run_rep(Bench& bench, bool traced, SpanRecorder& spans,
                  const Clock& clock) {
  return bench.spec.online ? run_online(bench, traced, spans, clock)
                           : run_offline(bench, traced, spans, clock);
}

}  // namespace perfbench
