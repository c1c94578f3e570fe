// Scale: the sharded O(live + changes) slot loop against the legacy
// full-rebuild loop on a large instance (default 10^3 stations, 10^5
// requests). Arrivals are packed into a front window so most of the
// horizon is the steady state the tentpole optimizes: a slot where little
// changes must cost O(changes), not O(|R|) rescans of every request.
//
// Two runs over common random numbers:
//   legacy  — the per-slot full-rescan loop (num_shards = -1),
//   sharded — the shard engine, same policy settings (must be
//             bit-identical to legacy; verified here).
//
// Slot latency is measured from outside the engine: a SlotHook stamps
// the wall clock at every slot top, so each slot's sample is the span to
// the next top (the last closes when run() returns), and p50/p95/p99 are
// exact percentiles of those raw samples.
//
//   ./bench/scale [--smoke] [--stations=N] [--requests=N] [--horizon=T]
//                 [--window=W] [--shards=K] [--seeds=S] [--min-speedup=X]
//                 [--snapshot[=PATH]]
//
// --smoke runs the headline configuration once and fails (exit 1) unless
// the sharded steady-state slot (p50) is at least --min-speedup times
// faster than a legacy full-rebuild slot and the sharded run reproduced
// the legacy metrics exactly. --snapshot writes BENCH_scale.json.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/instance.h"
#include "obs/catalog.h"
#include "obs/telemetry.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace mecar;

/// Wall time of every slot, stamped at each slot top: the engines ask a
/// SlotHook at the top of every slot whether to snapshot, and this one
/// never does.
class SlotClock final : public sim::SlotHook {
 public:
  bool want_snapshot(int /*slot*/) override {
    close_slot();
    open_ = true;
    return false;
  }
  void on_snapshot(int /*slot*/, sim::SimSnapshot /*snapshot*/) override {}

  /// Ends the slot in progress (at the end of a run).
  void close_slot() {
    if (open_) samples_.push_back(timer_.elapsed_ms());
    open_ = false;
    timer_.restart();
  }
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  util::Timer timer_;
  bool open_ = false;
  std::vector<double> samples_;
};

/// One engine configuration's outcome: headline simulator metrics (for
/// the bit-identity check) plus exact slot-latency percentiles over the
/// raw per-slot samples.
struct EngineRun {
  std::string label;
  double reward = 0.0;
  double completed = 0.0;
  double drops = 0.0;
  double total_ms = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double slots = 0.0;
  double shard_imbalance = 0.0;
};

EngineRun run_engine(const exp::Instance& inst, int horizon, int num_shards,
                     int seeds, std::string label) {
  EngineRun out;
  out.label = std::move(label);
  // Pool the per-slot samples of every seed so the percentiles describe
  // the engine, not one lucky run.
  obs::registry().reset();
  SlotClock clock;
  for (int s = 0; s < seeds; ++s) {
    sim::OnlineParams params;
    params.horizon_slots = horizon;
    params.num_shards = num_shards;
    sim::DynamicRrPolicy policy(inst.topo, core::AlgorithmParams{},
                                sim::DynamicRrParams{},
                                util::Rng(static_cast<unsigned>(s) + 1u));
    sim::OnlineSimulator simulator(inst.topo, inst.requests, inst.realized,
                                   params);
    const util::Timer run_timer;
    const sim::OnlineMetrics metrics = simulator.run(policy, &clock);
    clock.close_slot();
    out.total_ms += run_timer.elapsed_ms();
    out.reward += metrics.total_reward;
    out.completed += static_cast<double>(metrics.completed);
    out.drops += static_cast<double>(metrics.dropped);
  }
  const std::vector<double>& samples = clock.samples();
  out.slots = static_cast<double>(samples.size());
  if (!samples.empty()) {
    const util::PercentileSummary pct = util::percentile_summary(samples);
    out.p50 = pct.p50;
    out.p95 = pct.p95;
    out.p99 = pct.p99;
    out.max = *std::max_element(samples.begin(), samples.end());
  }
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  if (const obs::GaugeSnapshot* g = snap.find_gauge("sim.shard_imbalance")) {
    out.shard_imbalance = g->value;
  }
  return out;
}

void print_run(const EngineRun& r) {
  std::cout << "  " << r.label << ": slot p50/p95/p99 = " << r.p50 << " / "
            << r.p95 << " / " << r.p99 << " ms  (max " << r.max << ", "
            << r.slots << " slots, total " << r.total_ms
            << " ms)  reward=" << r.reward << " completed=" << r.completed
            << " drops=" << r.drops;
  if (r.shard_imbalance > 0.0) {
    std::cout << "  imbalance=" << r.shard_imbalance;
  }
  std::cout << '\n';
}

void write_run(util::JsonWriter& w, const EngineRun& r) {
  w.key(r.label).begin_object();
  w.field("slot_ms_p50", r.p50);
  w.field("slot_ms_p95", r.p95);
  w.field("slot_ms_p99", r.p99);
  w.field("slot_ms_max", r.max);
  w.field("slots", r.slots);
  w.field("total_ms", r.total_ms);
  w.field("reward", r.reward);
  w.field("completed", r.completed);
  w.field("drops", r.drops);
  w.field("shard_imbalance", r.shard_imbalance);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    const bool smoke = cli.has("smoke");

    // The headline scenario: 10^3 stations, 10^5 requests, arrivals packed
    // into the first `window` slots so ~80% of the horizon is steady-state
    // drain — exactly where O(changes) and O(|R|) per slot diverge.
    const int stations = static_cast<int>(cli.get_int_or("stations", 1000));
    const int requests = static_cast<int>(cli.get_int_or("requests", 100000));
    const int horizon = static_cast<int>(cli.get_int_or("horizon", 2000));
    const int window = static_cast<int>(
        cli.get_int_or("window", std::max(1, horizon / 5)));
    const int shards = static_cast<int>(cli.get_int_or("shards", 8));
    const int seeds = static_cast<int>(cli.get_int_or("seeds", 1));
    const double min_speedup = cli.get_double_or("min-speedup", 10.0);
    if (stations <= 0 || requests <= 0 || horizon <= 0 || window <= 0 ||
        shards <= 0 || seeds <= 0) {
      std::cerr << "scale: all size parameters must be positive\n";
      return 1;
    }

    exp::InstanceConfig config;
    config.num_stations = stations;
    config.num_requests = requests;
    config.horizon_slots = window;  // arrival window, not the run horizon
    std::cout << "scale: " << stations << " stations, " << requests
              << " requests arriving over " << window << " of " << horizon
              << " slots, " << shards << " shards, " << seeds << " seed(s)\n";
    const exp::Instance inst = exp::make_instance(1u, config);

    const EngineRun legacy = run_engine(inst, horizon, -1, seeds, "legacy");
    const EngineRun sharded =
        run_engine(inst, horizon, shards, seeds, "sharded");
    print_run(legacy);
    print_run(sharded);

    int failures = 0;
    // Bit-identity: same policy settings -> the shard engine must
    // reproduce the legacy metrics exactly (the goldens prove this on the
    // small benches; this re-proves it at scale).
    if (sharded.reward != legacy.reward ||
        sharded.completed != legacy.completed ||
        sharded.drops != legacy.drops) {
      ++failures;
      std::cerr << "FAIL: sharded run diverged from legacy (reward "
                << sharded.reward << " vs " << legacy.reward << ", completed "
                << sharded.completed << " vs " << legacy.completed
                << ", drops " << sharded.drops << " vs " << legacy.drops
                << ")\n";
    }
    if (legacy.slots != sharded.slots ||
        legacy.slots !=
            static_cast<double>(horizon) * static_cast<double>(seeds)) {
      ++failures;
      std::cerr << "FAIL: slot sample count mismatch (legacy " << legacy.slots
                << ", sharded " << sharded.slots << ", expected "
                << horizon * seeds << ")\n";
    }

    const double speedup = sharded.p50 > 0.0 ? legacy.p50 / sharded.p50 : 0.0;
    std::cout << "steady-state slot speedup (legacy p50 / sharded p50): "
              << speedup << "x (floor " << min_speedup << "x)\n";
    if (smoke && speedup < min_speedup) {
      ++failures;
      std::cerr << "FAIL: steady-state speedup " << speedup << "x below the "
                << min_speedup << "x floor\n";
    }

    if (cli.has("snapshot")) {
      const std::string path = cli.get_or("snapshot", "").empty()
                                   ? "BENCH_scale.json"
                                   : cli.get_or("snapshot", "");
      std::ofstream file(path);
      util::JsonWriter w(file);
      w.begin_object();
      w.field("stations", stations);
      w.field("requests", requests);
      w.field("horizon", horizon);
      w.field("arrival_window", window);
      w.field("shards", shards);
      w.field("seeds", seeds);
      w.key("engines").begin_object();
      write_run(w, legacy);
      write_run(w, sharded);
      w.end_object();
      w.field("steady_state_speedup", speedup);
      w.end_object();
      w.done();
      if (!file.good()) {
        std::cerr << "FAIL: could not write snapshot " << path << '\n';
        return 1;
      }
      std::cout << "snapshot: " << path << '\n';
    }

    if (failures > 0) {
      std::cerr << "FAIL: " << failures << " scale check(s) failed\n";
      return 1;
    }
    if (smoke) std::cout << "smoke: all scale checks hold\n";
    std::cout << "shape: steady-state slots cost O(live + changes) sharded "
                 "vs O(|R|) legacy; the gap widens with |R|\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "scale: " << e.what() << '\n';
    return 1;
  }
}
