// AR requests with uncertain demands: task pipelines and the discrete
// (data rate, reward) distribution of section III-B/C.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "mec/topology.h"
#include "util/rng.h"

namespace mecar::mec {

/// One task of an AR processing pipeline (pose estimation, tracking, world
/// model, rendering, ...). `proc_weight` scales the per-station processing
/// delay; `output_kb` documents the inter-task matrix size of the pipeline.
struct TaskSpec {
  std::string name;
  double output_kb = 64.0;
  double proc_weight = 1.0;
};

/// One support point of the joint (data rate, reward) distribution:
/// request r_j has rate `rate` (MB/s) with probability `prob`, collecting
/// reward `reward` dollars when served at that rate (Eq. (pi, RD) pairs).
struct RateLevel {
  double rate = 0.0;
  double prob = 0.0;
  double reward = 0.0;
};

/// Discrete distribution over (rate, reward) pairs. Probabilities must sum
/// to 1 (validated), rates must be strictly increasing.
class RateRewardDist {
 public:
  /// Degenerate distribution: rate 0 with probability 1, reward 0.
  /// Lets ARRequest be default-constructed before its demand is filled in.
  RateRewardDist() : RateRewardDist({RateLevel{0.0, 1.0, 0.0}}) {}

  explicit RateRewardDist(std::vector<RateLevel> levels);

  const std::vector<RateLevel>& levels() const noexcept { return levels_; }
  std::size_t size() const noexcept { return levels_.size(); }
  const RateLevel& level(std::size_t k) const { return levels_.at(k); }

  /// E[rho_j].
  double expected_rate() const noexcept { return expected_rate_; }
  /// E[RD_j] = sum_k pi_k * RD_k.
  double expected_reward() const noexcept { return expected_reward_; }
  double max_rate() const noexcept { return levels_.back().rate; }
  double min_rate() const noexcept { return levels_.front().rate; }

  /// E[min(rho_j, cap)] — the truncated expectation of constraints (10)/(23).
  double expected_truncated_rate(double cap) const noexcept;

  /// Expected reward restricted to levels with rate <= cap — the ER_jil of
  /// Eq. (8) with cap = (C(bs_i) - l*C_l) / C_unit.
  double expected_reward_within(double cap) const noexcept;

  /// Samples a level index according to the probabilities.
  std::size_t sample(util::Rng& rng) const;

 private:
  std::vector<RateLevel> levels_;
  double expected_rate_ = 0.0;
  double expected_reward_ = 0.0;
};

/// An AR request: home attachment point, task pipeline, uncertain demand,
/// latency budget, and (for the dynamic problem) arrival time and stream
/// duration.
struct ARRequest {
  int id = 0;
  /// Base station the user device attaches to (requests enter here).
  int home_station = 0;
  std::vector<TaskSpec> tasks;
  RateRewardDist demand;
  /// Experienced-latency requirement \hat{D}_j, ms.
  double latency_budget_ms = 200.0;
  /// Arrival time slot a_j (dynamic problem; 0 for the offline problem).
  int arrival_slot = 0;
  /// Stream duration tau_j in slots (dynamic problem work model).
  int duration_slots = 1;

  /// Total processing weight of the pipeline (sum of task weights).
  double total_proc_weight() const noexcept;
};

/// Transmission + processing latency (ms) of running all tasks of `req` in
/// station `bs`: 2 * d_trans(home, bs) + sum_k d^pro (Eq. (2) without the
/// waiting term). +infinity when the backhaul is disconnected.
double placement_latency_ms(const Topology& topo, const ARRequest& req,
                            int bs);

/// Walks the stations in (transmission delay, station) order from the
/// home station, calling visit(bs, latency, floor) for each until visit
/// returns false. `latency` is placement_latency_ms's expression, so it
/// rounds to the same bits. `floor` is 2 * delay plus the lowest
/// processing term of any station: it bounds from below the latency of
/// this station and of every later one, because rounding is monotone and
/// delays never decrease along the walk. A caller stops once `floor` rules
/// out every station it has not seen, and the home's delay row is settled
/// only as deep as the walk went.
template <class Visit>
void for_each_placement_latency(const Topology& topo, const ARRequest& req,
                                Visit&& visit) {
  const int home = req.home_station;
  const double weight = req.total_proc_weight();
  const double proc_floor =
      weight * (weight < 0.0 ? topo.max_proc_ms_per_unit()
                             : topo.min_proc_ms_per_unit());
  const std::vector<BaseStation>& stations = topo.stations();
  std::span<const int> order = topo.settled_order(home, 1);
  for (std::size_t i = 0; i < stations.size(); ++i) {
    if (i == order.size()) {
      order = topo.settled_order(home, static_cast<int>(i) + 1);
    }
    const int bs = order[i];
    const double trans = 2.0 * topo.settled_delay_ms(home, bs);
    if (!visit(bs,
               trans + weight *
                           stations[static_cast<std::size_t>(bs)]
                               .proc_ms_per_unit,
               trans + proc_floor)) {
      return;
    }
  }
}

/// Lowest placement_latency_ms of `req` over all stations, or over the
/// stations with `up[bs] != 0` when `up` is non-empty; +infinity when none
/// is reachable.
double min_placement_latency_ms(const Topology& topo, const ARRequest& req,
                                std::span<const char> up = {});

/// Latency of `req` when its tasks are split across stations: each task k
/// at stations[k]; consecutive tasks at different stations pay the 2x
/// inter-station hop (the Heu migration model).
double split_placement_latency_ms(const Topology& topo, const ARRequest& req,
                                  const std::vector<int>& task_stations);

}  // namespace mecar::mec
