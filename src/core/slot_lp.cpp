#include "core/slot_lp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/catalog.h"

namespace mecar::core {

namespace {

/// The candidate order: nearest latency first, lower station id on ties.
/// A strict total order, so any selection method yields the same list.
bool nearer(const CandidateStation& a, const CandidateStation& b) {
  if (a.latency_ms != b.latency_ms) return a.latency_ms < b.latency_ms;
  return a.station < b.station;
}

/// Column ids bucketed by station, each bucket in ascending column order,
/// so a per-station capacity row reads only its own station's columns.
std::vector<std::vector<int>> columns_by_station(
    const std::vector<SlotVar>& vars, int num_stations) {
  std::vector<std::vector<int>> buckets(static_cast<std::size_t>(num_stations));
  for (std::size_t col = 0; col < vars.size(); ++col) {
    buckets[static_cast<std::size_t>(vars[col].station)].push_back(
        static_cast<int>(col));
  }
  return buckets;
}

}  // namespace

std::vector<CandidateStation> candidate_stations(const mec::Topology& topo,
                                                 const mec::ARRequest& req,
                                                 const AlgorithmParams& params,
                                                 double waiting_ms) {
  // One walk over the home's stations in delay order. With a positive
  // limit k, `kept` is a max-heap of at most k entries under `nearer`, and
  // `worst` holds its front's latency once it is full: a station farther
  // than that is rejected by one comparison. The walk ends once the
  // latency floor of every later station is past `worst` or the budget,
  // so each station it skips would have been rejected.
  const int k = params.max_candidate_stations;
  std::vector<CandidateStation> kept;
  if (k > 0) {
    kept.reserve(static_cast<std::size_t>(std::min(k, topo.num_stations())));
  }
  double worst = std::numeric_limits<double>::infinity();
  const auto within_budget = [&](double lat) {
    return waiting_ms + lat <= req.latency_budget_ms;
  };
  mec::for_each_placement_latency(topo, req, [&](int bs, double lat,
                                                 double floor) {
    if (floor > worst || !within_budget(floor)) return false;
    if (lat > worst || !within_budget(lat)) return true;
    const CandidateStation cand{bs, lat};
    if (k <= 0) {
      kept.push_back(cand);
      return true;
    }
    if (static_cast<int>(kept.size()) == k) {
      if (!nearer(cand, kept.front())) return true;  // ties the k-th, higher id
      std::pop_heap(kept.begin(), kept.end(), nearer);
      kept.pop_back();
    }
    kept.push_back(cand);
    std::push_heap(kept.begin(), kept.end(), nearer);
    if (static_cast<int>(kept.size()) == k) worst = kept.front().latency_ms;
    return true;
  });
  if (k <= 0) {
    std::sort(kept.begin(), kept.end(), nearer);
  } else {
    std::sort_heap(kept.begin(), kept.end(), nearer);
  }
  return kept;
}

SlotLpInstance build_slot_lp(const mec::Topology& topo,
                             const std::vector<mec::ARRequest>& requests,
                             const AlgorithmParams& params,
                             const SlotLpOptions& options) {
  obs::metrics().lp_slot_models.add();
  SlotLpInstance inst;
  const int num_stations = topo.num_stations();
  if (!options.capacity_override_mhz.empty() &&
      options.capacity_override_mhz.size() !=
          static_cast<std::size_t>(num_stations)) {
    throw std::invalid_argument(
        "build_slot_lp: capacity_override_mhz size mismatch");
  }
  if (!options.waiting_ms_per_request.empty() &&
      options.waiting_ms_per_request.size() != requests.size()) {
    throw std::invalid_argument(
        "build_slot_lp: waiting_ms_per_request size mismatch");
  }
  auto station_capacity = [&](int bs) {
    return options.capacity_override_mhz.empty()
               ? topo.station(bs).capacity_mhz
               : options.capacity_override_mhz[static_cast<std::size_t>(bs)];
  };
  auto waiting_of = [&](std::size_t j) {
    return options.waiting_ms_per_request.empty()
               ? options.waiting_ms
               : options.waiting_ms_per_request[j];
  };
  inst.slots_per_station.resize(static_cast<std::size_t>(num_stations));
  for (int bs = 0; bs < num_stations; ++bs) {
    inst.slots_per_station[static_cast<std::size_t>(bs)] = std::max(
        1, static_cast<int>(
               std::floor(station_capacity(bs) / params.slot_capacity_mhz)));
  }
  inst.request_columns.resize(requests.size());

  // Columns y_jil with ER_jil objective. The candidate list carries the
  // placement latency it computed for the feasibility filter, so each
  // (request, station) latency is evaluated exactly once.
  for (std::size_t j = 0; j < requests.size(); ++j) {
    const mec::ARRequest& req = requests[j];
    for (const CandidateStation& cand :
         candidate_stations(topo, req, params, waiting_of(j))) {
      const int bs = cand.station;
      const double latency = cand.latency_ms;
      const int L = inst.slots_per_station[static_cast<std::size_t>(bs)];
      for (int l = 0; l < L; ++l) {
        const double rate_cap =
            (station_capacity(bs) - l * params.slot_capacity_mhz) /
            params.c_unit;
        const double er = req.demand.expected_reward_within(rate_cap);
        if (er <= 0.0) continue;  // no level fits from this slot onward
        // The per-stream share is a true column bound (0 <= y <= 1), not a
        // row: the revised simplex handles it natively and the basis stays
        // at the real constraint count.
        const int col = inst.model.add_variable(
            "y_" + std::to_string(req.id) + "_" + std::to_string(bs) + "_" +
                std::to_string(l),
            er, 1.0);
        inst.vars.push_back(SlotVar{static_cast<int>(j), bs, l, er, latency});
        inst.request_columns[j].push_back(col);
      }
    }
  }

  // (9): per-request assignment rows. A request with a single candidate
  // column needs no row at all — its constraint is exactly the column's
  // upper bound, so the polytope is unchanged with one row fewer.
  for (std::size_t j = 0; j < requests.size(); ++j) {
    if (inst.request_columns[j].size() < 2) continue;
    std::vector<lp::Term> terms;
    terms.reserve(inst.request_columns[j].size());
    for (int col : inst.request_columns[j]) {
      terms.push_back(lp::Term{col, 1.0});
    }
    inst.model.add_constraint("assign_" + std::to_string(requests[j].id),
                              lp::Sense::kLe, 1.0, std::move(terms));
  }

  // (10)/(23): slot-prefix capacity rows per (station, l), l = 1..L.
  const std::vector<std::vector<int>> station_columns =
      columns_by_station(inst.vars, num_stations);
  for (int bs = 0; bs < num_stations; ++bs) {
    const int L = inst.slots_per_station[static_cast<std::size_t>(bs)];
    for (int l = 1; l <= L; ++l) {
      const double rate_cap = l * params.slot_capacity_mhz / params.c_unit;
      std::vector<lp::Term> terms;
      for (int col : station_columns[static_cast<std::size_t>(bs)]) {
        const SlotVar& var = inst.vars[static_cast<std::size_t>(col)];
        if (var.slot >= l) continue;
        double cap = rate_cap;
        if (options.share_cap_mhz) {
          cap = std::min(cap, *options.share_cap_mhz / params.c_unit);
        }
        const double truncated =
            requests[static_cast<std::size_t>(var.request_index)]
                .demand.expected_truncated_rate(cap);
        if (truncated > 0.0) {
          terms.push_back(lp::Term{col, truncated});
        }
      }
      if (terms.empty()) continue;
      inst.model.add_constraint(
          "slots_" + std::to_string(bs) + "_" + std::to_string(l),
          lp::Sense::kLe, 2.0 * rate_cap, std::move(terms));
    }
  }

  return inst;
}

SlotLpInstance build_ilp_rm(const mec::Topology& topo,
                            const std::vector<mec::ARRequest>& requests,
                            const AlgorithmParams& params) {
  SlotLpInstance inst;
  const int num_stations = topo.num_stations();
  inst.slots_per_station.assign(static_cast<std::size_t>(num_stations), 1);
  inst.request_columns.resize(requests.size());

  for (std::size_t j = 0; j < requests.size(); ++j) {
    const mec::ARRequest& req = requests[j];
    for (const CandidateStation& cand : candidate_stations(topo, req, params)) {
      const int bs = cand.station;
      const double latency = cand.latency_ms;
      // Expected reward restricted to rates the station can hold at all
      // (consistent with Eq. (8) at slot 0).
      const double rate_cap = topo.station(bs).capacity_mhz / params.c_unit;
      const double er = req.demand.expected_reward_within(rate_cap);
      if (er <= 0.0) continue;
      const int col = inst.model.add_variable(
          "x_" + std::to_string(req.id) + "_" + std::to_string(bs), er, 1.0,
          /*integral=*/true);
      inst.vars.push_back(SlotVar{static_cast<int>(j), bs, 0, er, latency});
      inst.request_columns[j].push_back(col);
    }
  }

  // (3): each request to at most one station.
  for (std::size_t j = 0; j < requests.size(); ++j) {
    if (inst.request_columns[j].empty()) continue;
    std::vector<lp::Term> terms;
    for (int col : inst.request_columns[j]) {
      terms.push_back(lp::Term{col, 1.0});
    }
    inst.model.add_constraint("assign_" + std::to_string(requests[j].id),
                              lp::Sense::kLe, 1.0, std::move(terms));
  }

  // (4): expected-demand capacity per station.
  const std::vector<std::vector<int>> station_columns =
      columns_by_station(inst.vars, num_stations);
  for (int bs = 0; bs < num_stations; ++bs) {
    std::vector<lp::Term> terms;
    for (int col : station_columns[static_cast<std::size_t>(bs)]) {
      const SlotVar& var = inst.vars[static_cast<std::size_t>(col)];
      const double demand =
          requests[static_cast<std::size_t>(var.request_index)]
              .demand.expected_rate() *
          params.c_unit;
      terms.push_back(lp::Term{col, demand});
    }
    if (terms.empty()) continue;
    inst.model.add_constraint("cap_" + std::to_string(bs), lp::Sense::kLe,
                              topo.station(bs).capacity_mhz, std::move(terms));
  }

  return inst;
}

}  // namespace mecar::core
