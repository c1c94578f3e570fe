#include "fuzz_rows.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <iostream>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/slot_lp.h"
#include "mec/request.h"
#include "mec/topology.h"
#include "util/rng.h"

namespace mecar::tools {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The reference: every row swept eagerly by a lazy-deletion
/// priority-queue Dijkstra, the sweep mecar ran at construction before
/// rows were settled on demand.
struct EagerRows {
  int n = 0;
  std::vector<double> dist;  // row-major n x n
  std::vector<int> parent;   // link used to reach the column

  explicit EagerRows(const mec::Topology& topo)
      : n(topo.num_stations()),
        dist(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf),
        parent(dist.size(), -1) {
    struct Edge {
      int to;
      double delay;
      int link;
    };
    std::vector<std::vector<Edge>> adjacency(static_cast<std::size_t>(n));
    for (std::size_t li = 0; li < topo.links().size(); ++li) {
      const mec::Link& l = topo.links()[li];
      const int id = static_cast<int>(li);
      adjacency[static_cast<std::size_t>(l.a)].push_back({l.b, l.delay_ms, id});
      adjacency[static_cast<std::size_t>(l.b)].push_back({l.a, l.delay_ms, id});
    }
    for (int src = 0; src < n; ++src) {
      double* d = row(src);
      int* p = &parent[static_cast<std::size_t>(src) * static_cast<std::size_t>(n)];
      using Entry = std::pair<double, int>;
      std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
      d[src] = 0.0;
      heap.emplace(0.0, src);
      while (!heap.empty()) {
        const auto [du, u] = heap.top();
        heap.pop();
        if (du > d[u]) continue;
        for (const Edge& e : adjacency[static_cast<std::size_t>(u)]) {
          const double nd = du + e.delay;
          if (nd < d[e.to]) {
            d[e.to] = nd;
            p[e.to] = e.link;
            heap.emplace(nd, e.to);
          }
        }
      }
    }
  }

  double* row(int src) {
    return &dist[static_cast<std::size_t>(src) * static_cast<std::size_t>(n)];
  }
  double at(int from, int to) const {
    return dist[static_cast<std::size_t>(from) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(to)];
  }

  /// Stations by (delay, id), unreachable last.
  std::vector<int> order(int from) const {
    std::vector<int> out(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = i;
    std::sort(out.begin(), out.end(), [&](int a, int b) {
      const double da = at(from, a);
      const double db = at(from, b);
      if (da != db) return da < db;
      return a < b;
    });
    return out;
  }

  std::vector<int> path(const mec::Topology& topo, int from, int to) const {
    std::vector<int> links;
    for (int cur = to; cur != from;) {
      const int link = parent[static_cast<std::size_t>(from) *
                                  static_cast<std::size_t>(n) +
                              static_cast<std::size_t>(cur)];
      links.push_back(link);
      const mec::Link& l = topo.links()[static_cast<std::size_t>(link)];
      cur = l.a == cur ? l.b : l.a;
    }
    std::reverse(links.begin(), links.end());
    return links;
  }
};

double latency(const EagerRows& rows, const mec::Topology& topo,
               const mec::ARRequest& req, int bs) {
  return 2.0 * rows.at(req.home_station, bs) +
         req.total_proc_weight() * topo.station(bs).proc_ms_per_unit;
}

bool nearer(const core::CandidateStation& a, const core::CandidateStation& b) {
  if (a.latency_ms != b.latency_ms) return a.latency_ms < b.latency_ms;
  return a.station < b.station;
}

/// The candidate kernel before delay-ordered walks: one pass over every
/// station in id order with a bounded max-heap of the k nearest.
std::vector<core::CandidateStation> reference_candidates(
    const EagerRows& rows, const mec::Topology& topo,
    const mec::ARRequest& req, int k, double waiting_ms) {
  std::vector<core::CandidateStation> kept;
  double worst = kInf;
  for (int bs = 0; bs < topo.num_stations(); ++bs) {
    const double lat = latency(rows, topo, req, bs);
    if (lat > worst || !(waiting_ms + lat <= req.latency_budget_ms)) continue;
    const core::CandidateStation cand{bs, lat};
    if (k <= 0) {
      kept.push_back(cand);
      continue;
    }
    if (static_cast<int>(kept.size()) == k) {
      if (!nearer(cand, kept.front())) continue;
      std::pop_heap(kept.begin(), kept.end(), nearer);
      kept.pop_back();
    }
    kept.push_back(cand);
    std::push_heap(kept.begin(), kept.end(), nearer);
    if (static_cast<int>(kept.size()) == k) worst = kept.front().latency_ms;
  }
  std::sort(kept.begin(), kept.end(), nearer);
  return kept;
}

/// A random topology by seed % 3: 0 — Waxman with real delays; 1 — integer
/// delays 1..4 plus parallel links (equal-delay ties); 2 — integer delays
/// 0..3, so zero-delay links tie stations at one distance in an order the
/// heap does not pop them in. Any family may cut one station off (an
/// unreachable tail) and draw processing speeds from {1, 2} (latency ties).
mec::Topology fuzz_rows_topology(std::uint64_t seed, util::Rng& rng) {
  mec::TopologyParams params;
  params.num_stations = 2 + static_cast<int>(rng.uniform_int(0, 48));
  const mec::Topology waxman = mec::generate_topology(params, rng);
  std::vector<mec::BaseStation> stations = waxman.stations();
  std::vector<mec::Link> links = waxman.links();
  const int family = static_cast<int>(seed % 3);
  if (family >= 1) {
    const std::int64_t low = family == 1 ? 1 : 0;
    for (mec::Link& l : links) {
      l.delay_ms = static_cast<double>(rng.uniform_int(low, low + 3));
    }
  }
  if (family == 1) {
    const std::size_t count = links.size();
    for (std::size_t i = 0; i < count; ++i) {
      if (rng.bernoulli(0.2)) links.push_back(links[i]);
    }
  }
  if (rng.bernoulli(0.3)) {
    const auto cut = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(stations.size()) - 1));
    std::erase_if(links,
                  [&](const mec::Link& l) { return l.a == cut || l.b == cut; });
  }
  if (rng.bernoulli(0.5)) {
    for (mec::BaseStation& bs : stations) {
      bs.proc_ms_per_unit = rng.bernoulli(0.5) ? 1.0 : 2.0;
    }
  }
  return mec::Topology(std::move(stations), std::move(links));
}

/// A request at a random home whose budget cuts the walk at a random
/// depth: sometimes exactly at some station's latency, sometimes never.
mec::ARRequest fuzz_rows_request(const EagerRows& rows,
                                 const mec::Topology& topo, util::Rng& rng) {
  const int n = topo.num_stations();
  mec::ARRequest req;
  req.home_station = static_cast<int>(rng.uniform_int(0, n - 1));
  for (auto k = rng.uniform_int(1, 3); k > 0; --k) {
    mec::TaskSpec task;
    task.proc_weight = rng.bernoulli(0.5)
                           ? static_cast<double>(rng.uniform_int(0, 2))
                           : rng.uniform(0.0, 3.0);
    req.tasks.push_back(task);
  }
  const double pivot =
      latency(rows, topo, req, static_cast<int>(rng.uniform_int(0, n - 1)));
  switch (rng.uniform_int(0, 2)) {
    case 0:
      req.latency_budget_ms = kInf;
      break;
    case 1:
      req.latency_budget_ms = pivot;
      break;
    default:
      req.latency_budget_ms =
          std::isfinite(pivot) ? pivot * rng.uniform(0.5, 1.5) : 100.0;
      break;
  }
  return req;
}

std::string describe(const std::vector<core::CandidateStation>& list) {
  std::string out = "[";
  for (const core::CandidateStation& c : list) {
    out += " " + std::to_string(c.station) + "@" + std::to_string(c.latency_ms);
  }
  return out + " ]";
}

/// Interleaves 160 random queries on a fresh lazy Topology (sometimes on a
/// copy taken mid-way, rows partly settled) and compares each with the
/// eager reference bit for bit.
bool fuzz_rows_one(std::uint64_t seed, std::string& why) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 977ull);
  const mec::Topology built = fuzz_rows_topology(seed, rng);
  const EagerRows rows(built);
  std::deque<mec::Topology> copies;
  const mec::Topology* topo = &built;
  const int n = built.num_stations();
  const auto station = [&] {
    return static_cast<int>(rng.uniform_int(0, n - 1));
  };
  for (int op = 0; op < 160; ++op) {
    const std::string at = "op " + std::to_string(op) + ": ";
    switch (rng.uniform_int(0, 7)) {
      case 0: {  // candidate query
        const mec::ARRequest req = fuzz_rows_request(rows, *topo, rng);
        core::AlgorithmParams params;
        params.max_candidate_stations = static_cast<int>(rng.uniform_int(-1, 12));
        const double waiting =
            rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 20.0);
        const auto got =
            core::candidate_stations(*topo, req, params, waiting);
        const auto want = reference_candidates(
            rows, *topo, req, params.max_candidate_stations, waiting);
        bool same = got.size() == want.size();
        for (std::size_t i = 0; same && i < got.size(); ++i) {
          same = got[i].station == want[i].station &&
                 bits(got[i].latency_ms) == bits(want[i].latency_ms);
        }
        if (!same) {
          why = at + "candidates of home " + std::to_string(req.home_station) +
                " (k " + std::to_string(params.max_candidate_stations) +
                "): got " + describe(got) + ", want " + describe(want);
          return false;
        }
        break;
      }
      case 1: {  // min-latency query, with or without an up-mask
        const mec::ARRequest req = fuzz_rows_request(rows, *topo, rng);
        std::vector<char> up;
        if (rng.bernoulli(0.5)) {
          up.resize(static_cast<std::size_t>(n));
          for (char& u : up) u = rng.bernoulli(0.7) ? 1 : 0;
        }
        double want = kInf;
        for (int bs = 0; bs < n; ++bs) {
          if (up.empty() || up[static_cast<std::size_t>(bs)] != 0) {
            want = std::min(want, latency(rows, *topo, req, bs));
          }
        }
        const double got = mec::min_placement_latency_ms(*topo, req, up);
        if (bits(got) != bits(want)) {
          why = at + "min latency of home " + std::to_string(req.home_station);
          return false;
        }
        break;
      }
      case 2: {  // random-access delay
        const int from = station();
        const int to = station();
        if (bits(topo->transmission_delay_ms(from, to)) !=
            bits(rows.at(from, to))) {
          why = at + "delay " + std::to_string(from) + "->" + std::to_string(to);
          return false;
        }
        break;
      }
      case 3: {  // full order
        const int from = station();
        if (topo->stations_by_distance(from) != rows.order(from)) {
          why = at + "stations_by_distance(" + std::to_string(from) + ")";
          return false;
        }
        break;
      }
      case 4: {  // shortest path
        const int from = station();
        const int to = station();
        if (!std::isfinite(rows.at(from, to))) {
          bool threw = false;
          try {
            topo->shortest_path_links(from, to);
          } catch (const std::runtime_error&) {
            threw = true;
          }
          if (!threw) {
            why = at + "no throw for disconnected " + std::to_string(from) +
                  "->" + std::to_string(to);
            return false;
          }
        } else if (topo->shortest_path_links(from, to) !=
                   rows.path(*topo, from, to)) {
          why = at + "path " + std::to_string(from) + "->" + std::to_string(to);
          return false;
        }
        break;
      }
      case 5: {  // a settled prefix is a prefix of the reference order
        const int from = station();
        const int count = static_cast<int>(rng.uniform_int(0, n));
        const std::span<const int> prefix = topo->settled_order(from, count);
        const std::vector<int> order = rows.order(from);
        if (static_cast<int>(prefix.size()) < count ||
            !std::equal(prefix.begin(), prefix.end(), order.begin())) {
          why = at + "settled_order(" + std::to_string(from) + ", " +
                std::to_string(count) + ")";
          return false;
        }
        for (const int v : prefix) {
          if (bits(topo->settled_delay_ms(from, v)) != bits(rows.at(from, v))) {
            why = at + "settled delay " + std::to_string(from) + "->" +
                  std::to_string(v);
            return false;
          }
        }
        break;
      }
      case 6: {  // whole row
        const int from = station();
        const std::span<const double> row = topo->delay_row(from);
        for (int to = 0; to < n; ++to) {
          if (bits(row[static_cast<std::size_t>(to)]) != bits(rows.at(from, to))) {
            why = at + "delay_row(" + std::to_string(from) + ")[" +
                  std::to_string(to) + "]";
            return false;
          }
        }
        break;
      }
      default:  // go on with a copy of the partly settled topology
        if (rng.bernoulli(0.2)) {
          copies.push_back(*topo);
          topo = &copies.back();
        }
        break;
    }
  }
  return true;
}

}  // namespace

int cmd_fuzz_rows(const util::Cli& cli) {
  if (cli.has("seed")) {
    const auto seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 0));
    std::string why;
    if (fuzz_rows_one(seed, why)) {
      std::cout << "fuzz-rows: seed " << seed << " ok\n";
      return 0;
    }
    std::cerr << "FAIL seed " << seed << ": " << why << '\n';
    return 1;
  }
  const int seeds = static_cast<int>(cli.get_int_or("seeds", 200));
  int failures = 0;
  for (int s = 0; s < seeds; ++s) {
    std::string why;
    if (fuzz_rows_one(static_cast<std::uint64_t>(s), why)) continue;
    std::cerr << "FAIL seed " << s << ": " << why
              << "\n  replay: mecar_cli fuzz-rows --seed=" << s << '\n';
    ++failures;
  }
  std::cout << "fuzz-rows: " << seeds << " seeds, " << failures
            << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace mecar::tools
