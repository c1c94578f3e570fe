#include "mec/topology_overlay.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mecar::mec {

namespace {
/// Floor on browned-out capacity: keeps every effective capacity positive,
/// as Topology requires, while making the station useless for any real
/// placement.
constexpr double kMinCapacityScale = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Node states of one row repair.
constexpr char kTouched = 1;      // old distance saved in Repair::old_dist
constexpr char kInvalidated = 2;  // below an increased tree link
constexpr char kMoved = 4;        // touched, and its distance changed

/// True when (d(a), a, link_a) precedes (d(b), b, link_b): the order in
/// which a fresh Dijkstra sweep offers tight edges to a node.
bool precedes(double da, int a, int link_a, double db, int b, int link_b) {
  if (da != db) return da < db;
  if (a != b) return a < b;
  return link_a < link_b;
}
}  // namespace

/// Scratch of one fault-epoch update: the changed links, plus per-row
/// node state of size |BS| that repair_row clears after every row.
struct TopologyOverlay::Repair {
  struct Change {
    int link;
    bool increased;  // may lengthen paths: invalidate the subtree below it
    bool decreased;  // may shorten paths: relax across it
  };
  std::vector<Change> changes;
  std::vector<char> state;
  std::vector<double> old_dist;
  std::vector<int> touched;
  std::vector<int> invalidated;
  std::vector<std::pair<double, int>> heap;  // min-heap on (distance, node)
  std::vector<int> moved;  // touched nodes whose distance changed
};

bool TopologyPerturbation::identity() const noexcept {
  const auto all_one = [](const std::vector<double>& v) {
    return std::all_of(v.begin(), v.end(), [](double s) { return s == 1.0; });
  };
  return all_one(capacity_scale) && all_one(link_delay_scale) &&
         std::all_of(link_down.begin(), link_down.end(),
                     [](char d) { return d == 0; });
}

TopologyOverlay::TopologyOverlay(const Topology& base)
    : base_(base),
      effective_(base.settled()),
      ordered_rows_(static_cast<std::size_t>(base.num_stations()), 1) {
  const std::vector<int> flat = flat_links();
  if (flat.empty()) return;
  for (std::size_t src = 0; src < ordered_rows_.size(); ++src) {
    ordered_rows_[src] = settles_in_order(src, flat) ? 1 : 0;
  }
}

bool TopologyOverlay::apply(const TopologyPerturbation& pert) {
  const auto stations = static_cast<std::size_t>(base_.num_stations());
  const auto links = base_.links().size();
  if (!pert.capacity_scale.empty() && pert.capacity_scale.size() != stations) {
    throw std::invalid_argument("TopologyOverlay: capacity_scale size");
  }
  if (!pert.link_down.empty() && pert.link_down.size() != links) {
    throw std::invalid_argument("TopologyOverlay: link_down size");
  }
  if (!pert.link_delay_scale.empty() &&
      pert.link_delay_scale.size() != links) {
    throw std::invalid_argument("TopologyOverlay: link_delay_scale size");
  }
  for (double s : pert.capacity_scale) {
    if (s < 0.0 || s > 1.0) {
      throw std::invalid_argument(
          "TopologyOverlay: capacity scale outside [0, 1]");
    }
  }
  for (double s : pert.link_delay_scale) {
    if (s < 1.0) {
      throw std::invalid_argument("TopologyOverlay: link delay scale < 1");
    }
  }
  if (pert == active_) return false;
  active_ = pert;
  update();
  return true;
}

bool TopologyOverlay::reset() { return apply(TopologyPerturbation{}); }

void TopologyOverlay::update() {
  const std::vector<BaseStation>& stations = base_.stations();
  for (std::size_t i = 0; i < stations.size(); ++i) {
    double capacity = stations[i].capacity_mhz;
    if (!active_.capacity_scale.empty()) {
      capacity *= std::max(kMinCapacityScale, active_.capacity_scale[i]);
    }
    effective_.set_capacity(static_cast<int>(i), capacity);
  }
  Repair repair;
  const std::vector<Link>& links = base_.links();
  for (std::size_t li = 0; li < links.size(); ++li) {
    double delay = links[li].delay_ms;
    if (!active_.link_down.empty() && active_.link_down[li] != 0) {
      delay = kInf;
    } else if (!active_.link_delay_scale.empty()) {
      delay *= active_.link_delay_scale[li];
    }
    const double old = effective_.links()[li].delay_ms;
    if (std::bit_cast<std::uint64_t>(delay) ==
        std::bit_cast<std::uint64_t>(old)) {
      continue;
    }
    effective_.set_link_delay(static_cast<int>(li), delay);
    repair.changes.push_back(Repair::Change{static_cast<int>(li),
                                            !(delay < old), !(delay > old)});
  }
  ++epochs_;
  // A capacity-only epoch moves no shortest path.
  if (repair.changes.empty()) return;

  const std::vector<int> flat = flat_links();
  const auto n = ordered_rows_.size();
  repair.state.assign(n, 0);
  repair.old_dist.resize(n);
  for (std::size_t src = 0; src < n; ++src) {
    const bool was_ordered = ordered_rows_[src] != 0;
    if (was_ordered) {
      repair_row(src, repair);
    } else {
      effective_.sweep_row(src);
    }
    const bool ordered = flat.empty() || settles_in_order(src, flat);
    // Repaired distances are exact either way, but the tie rule that
    // re-derives parents assumes the (distance, station) settle order.
    if (was_ordered && !ordered) effective_.sweep_row(src);
    ordered_rows_[src] = ordered ? 1 : 0;
  }
}

void TopologyOverlay::repair_row(std::size_t src, Repair& r) {
  const auto n = ordered_rows_.size();
  double* dist = &effective_.dist_[src * n];
  int* parent = &effective_.parent_link_[src * n];
  const Topology& topo = effective_;
  const std::vector<Link>& links = effective_.links_;
  const auto touch = [&](int v) {
    if ((r.state[v] & kTouched) != 0) return;
    r.state[v] |= kTouched;
    r.old_dist[v] = dist[v];
    r.touched.push_back(v);
  };
  const auto relax = [&](int v, double nd) {
    if (!(nd < dist[v])) return;
    touch(v);
    dist[v] = nd;
    r.heap.emplace_back(nd, v);
    std::push_heap(r.heap.begin(), r.heap.end(), std::greater<>{});
  };
  const auto invalidate = [&](int v) {
    if ((r.state[v] & kInvalidated) != 0) return;
    r.state[v] |= kInvalidated;
    r.invalidated.push_back(v);
  };

  // 1. Invalidate every node whose tree path crosses a lengthened link:
  //    the subtrees below the lengthened links that are tree edges here.
  for (const Repair::Change& c : r.changes) {
    if (!c.increased) continue;
    const Link& l = links[static_cast<std::size_t>(c.link)];
    if (parent[l.a] == c.link) invalidate(l.a);
    if (parent[l.b] == c.link) invalidate(l.b);
  }
  for (std::size_t i = 0; i < r.invalidated.size(); ++i) {
    const auto u = static_cast<std::size_t>(r.invalidated[i]);
    for (const Topology::Edge& e : topo.edges_of(static_cast<int>(u))) {
      if (parent[e.to] == e.link) invalidate(e.to);
    }
  }

  // 2. Reseed the invalidated nodes from their still-valid neighbours.
  for (const int v : r.invalidated) {
    touch(v);
    dist[v] = kInf;
  }
  for (const int v : r.invalidated) {
    double best = kInf;
    for (const Topology::Edge& e : topo.edges_of(v)) {
      if ((r.state[e.to] & kInvalidated) != 0) continue;
      const double nd = dist[e.to] + e.delay;
      if (nd < best) best = nd;
    }
    relax(v, best);
  }

  // 3. Relax across every shortened link, then run Dijkstra from the seeds.
  for (const Repair::Change& c : r.changes) {
    if (!c.decreased) continue;
    const Link& l = links[static_cast<std::size_t>(c.link)];
    relax(l.b, dist[l.a] + l.delay_ms);
    relax(l.a, dist[l.b] + l.delay_ms);
  }
  while (!r.heap.empty()) {
    std::pop_heap(r.heap.begin(), r.heap.end(), std::greater<>{});
    const auto [d, u] = r.heap.back();
    r.heap.pop_back();
    if (d > dist[u]) continue;
    for (const Topology::Edge& e : topo.edges_of(u)) {
      relax(e.to, d + e.delay);
    }
  }

  // 4. Parents. A fresh sweep settles nodes in (distance, station) order,
  //    so parent[v] is the tight edge (u, v) first in (d(u), u, link)
  //    order: a pure function of the final distances. Re-derive it for
  //    every touched node; any other node keeps its parent unless that
  //    edge changed, or a changed node or link offers an earlier one.
  const auto derive = [&](int v) {
    parent[v] = -1;
    if (static_cast<std::size_t>(v) == src || dist[v] == kInf) return;
    int best_u = -1;
    for (const Topology::Edge& e : topo.edges_of(v)) {
      if (dist[e.to] + e.delay != dist[v]) continue;
      if (best_u < 0 || precedes(dist[e.to], e.to, e.link, dist[best_u],
                                 best_u, parent[v])) {
        best_u = e.to;
        parent[v] = e.link;
      }
    }
  };
  const auto offer = [&](int u, int v, int link, double delay) {
    if (static_cast<std::size_t>(v) == src || dist[v] == kInf ||
        dist[u] + delay != dist[v]) {
      return;
    }
    const Link& held = links[static_cast<std::size_t>(parent[v])];
    const int p = held.a == v ? held.b : held.a;
    if (precedes(dist[u], u, link, dist[p], p, parent[v])) parent[v] = link;
  };
  for (const int v : r.touched) derive(v);
  for (const int u : r.touched) {
    if (dist[u] == r.old_dist[u]) continue;
    for (const Topology::Edge& e : topo.edges_of(u)) {
      if ((r.state[e.to] & kTouched) != 0) continue;
      if (parent[e.to] == e.link) {
        derive(e.to);
      } else {
        offer(u, e.to, e.link, e.delay);
      }
    }
  }
  // A lengthened link offers nothing new to a node it did not touch: the
  // nodes it was the parent of were invalidated, and an endpoint that moved
  // offered all its edges just above.
  for (const Repair::Change& c : r.changes) {
    if (!c.decreased) continue;
    const Link& l = links[static_cast<std::size_t>(c.link)];
    for (const auto& [u, v] : {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
      if ((r.state[v] & kTouched) != 0) continue;
      if (parent[v] == c.link) {
        derive(v);
      } else {
        offer(u, v, c.link, l.delay_ms);
      }
    }
  }

  // 5. The row's settle order, sorted by the old distances: merge the
  //    moved nodes back in. Only the window spanning their old ranks and
  //    new insertion points changes; what lies before it sorts below, and
  //    what lies after it above, every new key.
  r.moved.clear();
  for (const int v : r.touched) {
    if (dist[v] == r.old_dist[v]) continue;
    r.state[v] |= kMoved;
    r.moved.push_back(v);
  }
  if (!r.moved.empty()) reorder(src, r);

  for (const int v : r.touched) r.state[v] = 0;
  r.touched.clear();
  r.invalidated.clear();
}

void TopologyOverlay::reorder(std::size_t src, Repair& r) {
  const auto n = ordered_rows_.size();
  const double* dist = &effective_.dist_[src * n];
  int* order = &effective_.order_[src * n];
  int* mark = &effective_.mark_[src * n];
  const auto before = [](double da, int a, double db, int b) {
    return da < db || (da == db && a < b);
  };
  // True when u sorts below key (d, v) in the order as it stands.
  const auto below = [&](int u, double d, int v) {
    const double du = (r.state[u] & kTouched) != 0 ? r.old_dist[u] : dist[u];
    return before(du, u, d, v);
  };
  std::size_t lo = n;
  std::size_t hi = 0;
  for (const int v : r.moved) {
    // The new position, galloping from the old rank toward it.
    const auto rank = static_cast<std::size_t>(
        Topology::rank_of(Topology::load_mark(&mark[v])));
    const double d = dist[v];
    const auto pred = [&](int u) { return below(u, d, v); };
    std::size_t first = 0;
    std::size_t last = rank;
    if (d > r.old_dist[v]) {
      std::size_t step = 1;
      first = rank + 1;
      while (first + step <= n && pred(order[first + step - 1])) {
        first += step;
        step *= 2;
      }
      last = std::min(first + step, n);
    } else {
      std::size_t step = 1;
      while (last >= step && !pred(order[last - step])) {
        last -= step;
        step *= 2;
      }
      first = last >= step ? last - step + 1 : 0;
    }
    const auto insert = static_cast<std::size_t>(
        std::partition_point(order + first, order + last, pred) - order);
    lo = std::min({lo, rank, insert});
    hi = std::max({hi, rank + 1, insert});
  }
  // The moved nodes in new order (a handful: insertion sort).
  for (std::size_t i = 1; i < r.moved.size(); ++i) {
    const int v = r.moved[i];
    std::size_t k = i;
    for (; k > 0 && before(dist[v], v, dist[r.moved[k - 1]], r.moved[k - 1]);
         --k) {
      r.moved[k] = r.moved[k - 1];
    }
    r.moved[k] = v;
  }
  // Compact the window's unmoved nodes to its front, merge from the back,
  // then restamp the window's ranks.
  std::size_t kept = lo;
  for (std::size_t i = lo; i < hi; ++i) {
    if ((r.state[order[i]] & kMoved) == 0) order[kept++] = order[i];
  }
  std::size_t write = hi;
  for (std::size_t j = r.moved.size(); j > 0;) {
    const int v = r.moved[j - 1];
    if (kept > lo &&
        before(dist[v], v, dist[order[kept - 1]], order[kept - 1])) {
      order[--write] = order[--kept];
    } else {
      order[--write] = v;
      --j;
    }
  }
  for (std::size_t i = lo; i < hi; ++i) {
    Topology::store_mark(&mark[order[i]],
                         Topology::settled_mark(static_cast<int>(i)));
  }
}

std::vector<int> TopologyOverlay::flat_links() const {
  // A finite shortest distance is the rounded sum along a simple path, so
  // it stays below twice the sum S of all finite delays. A delay above
  // S * 2^-50 then exceeds the ulp of every such distance d, and d + w > d.
  const std::vector<Link>& links = effective_.links();
  double total = 0.0;
  for (const Link& l : links) {
    if (std::isfinite(l.delay_ms)) total += l.delay_ms;
  }
  const double floor = std::ldexp(total, -50);
  std::vector<int> flat;
  for (std::size_t li = 0; li < links.size(); ++li) {
    const double w = links[li].delay_ms;
    if (std::isfinite(w) && !(w > floor)) flat.push_back(static_cast<int>(li));
  }
  return flat;
}

bool TopologyOverlay::settles_in_order(
    std::size_t src, const std::vector<int>& flat_links) const {
  const std::span<const double> row =
      effective_.delay_row(static_cast<int>(src));
  const std::vector<Link>& links = effective_.links();
  for (const int li : flat_links) {
    const Link& l = links[static_cast<std::size_t>(li)];
    for (const int end : {l.a, l.b}) {
      const double d = row[static_cast<std::size_t>(end)];
      if (d != kInf && d + l.delay_ms == d) return false;
    }
  }
  return true;
}

}  // namespace mecar::mec
