#include "mec/topology.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mecar::mec {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Topology::Topology(std::vector<BaseStation> stations, std::vector<Link> links)
    : stations_(std::move(stations)), links_(std::move(links)) {
  if (stations_.empty()) {
    throw std::invalid_argument("Topology: no stations");
  }
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (stations_[i].id != static_cast<int>(i)) {
      throw std::invalid_argument("Topology: station ids must be 0..n-1");
    }
    if (stations_[i].capacity_mhz <= 0.0) {
      throw std::invalid_argument("Topology: non-positive capacity");
    }
  }
  n_ = stations_.size();
  edge_begin_.assign(n_ + 1, 0);
  for (const Link& link : links_) {
    if (link.a < 0 || link.b < 0 || link.a >= num_stations() ||
        link.b >= num_stations() || link.a == link.b) {
      throw std::invalid_argument("Topology: bad link endpoints");
    }
    if (link.delay_ms < 0.0) {
      throw std::invalid_argument("Topology: negative link delay");
    }
    if (link.bandwidth_mbps <= 0.0) {
      throw std::invalid_argument("Topology: non-positive link bandwidth");
    }
    ++edge_begin_[static_cast<std::size_t>(link.a) + 1];
    ++edge_begin_[static_cast<std::size_t>(link.b) + 1];
  }
  for (std::size_t u = 0; u < n_; ++u) edge_begin_[u + 1] += edge_begin_[u];
  edges_.resize(2 * links_.size());
  std::vector<int> next(edge_begin_.begin(), edge_begin_.end() - 1);
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const Link& link = links_[li];
    const int id = static_cast<int>(li);
    edges_[static_cast<std::size_t>(next[static_cast<std::size_t>(link.a)]++)] =
        Edge{link.delay_ms, link.b, id};
    edges_[static_cast<std::size_t>(next[static_cast<std::size_t>(link.b)]++)] =
        Edge{link.delay_ms, link.a, id};
  }
  min_proc_ = kInf;
  max_proc_ = -kInf;
  for (const BaseStation& bs : stations_) {
    if (bs.proc_ms_per_unit < min_proc_) min_proc_ = bs.proc_ms_per_unit;
    if (bs.proc_ms_per_unit > max_proc_) max_proc_ = bs.proc_ms_per_unit;
  }
  allocate_rows();
}

Topology::Topology(const Topology& other)
    : stations_(other.stations_),
      links_(other.links_),
      edge_begin_(other.edge_begin_),
      edges_(other.edges_),
      min_proc_(other.min_proc_),
      max_proc_(other.max_proc_),
      n_(other.n_) {
  allocate_rows();
  for (std::size_t src = 0; src < n_; ++src) {
    RowState& from = other.rows_[src];
    const std::lock_guard<std::mutex> lock(from.mu);
    if (!from.started) continue;
    const std::size_t at = src * n_;
    const int published = from.published.load(std::memory_order_relaxed);
    std::copy_n(&other.dist_[at], n_, &dist_[at]);
    std::copy_n(&other.parent_link_[at], n_, &parent_link_[at]);
    // The order row holds the settled prefix and, at its far end, the
    // frontier heap; the gap between them was never written.
    const std::size_t tail = n_ - static_cast<std::size_t>(from.heap_size);
    std::copy_n(&other.order_[at], published, &order_[at]);
    std::copy(&other.order_[at + tail], &other.order_[at + n_],
              &order_[at + tail]);
    for (std::size_t v = at; v < at + n_; ++v) {
      mark_[v] = load_mark(&other.mark_[v]);
    }
    RowState& to = rows_[src];
    to.started = true;
    to.heap_size = from.heap_size;
    to.published.store(published, std::memory_order_relaxed);
  }
}

void Topology::allocate_rows() {
  const std::size_t cells = n_ * n_;
  dist_ = std::make_unique_for_overwrite<double[]>(cells);
  parent_link_ = std::make_unique_for_overwrite<int[]>(cells);
  order_ = std::make_unique_for_overwrite<int[]>(cells);
  mark_ = std::make_unique_for_overwrite<int[]>(cells);
  rows_ = std::make_unique<RowState[]>(n_);
}

int Topology::settle_group(std::size_t src) const {
  // Dijkstra with an indexed binary heap keyed by (distance, station). It
  // pops stations, relaxes edges and sets parents in exactly the order of
  // a lazy-deletion priority-queue sweep, so every settled entry has the
  // same bits as a full sweep's. It only pauses between distance groups:
  // a group is published whole, sorted by station id, once every station
  // at that distance is settled (zero-delay links can add to a group after
  // its first pop).
  RowState& row = rows_[src];
  const std::size_t n = n_;
  const std::size_t at = src * n;
  double* dist = &dist_[at];
  int* parent = &parent_link_[at];
  int* order = &order_[at];
  int* mark = &mark_[at];
  int* heap = order + (n - 1);  // heap entry i is heap[-i]
  const auto before = [dist](int a, int b) {
    return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
  };
  const auto place = [&](int i, int v) {
    heap[-i] = v;
    store_mark(&mark[v], i);
  };
  const auto sift_up = [&](int i, int v) {
    while (i > 0) {
      const int up = (i - 1) / 2;
      if (!before(v, heap[-up])) break;
      place(i, heap[-up]);
      i = up;
    }
    place(i, v);
  };
  const auto sift_down = [&](int i, int v) {
    const int size = row.heap_size;
    while (true) {
      int child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && before(heap[-(child + 1)], heap[-child])) {
        ++child;
      }
      if (!before(heap[-child], v)) break;
      place(i, heap[-child]);
      i = child;
    }
    place(i, v);
  };

  if (!row.started) {
    std::fill_n(dist, n, kInf);
    std::fill_n(parent, n, -1);
    for (std::size_t v = 0; v < n; ++v) store_mark(&mark[v], kUnreached);
    dist[src] = 0.0;
    row.heap_size = 1;
    place(0, static_cast<int>(src));
    row.started = true;
  }
  int count = row.published.load(std::memory_order_relaxed);
  if (row.heap_size == 0) {
    // The rest is unreachable: one group at +infinity, in id order.
    for (std::size_t v = 0; v < n; ++v) {
      if (load_mark(&mark[v]) != kUnreached) continue;
      order[count] = static_cast<int>(v);
      store_mark(&mark[v], settled_mark(count));
      ++count;
    }
  } else {
    const int begin = count;
    const double d = dist[heap[0]];
    while (row.heap_size > 0 && dist[heap[0]] == d) {
      // Pop before appending: the heap's last entry may occupy order[count].
      const int u = heap[0];
      const int last = heap[-(--row.heap_size)];
      if (row.heap_size > 0) sift_down(0, last);
      order[count] = u;
      store_mark(&mark[u], settled_mark(count));
      ++count;
      for (const Edge& e : edges_of(u)) {
        const double nd = d + e.delay;
        if (!(nd < dist[e.to])) continue;
        dist[e.to] = nd;
        parent[e.to] = e.link;
        const int m = load_mark(&mark[e.to]);
        sift_up(m == kUnreached ? row.heap_size++ : m, e.to);
      }
    }
    if (count - begin > 1) {
      std::sort(order + begin, order + count);
      for (int r = begin; r < count; ++r) {
        store_mark(&mark[order[r]], settled_mark(r));
      }
    }
  }
  row.published.store(count, std::memory_order_release);
  return count;
}

bool Topology::published(std::size_t src, std::size_t to) const noexcept {
  const int count = rows_[src].published.load(std::memory_order_acquire);
  if (count == static_cast<int>(n_)) return true;
  if (count == 0) return false;  // the row's marks may not be written yet
  // A rank below the acquired count was published before that count was.
  const int mark = load_mark(&mark_[src * n_ + to]);
  return is_settled(mark) && rank_of(mark) < count;
}

void Topology::settle_station(std::size_t src, std::size_t to) const {
  RowState& row = rows_[src];
  const std::lock_guard<std::mutex> lock(row.mu);
  while (!row.started || !is_settled(load_mark(&mark_[src * n_ + to]))) {
    settle_group(src);
  }
}

std::span<const int> Topology::settled_order(int from, int count) const {
  if (from < 0 || from >= num_stations()) {
    throw std::out_of_range("Topology::settled_order: bad station id");
  }
  const auto src = static_cast<std::size_t>(from);
  RowState& row = rows_[src];
  const int want = std::min(count, num_stations());
  int have = row.published.load(std::memory_order_acquire);
  if (have < want) {
    const std::lock_guard<std::mutex> lock(row.mu);
    have = row.published.load(std::memory_order_relaxed);
    while (have < want) have = settle_group(src);
  }
  return {&order_[src * n_], static_cast<std::size_t>(have)};
}

const Topology& Topology::settled() const {
  for (int src = 0; src < num_stations(); ++src) {
    settled_order(src, num_stations());
  }
  return *this;
}

void Topology::sweep_row(std::size_t src) {
  RowState& row = rows_[src];
  const std::lock_guard<std::mutex> lock(row.mu);
  row.started = false;
  row.heap_size = 0;
  row.published.store(0, std::memory_order_relaxed);
  for (int have = 0; have < num_stations();) have = settle_group(src);
}

void Topology::set_capacity(int station, double capacity_mhz) {
  stations_[static_cast<std::size_t>(station)].capacity_mhz = capacity_mhz;
}

void Topology::set_link_delay(int link, double delay_ms) {
  Link& l = links_[static_cast<std::size_t>(link)];
  l.delay_ms = delay_ms;
  for (const int end : {l.a, l.b}) {
    for (Edge& edge : edges_of(end)) {
      if (edge.link == link) edge.delay = delay_ms;
    }
  }
}

std::vector<int> Topology::shortest_path_links(int from, int to) const {
  if (from < 0 || to < 0 || from >= num_stations() || to >= num_stations()) {
    throw std::out_of_range("Topology::shortest_path_links: bad station id");
  }
  std::vector<int> path;
  if (from == to) return path;
  const auto src = static_cast<std::size_t>(from);
  const auto dst = static_cast<std::size_t>(to);
  if (!published(src, dst)) settle_station(src, dst);
  if (dist_[src * n_ + dst] == kInf) {
    throw std::runtime_error(
        "Topology::shortest_path_links: stations are disconnected");
  }
  // Every station on the path settled no later than `to`.
  int cur = to;
  while (cur != from) {
    const int link_id =
        parent_link_[src * n_ + static_cast<std::size_t>(cur)];
    path.push_back(link_id);
    const Link& link = links_[static_cast<std::size_t>(link_id)];
    cur = (link.a == cur) ? link.b : link.a;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double Topology::transmission_delay_ms(int from, int to) const {
  if (from < 0 || to < 0 || from >= num_stations() || to >= num_stations()) {
    throw std::out_of_range("Topology::transmission_delay_ms: bad station id");
  }
  const auto src = static_cast<std::size_t>(from);
  const auto dst = static_cast<std::size_t>(to);
  if (!published(src, dst)) settle_station(src, dst);
  return dist_[src * n_ + dst];
}

std::span<const double> Topology::delay_row(int from) const {
  if (from < 0 || from >= num_stations()) {
    throw std::out_of_range("Topology::delay_row: bad station id");
  }
  settled_order(from, num_stations());
  return {&dist_[static_cast<std::size_t>(from) * n_], n_};
}

bool Topology::connected() const {
  const std::span<const double> row = delay_row(0);
  return std::none_of(row.begin(), row.end(),
                      [](double d) { return d == kInf; });
}

double Topology::total_capacity_mhz() const noexcept {
  double total = 0.0;
  for (const BaseStation& bs : stations_) total += bs.capacity_mhz;
  return total;
}

std::vector<int> Topology::stations_by_distance(int from) const {
  const std::span<const int> order = settled_order(from, num_stations());
  return {order.begin(), order.end()};
}

Topology generate_topology(const TopologyParams& params, util::Rng& rng) {
  if (params.num_stations <= 0) {
    throw std::invalid_argument("generate_topology: num_stations <= 0");
  }
  const int n = params.num_stations;
  std::vector<BaseStation> stations;
  stations.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    BaseStation bs;
    bs.id = i;
    bs.capacity_mhz = rng.uniform(params.capacity_min_mhz,
                                  params.capacity_max_mhz);
    bs.proc_ms_per_unit = rng.uniform(params.proc_ms_min, params.proc_ms_max);
    bs.x = rng.uniform();
    bs.y = rng.uniform();
    stations.push_back(bs);
  }

  const double max_dist = std::sqrt(2.0);  // unit square diagonal
  auto euclid = [&](int a, int b) {
    const double dx = stations[static_cast<std::size_t>(a)].x -
                      stations[static_cast<std::size_t>(b)].x;
    const double dy = stations[static_cast<std::size_t>(a)].y -
                      stations[static_cast<std::size_t>(b)].y;
    return std::sqrt(dx * dx + dy * dy);
  };
  auto link_delay = [&](double dist) {
    // Longer links have proportionally larger transmission delay.
    const double frac = dist / max_dist;
    return params.link_delay_min_ms +
           frac * (params.link_delay_max_ms - params.link_delay_min_ms);
  };
  auto link_bandwidth = [&] {
    if (!std::isfinite(params.link_bandwidth_min_mbps)) {
      return std::numeric_limits<double>::infinity();
    }
    return rng.uniform(params.link_bandwidth_min_mbps,
                       params.link_bandwidth_max_mbps);
  };

  std::vector<Link> links;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const double d = euclid(a, b);
      const double p =
          params.waxman_beta * std::exp(-d / (params.waxman_alpha * max_dist));
      if (rng.bernoulli(p)) {
        links.push_back(Link{a, b, link_delay(d), link_bandwidth()});
      }
    }
  }

  // Patch connectivity: union-find over Waxman edges, then join components
  // through their geometrically closest station pair (what an ISP would do).
  std::vector<int> parent(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  auto find = [&](int v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  auto unite = [&](int a, int b) { parent[static_cast<std::size_t>(find(a))] = find(b); };
  for (const Link& l : links) unite(l.a, l.b);
  while (true) {
    int best_a = -1, best_b = -1;
    double best_d = kInf;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (find(a) == find(b)) continue;
        const double d = euclid(a, b);
        if (d < best_d) {
          best_d = d;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a < 0) break;  // single component
    links.push_back(Link{best_a, best_b, link_delay(best_d),
                         link_bandwidth()});
    unite(best_a, best_b);
  }

  return Topology(std::move(stations), std::move(links));
}

}  // namespace mecar::mec
