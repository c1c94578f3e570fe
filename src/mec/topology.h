// MEC network substrate: base stations, backhaul links, transmission delays.
//
// The paper evaluates on topologies "generated using GT-ITM" [13]; GT-ITM's
// flat random model is the Waxman model, which `TopologyGenerator` implements
// (uniform node placement, edge probability beta * exp(-d / (alpha * L)),
// plus patch edges to guarantee connectivity). Each base station carries a
// computing capacity in MHz and a per-unit processing speed; each link a
// per-unit transmission delay.
//
// Shortest transmission delays are settled on demand. Each source station
// owns a resumable Dijkstra row that settles stations in (delay, station)
// order and only as deep as some query has reached: a K-nearest candidate
// scan reads a short delay-ordered prefix, a random-access delay settles
// until its station is reached, and a whole-row query settles the row.
// A settled entry is final and bit-identical to a full sweep; rows and
// shortest-path parents stay dense |BS| x |BS| arrays (DESIGN.md
// "Shortest-path rows").
//
// Thread safety: every const member may be called from several threads at
// once. A row's published prefix is read without a lock; extending a row
// takes that row's mutex, and the new prefix length is published with a
// release store that readers load with acquire.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/rng.h"

namespace mecar::mec {

/// A 5G base station of the MEC network.
struct BaseStation {
  int id = 0;
  /// Computing capacity C(bs_i) in MHz.
  double capacity_mhz = 0.0;
  /// Delay of processing one rho_unit of data per unit of task weight, ms.
  /// (d^pro_{jki} = task.proc_weight * proc_ms_per_unit of the station.)
  double proc_ms_per_unit = 1.0;
  /// Planar position (arbitrary units) used by the Waxman generator.
  double x = 0.0;
  double y = 0.0;
};

/// An undirected backhaul link between two base stations.
struct Link {
  int a = 0;
  int b = 0;
  /// Delay d^trans of shipping one rho_unit of data across the link, ms.
  double delay_ms = 0.0;
  /// Carrying capacity in MB/s (infinite = unconstrained backhaul, the
  /// paper's base model; finite values enable the bandwidth extension —
  /// the paper criticizes prior work for "ignoring the backhaul wired
  /// bandwidth consumption").
  double bandwidth_mbps = std::numeric_limits<double>::infinity();
};

class TopologyOverlay;

/// Immutable network: stations, links, and shortest-path transmission
/// delays (ms per rho_unit), settled lazily. Only a TopologyOverlay mutates
/// one, in place, through the private mutators below.
class Topology {
 public:
  Topology(std::vector<BaseStation> stations, std::vector<Link> links);
  /// Copies the stations, links, and every row as far as it is settled.
  Topology(const Topology& other);
  Topology(Topology&&) noexcept = default;
  Topology& operator=(Topology&&) noexcept = default;

  int num_stations() const noexcept {
    return static_cast<int>(stations_.size());
  }
  const BaseStation& station(int id) const { return stations_.at(id); }
  const std::vector<BaseStation>& stations() const noexcept {
    return stations_;
  }
  const std::vector<Link>& links() const noexcept { return links_; }

  /// Shortest transmission delay between two stations (0 when equal);
  /// +infinity when disconnected.
  double transmission_delay_ms(int from, int to) const;

  /// All shortest transmission delays out of `from`: entry `to` equals
  /// transmission_delay_ms(from, to). Settles the whole row.
  std::span<const double> delay_row(int from) const;

  /// The nearest `count` or more stations of `from` in (delay, station)
  /// order, the order of stations_by_distance, settling the row only that
  /// deep (every station when count >= num_stations()). The prefix of an
  /// earlier call is a prefix of a later one.
  std::span<const int> settled_order(int from, int count) const;

  /// Transmission delay from `from` to a station of settled_order(from, ..).
  /// Unchecked: `to` must already be settled.
  double settled_delay_ms(int from, int to) const noexcept {
    return dist_[static_cast<std::size_t>(from) * n_ +
                 static_cast<std::size_t>(to)];
  }

  /// Lowest and highest proc_ms_per_unit over the stations: a placement
  /// scan bounds the processing term of every station it has not visited.
  double min_proc_ms_per_unit() const noexcept { return min_proc_; }
  double max_proc_ms_per_unit() const noexcept { return max_proc_; }

  /// True when every station can reach every other.
  bool connected() const;

  /// Total computing capacity of the network, MHz.
  double total_capacity_mhz() const noexcept;

  /// Stations ordered by transmission delay from `from`, nearest first
  /// (`from` itself leads unless zero-delay links tie it), ties by station
  /// id, unreachable stations last. Settles the whole row.
  std::vector<int> stations_by_distance(int from) const;

  /// Link indices along the delay-shortest path from `from` to `to`
  /// (empty when from == to). Throws std::runtime_error when disconnected.
  std::vector<int> shortest_path_links(int from, int to) const;

 private:
  friend class TopologyOverlay;

  /// A directed adjacency entry (16 bytes).
  struct Edge {
    double delay;
    int to;
    int link;
  };
  /// Per-row Dijkstra state. Only `published` is read without `mu`.
  struct RowState {
    std::mutex mu;
    /// Length of the final prefix of the row's order.
    std::atomic<int> published{0};
    /// Stations on the frontier heap.
    int heap_size = 0;
    bool started = false;
  };

  /// Row marks (mark_): a frontier heap position is >= 0; a settled
  /// station of rank r carries settled_mark(r) = -2 - r.
  static constexpr int kUnreached = -1;
  static constexpr int settled_mark(int rank) noexcept { return -2 - rank; }
  static constexpr bool is_settled(int mark) noexcept { return mark <= -2; }
  static constexpr int rank_of(int mark) noexcept { return -2 - mark; }
  static int load_mark(int* mark) noexcept {
    return std::atomic_ref<int>(*mark).load(std::memory_order_relaxed);
  }
  static void store_mark(int* mark, int value) noexcept {
    std::atomic_ref<int>(*mark).store(value, std::memory_order_relaxed);
  }

  std::span<const Edge> edges_of(int station) const noexcept {
    return {edges_.data() + edge_begin_[static_cast<std::size_t>(station)],
            edges_.data() + edge_begin_[static_cast<std::size_t>(station) + 1]};
  }
  std::span<Edge> edges_of(int station) noexcept {
    return {edges_.data() + edge_begin_[static_cast<std::size_t>(station)],
            edges_.data() + edge_begin_[static_cast<std::size_t>(station) + 1]};
  }

  /// Allocates the row arrays; rows stay unstarted.
  void allocate_rows();
  /// Settles the next distance group of row `src`, or every unreachable
  /// station once the frontier is empty, and publishes it. Needs the row's
  /// mutex and an unfinished row; returns the new published length.
  int settle_group(std::size_t src) const;
  /// True when `to` is in the published prefix of row `src` (lock-free).
  bool published(std::size_t src, std::size_t to) const noexcept;
  /// Settles row `src` until `to` is published.
  void settle_station(std::size_t src, std::size_t to) const;
  /// Settles every row; returns *this. The overlay repairs full rows.
  const Topology& settled() const;

  /// Overlay mutators: rewrite a station's capacity, or a link's delay in
  /// links_ and both adjacency entries. Neither touches the delay rows;
  /// the overlay repairs those itself.
  void set_capacity(int station, double capacity_mhz);
  void set_link_delay(int link, double delay_ms);
  /// Forgets row `src` and settles it again from scratch.
  void sweep_row(std::size_t src);

  std::vector<BaseStation> stations_;
  std::vector<Link> links_;
  /// Adjacency in CSR form: the edges of station u are
  /// edges_[edge_begin_[u] .. edge_begin_[u + 1]), in link order.
  std::vector<int> edge_begin_;
  std::vector<Edge> edges_;
  double min_proc_ = 0.0;
  double max_proc_ = 0.0;

  /// Rows: row-major |BS| x |BS|, each row initialised on first use.
  std::size_t n_ = 0;
  std::unique_ptr<double[]> dist_;      // shortest delay
  std::unique_ptr<int[]> parent_link_;  // link used to reach the column
  /// Stations in settle order; the frontier heap lives backwards in the
  /// row's unsettled tail (order[n-1-i] is heap entry i).
  std::unique_ptr<int[]> order_;
  /// Per column, read through std::atomic_ref: kUnreached, a frontier heap
  /// position (>= 0), or a settled rank r encoded as -2 - r.
  std::unique_ptr<int[]> mark_;
  std::unique_ptr<RowState[]> rows_;
};

/// Parameters of the Waxman/GT-ITM-style generator with the paper's
/// section VI-A defaults.
struct TopologyParams {
  int num_stations = 20;
  /// Capacity range [3000, 3600] MHz [28].
  double capacity_min_mhz = 3000.0;
  double capacity_max_mhz = 3600.0;
  /// Per-unit processing speed range (ms per rho_unit per task weight).
  double proc_ms_min = 1.0;
  double proc_ms_max = 3.0;
  /// Waxman parameters; GT-ITM flat random defaults.
  double waxman_alpha = 0.4;
  double waxman_beta = 0.6;
  /// Link transmission delay range (ms per rho_unit per hop).
  double link_delay_min_ms = 2.0;
  double link_delay_max_ms = 8.0;
  /// Backhaul link bandwidth range in MB/s; infinite (the default)
  /// reproduces the paper's unconstrained-backhaul model.
  double link_bandwidth_min_mbps = std::numeric_limits<double>::infinity();
  double link_bandwidth_max_mbps = std::numeric_limits<double>::infinity();
};

/// Generates a connected Waxman topology. Throws on non-positive sizes.
Topology generate_topology(const TopologyParams& params, util::Rng& rng);

}  // namespace mecar::mec
