// Incremental builder for the per-slot LP of Sec. IV-A/V.
//
// `build_slot_lp` reconstructs every ER_jil column from scratch each slot
// even though consecutive slot batches differ by a handful of arrivals,
// completions, and displaced streams. `IncrementalSlotLp` keeps the
// previous slot's `SlotLpInstance` alive and rewrites only the delta
// through the `lp::Model` mutation API:
//
//   * unchanged batch -> the cached model is returned as-is (reuse);
//   * entries that left -> their columns are struck (`remove_column`),
//     leaving their assignment row empty and inert;
//   * entries that joined (or whose candidate-station prefix changed) ->
//     fresh columns are appended into the existing capacity rows, plus a
//     new assignment row and any capacity row that had been empty so far.
//
// Delta soundness rests on two properties of the canonical builder:
// column objectives/coefficients depend only on (station, l, residual
// capacity, share cap) — never on waiting time (`SlotVar::latency_ms` has
// no waiting term) — and the per-request candidate set is a prefix of the
// stations sorted by (latency, id), so for a fixed home station a
// request's columns are a pure function of its candidate COUNT. Anything that breaks those preconditions
// (the round-robin share changed, the topology pointer changed, params
// changed) forces a full rebuild, as does compaction once struck columns
// outnumber live ones.
//
// A moved `capacity_override_mhz` (residual capacities shift every slot
// as residents come and go) is cheaper than that: capacity-row
// coefficients and RHS depend only on l * slot_capacity, so as long as no
// station's slot count L changed, only column OBJECTIVES move. Those are
// reconciled in place per entry (update_objective, plus update_bound
// freezing columns whose expected reward dropped to 0); only an entry
// that needs a column the old override never materialized falls back to
// strike-and-readd, and only an L change forces the full rebuild.
//
// Contract: the produced model is OBJECTIVE-equivalent to a scratch
// `build_slot_lp` of the same inputs (same polytope over live columns,
// possibly different column order and inert rows) — not byte-identical.
// Callers that need bit-for-bit golden output keep using the scratch
// builder; DynamicRR gates this path behind `DynamicRrParams::
// incremental_lp` (default off).
//
// Topology identity is tracked by POINTER: mutating the pointed-to object
// in place (a chaos overlay advancing its fault epoch) is invisible here,
// so such callers must invalidate() — or bypass the incremental path, as
// DynamicRR does whenever the view carries an overlay topology. A mobility
// re-home is detected: every reused entry is re-walked against its fresh
// `candidate_stations` list, so columns at the old home's stations are
// struck and re-added.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/slot_lp.h"

namespace mecar::util {
class SnapshotWriter;
class SnapshotReader;
}  // namespace mecar::util

namespace mecar::core {

class IncrementalSlotLp {
 public:
  struct Stats {
    long long full_builds = 0;
    long long reuses = 0;
    long long delta_builds = 0;
    long long columns_added = 0;
    long long columns_removed = 0;
  };

  /// Returns the slot LP for `requests` under `options`, rebuilding as
  /// little as the mutation contract allows. The reference stays valid
  /// until the next build() or invalidate().
  const SlotLpInstance& build(const mec::Topology& topo,
                              const std::vector<mec::ARRequest>& requests,
                              const AlgorithmParams& params,
                              const SlotLpOptions& options);

  /// Drops every cached structure; the next build() starts from scratch.
  void invalidate();

  const Stats& stats() const noexcept { return stats_; }

  /// Checkpoint support: serializes the cached model, entries and build
  /// context so a resumed run re-enters build() with the same reuse/delta
  /// decisions (and the same column order, which the warm basis depends
  /// on). load() re-points the topology at `topo`, which must be the same
  /// topology object the resumed simulation passes to build().
  void save(util::SnapshotWriter& w) const;
  void load(util::SnapshotReader& r, const mec::Topology& topo);

 private:
  /// Bookkeeping for one batch entry currently materialized in the model.
  struct Entry {
    int id = 0;
    /// Signature guarding column reuse: the candidate-station prefix
    /// length plus the demand/budget identity (a displaced stream enters
    /// as a "ghost" with the same id but a degenerate demand).
    int candidate_count = 0;
    double latency_budget_ms = 0.0;
    std::size_t demand_levels = 0;
    double demand_min_rate = 0.0;
    double demand_expected_reward = 0.0;
    std::vector<int> columns;  // model column ids, builder order
  };

  bool preconditions_hold(const mec::Topology& topo,
                          const AlgorithmParams& params,
                          const SlotLpOptions& options) const;
  /// True when the new capacity override leaves every station's slot
  /// count unchanged (the gate for in-place objective reconciliation).
  bool override_preserves_slot_counts(const SlotLpOptions& options) const;
  /// Walks a signature-matched entry against its fresh candidate list,
  /// rewriting objectives (and freeze bounds) under the current capacity
  /// override (already stored in options_). Returns false when the entry
  /// lacks a column the list needs or holds one it does not (a handover,
  /// or a column the old override never materialized) — the caller then
  /// strikes and re-adds the entry.
  bool reconcile_entry(const mec::ARRequest& req,
                       const std::vector<CandidateStation>& cands,
                       const Entry& e, bool& mutated);
  void full_build(const mec::Topology& topo,
                  const std::vector<mec::ARRequest>& requests,
                  const AlgorithmParams& params, const SlotLpOptions& options);
  /// Appends the columns (+ assignment row + missing capacity rows) of one
  /// joining entry over `cands`; returns its bookkeeping record.
  Entry add_entry(const mec::ARRequest& req,
                  const std::vector<CandidateStation>& cands);
  static Entry make_signature(const mec::ARRequest& req, int count);
  static bool signature_matches(const Entry& a, const Entry& b);

  SlotLpInstance inst_;
  std::vector<Entry> entries_;  // parallels the current batch
  /// Capacity row "slots_<bs>_<l>" indices, key = bs * (L_max + 1) + l.
  std::unordered_map<long long, int> capacity_rows_;
  /// Cached build context guarding reuse.
  const mec::Topology* topo_ = nullptr;
  int num_stations_ = 0;
  AlgorithmParams params_;
  SlotLpOptions options_;  // share cap + capacity override snapshot
  bool valid_ = false;
  long long dead_columns_ = 0;
  Stats stats_;
};

}  // namespace mecar::core
