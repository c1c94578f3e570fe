// Tests for checkpoint orchestration (sim/checkpoint.h): mid-run
// SimSnapshot capture via SlotHook and bit-identical resume — on the
// legacy slot loop, on the sharded loop, and ACROSS engines (the snapshot
// is canonical state, so a run checkpointed under one engine must resume
// identically under the other) — plus byte-stable serialization of
// SimSnapshot itself, the CheckpointStore generation ledger (atomic
// writes, newest-first listing, prune-to-two retention), and the
// corrupted-newest-generation fallback the resume ladder performs.
//
// Equality is EXPECT_EQ on doubles throughout: the checkpoint contract is
// bit-identity, not tolerance-equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/instance.h"
#include "sim/checkpoint.h"
#include "sim/dynamic_rr.h"
#include "sim/online_baselines.h"
#include "sim/online_sim.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace mecar::sim {
namespace {

constexpr std::uint32_t kMagic = 0x54504b43u;  // "CKPT" (test-local frame)
constexpr std::uint32_t kVersion = 1;

exp::Instance busy_instance(unsigned seed, int horizon) {
  exp::InstanceConfig config;
  config.num_requests = 200;
  config.num_stations = 10;
  config.horizon_slots = horizon;
  return exp::make_instance(seed, config);
}

/// Chaos the resume path must survive: outages, a brownout, a link cut,
/// solver faults, and cross-shard mobility, all straddling the capture
/// slot so in-flight fault state lands inside the snapshot.
OnlineParams chaos_params(const exp::Instance& inst, int horizon) {
  OnlineParams params;
  params.horizon_slots = horizon;
  params.collect_detail = true;
  params.faults.station_outages.push_back({2, 40, 90});
  params.faults.station_outages.push_back({7, 100, 150});
  params.faults.brownouts.push_back({4, 60, 140, 0.4});
  if (!inst.topo.links().empty()) {
    params.faults.link_outages.push_back({0, 80, 130});
  }
  params.faults.solver_budgets.push_back({30, 80, 6});
  params.faults.solver_jams.push_back({110, 140});
  params.mobility.push_back({5, 50, 9});
  params.mobility.push_back({12, 70, 0});
  params.mobility.push_back({30, 120, 8});
  return params;
}

enum class PolicyKind { kDynamicRr, kGreedy };

std::unique_ptr<OnlinePolicy> make_policy(PolicyKind kind,
                                          const mec::Topology& topo) {
  if (kind == PolicyKind::kGreedy) {
    return std::make_unique<GreedyOnlinePolicy>(topo, core::AlgorithmParams{});
  }
  return std::make_unique<DynamicRrPolicy>(topo, core::AlgorithmParams{},
                                           DynamicRrParams{}, util::Rng(7));
}

struct CaptureHook final : SlotHook {
  int at_slot;
  std::optional<SimSnapshot> snap;
  explicit CaptureHook(int slot) : at_slot(slot) {}
  bool want_snapshot(int slot) override { return slot == at_slot; }
  void on_snapshot(int, SimSnapshot s) override { snap = std::move(s); }
};

void expect_identical(const OnlineMetrics& a, const OnlineMetrics& b,
                      const char* label) {
  EXPECT_EQ(a.total_reward, b.total_reward) << label;
  EXPECT_EQ(a.arrived, b.arrived) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.dropped, b.dropped) << label;
  EXPECT_EQ(a.unfinished, b.unfinished) << label;
  EXPECT_EQ(a.displaced, b.displaced) << label;
  EXPECT_EQ(a.handovers, b.handovers) << label;
  EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms) << label;
  EXPECT_EQ(a.per_slot_reward, b.per_slot_reward) << label;
  EXPECT_EQ(a.completed_latencies_ms, b.completed_latencies_ms) << label;
  EXPECT_EQ(a.per_slot_utilization, b.per_slot_utilization) << label;
  EXPECT_EQ(a.service_ratios, b.service_ratios) << label;
  EXPECT_EQ(a.resilience.fault_epochs, b.resilience.fault_epochs) << label;
  EXPECT_EQ(a.resilience.displaced_outage, b.resilience.displaced_outage)
      << label;
  EXPECT_EQ(a.resilience.recovered, b.resilience.recovered) << label;
  EXPECT_EQ(a.resilience.mean_recovery_slots, b.resilience.mean_recovery_slots)
      << label;
  EXPECT_EQ(a.resilience.dropped_fault, b.resilience.dropped_fault) << label;
  EXPECT_EQ(a.resilience.fault_dropped_expected_reward,
            b.resilience.fault_dropped_expected_reward)
      << label;
}

/// Runs uninterrupted; then runs again with a snapshot captured at
/// `capture_slot` (under `capture_shards`), round-trips the snapshot
/// through the binary frame, and resumes a THIRD simulator (under
/// `resume_shards`) from the decoded copy. Both must match.
void expect_resume_identical(const exp::Instance& inst,
                             const OnlineParams& base, PolicyKind kind,
                             int capture_shards, int resume_shards,
                             int capture_slot, const char* label) {
  OnlineParams params = base;
  params.num_shards = capture_shards;

  OnlineSimulator full(inst.topo, inst.requests, inst.realized, params);
  auto full_policy = make_policy(kind, inst.topo);
  const OnlineMetrics uninterrupted = full.run(*full_policy);

  OnlineSimulator first(inst.topo, inst.requests, inst.realized, params);
  auto first_policy = make_policy(kind, inst.topo);
  CaptureHook hook(capture_slot);
  const OnlineMetrics first_metrics = first.run(*first_policy, &hook);
  expect_identical(uninterrupted, first_metrics, label);
  ASSERT_TRUE(hook.snap.has_value()) << label;
  EXPECT_EQ(hook.snap->next_slot, capture_slot) << label;

  // The resumed run sees only what a crashed process would: the snapshot
  // after a disk round trip, and a freshly constructed policy.
  util::SnapshotWriter w;
  save_sim_snapshot(w, *hook.snap);
  const std::vector<std::uint8_t> framed = w.finish(kMagic, kVersion);
  util::SnapshotReader r(framed, kMagic, kVersion);
  const SimSnapshot decoded = load_sim_snapshot(r);
  r.expect_end();

  params.num_shards = resume_shards;
  OnlineSimulator resumed(inst.topo, inst.requests, inst.realized, params);
  auto resumed_policy = make_policy(kind, inst.topo);
  const OnlineMetrics metrics = resumed.run(*resumed_policy, nullptr, &decoded);
  expect_identical(uninterrupted, metrics, label);
}

TEST(CheckpointResume, LegacyEngineUnderChaos) {
  const exp::Instance inst = busy_instance(11, 260);
  expect_resume_identical(inst, chaos_params(inst, 260), PolicyKind::kDynamicRr,
                          -1, -1, 115, "DynamicRR/legacy");
  expect_resume_identical(inst, chaos_params(inst, 260), PolicyKind::kGreedy,
                          -1, -1, 115, "Greedy/legacy");
}

TEST(CheckpointResume, ShardedEngineUnderChaos) {
  const exp::Instance inst = busy_instance(13, 260);
  expect_resume_identical(inst, chaos_params(inst, 260), PolicyKind::kDynamicRr,
                          5, 5, 115, "DynamicRR/sharded");
}

TEST(CheckpointResume, CrossEngineBothDirections) {
  const exp::Instance inst = busy_instance(17, 260);
  expect_resume_identical(inst, chaos_params(inst, 260), PolicyKind::kDynamicRr,
                          -1, 5, 115, "DynamicRR/legacy->sharded");
  expect_resume_identical(inst, chaos_params(inst, 260), PolicyKind::kDynamicRr,
                          5, -1, 115, "DynamicRR/sharded->legacy");
}

TEST(CheckpointResume, CaptureSlotBoundaries) {
  // Slot 0 (nothing has happened yet) and the final slot (everything
  // already happened) are the degenerate snapshots most likely to trip
  // off-by-ones in the restore path.
  const exp::Instance inst = busy_instance(19, 120);
  OnlineParams params;
  params.horizon_slots = 120;
  expect_resume_identical(inst, params, PolicyKind::kDynamicRr, -1, -1, 0,
                          "DynamicRR/slot0");
  expect_resume_identical(inst, params, PolicyKind::kDynamicRr, -1, -1, 119,
                          "DynamicRR/last-slot");
}

TEST(CheckpointResume, SnapshotRejectsMismatchedWorkload) {
  const exp::Instance inst = busy_instance(23, 80);
  OnlineParams params;
  params.horizon_slots = 80;
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  auto policy = make_policy(PolicyKind::kGreedy, inst.topo);
  CaptureHook hook(40);
  sim.run(*policy, &hook);
  ASSERT_TRUE(hook.snap.has_value());

  const exp::Instance other = busy_instance(23, 80);
  OnlineParams small = params;
  std::vector<mec::ARRequest> fewer(other.requests.begin(),
                                    other.requests.end() - 5);
  std::vector<std::size_t> fewer_realized(other.realized.begin(),
                                          other.realized.end() - 5);
  OnlineSimulator mismatched(other.topo, fewer, fewer_realized, small);
  auto fresh = make_policy(PolicyKind::kGreedy, other.topo);
  EXPECT_THROW(mismatched.run(*fresh, nullptr, &*hook.snap),
               std::invalid_argument);
}

TEST(CheckpointSerialization, SimSnapshotReencodesByteStable) {
  // encode -> decode -> encode must reproduce the exact payload: any
  // field the decoder normalizes or drops would diverge here and break
  // resumed-run determinism.
  const exp::Instance inst = busy_instance(29, 200);
  OnlineParams params = chaos_params(inst, 200);
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  auto policy = make_policy(PolicyKind::kDynamicRr, inst.topo);
  CaptureHook hook(95);
  sim.run(*policy, &hook);
  ASSERT_TRUE(hook.snap.has_value());

  util::SnapshotWriter first;
  save_sim_snapshot(first, *hook.snap);
  util::SnapshotReader r = util::SnapshotReader::unframed(first.payload());
  const SimSnapshot decoded = load_sim_snapshot(r);
  r.expect_end();
  util::SnapshotWriter second;
  save_sim_snapshot(second, decoded);
  EXPECT_EQ(first.payload(), second.payload());
}

/// TempDir() persists across test runs; start every store test from an
/// empty generation ledger.
void wipe_generations(CheckpointStore& store) {
  for (const std::string& path : store.generations()) {
    std::remove(path.c_str());
  }
}

TEST(CheckpointStore, GenerationsNewestFirstAndPrunedToTwo) {
  const std::string dir = ::testing::TempDir() + "ckpt_store_prune_test";
  CheckpointStore store(dir);
  wipe_generations(store);
  EXPECT_TRUE(store.generations().empty());

  util::SnapshotWriter w1;
  w1.u32(1);
  const std::string p1 = store.write(w1.finish(kMagic, kVersion));
  util::SnapshotWriter w2;
  w2.u32(2);
  const std::string p2 = store.write(w2.finish(kMagic, kVersion));
  util::SnapshotWriter w3;
  w3.u32(3);
  const std::string p3 = store.write(w3.finish(kMagic, kVersion));

  const std::vector<std::string> gens = store.generations();
  ASSERT_EQ(gens.size(), 2u);  // oldest generation pruned
  EXPECT_EQ(gens[0], p3);
  EXPECT_EQ(gens[1], p2);
  EXPECT_THROW(CheckpointStore::read_file(p1), std::runtime_error);

  const std::vector<std::uint8_t> newest = CheckpointStore::read_file(p3);
  util::SnapshotReader r(newest, kMagic, kVersion);
  EXPECT_EQ(r.u32(), 3u);
  r.expect_end();
}

TEST(CheckpointStore, CorruptedNewestFallsBackToPrevious) {
  // The resume ladder walks generations newest-first and drops to the
  // next on SnapshotParseError; emulate it against a truncated newest.
  const std::string dir = ::testing::TempDir() + "ckpt_store_fallback_test";
  CheckpointStore store(dir);
  wipe_generations(store);
  util::SnapshotWriter good;
  good.str("previous generation");
  store.write(good.finish(kMagic, kVersion));
  util::SnapshotWriter newest;
  newest.str("newest generation");
  std::vector<std::uint8_t> framed = newest.finish(kMagic, kVersion);
  framed.resize(framed.size() - 5);  // torn tail
  const std::string newest_path = store.write(framed);

  std::string recovered;
  std::size_t rejected_at = 0;
  for (const std::string& path : store.generations()) {
    try {
      const std::vector<std::uint8_t> bytes = CheckpointStore::read_file(path);
      util::SnapshotReader r(bytes, kMagic, kVersion);
      recovered = r.str();
      r.expect_end();
      break;
    } catch (const util::SnapshotParseError& e) {
      EXPECT_EQ(path, newest_path);
      rejected_at = e.offset();
    }
  }
  EXPECT_EQ(recovered, "previous generation");
  EXPECT_GT(rejected_at, 0u);  // structured offset, not a blind failure
}

TEST(CheckpointCrashInjection, DisarmedPointsAreInert) {
  // The armed variants SIGKILL the process, so a unit test can only pin
  // the negative space: disarmed crash points must do nothing even when a
  // scripted plan-crash flag is raised (the --resume semantics).
  disarm_crashes();
  crash_point(150, true);
  unit_crash_point(1000);
  SUCCEED();
}

}  // namespace
}  // namespace mecar::sim
