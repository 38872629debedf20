// Adaptive placement subsystem (DESIGN.md §9): AccessMonitor window/streak
// hysteresis, PlacementPolicy decision properties, the static-is-baseline
// property (--placement static emits zero placement segments and zero
// moves; adaptive runs compute the same checksums, and under lrc are the
// static run), the home-migration win on a rotating-dominant-writer
// workload, and migration racing leave/join adaptation points — all over
// engine × dir-shards × placement.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "apps/hotspot.hpp"
#include "dsm/placement/access_monitor.hpp"
#include "dsm/placement/policy.hpp"
#include "dsm/system.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/cluster.hpp"
#include "util/stats.hpp"

namespace anow::dsm {
namespace {

using placement::AccessMonitor;
using placement::PlacementPolicy;

// ---------------------------------------------------------------------------
// AccessMonitor: window folding + streak hysteresis
// ---------------------------------------------------------------------------

TEST(AccessMonitor, SoleWriterBuildsStreakAndMixedWindowResetsIt) {
  AccessMonitor mon;
  mon.attach(8);
  for (int w = 0; w < 3; ++w) {
    mon.record_write(3, 2);
    mon.record_write(3, 2);
    mon.end_window();
    EXPECT_EQ(mon.page(3).streak_writer, 2);
    EXPECT_EQ(mon.page(3).streak, w + 1);
    EXPECT_TRUE(mon.page(3).fresh);
  }
  // A concurrent second writer kills the streak outright.
  mon.record_write(3, 2);
  mon.record_write(3, 1);
  mon.end_window();
  EXPECT_EQ(mon.page(3).streak, 0);
  EXPECT_FALSE(mon.page(3).fresh);
  // An idle window neither extends nor resets (idleness is not evidence),
  // and a new sole writer restarts at 1.
  mon.record_write(3, 1);
  mon.end_window();
  EXPECT_EQ(mon.page(3).streak_writer, 1);
  EXPECT_EQ(mon.page(3).streak, 1);
}

// ---------------------------------------------------------------------------
// PlacementPolicy: hysteresis-gated home moves
// ---------------------------------------------------------------------------

TEST(PlacementPolicy, ReHomesOnlyEstablishedPagesAfterHysteresis) {
  static_assert(PlacementPolicy::kHysteresis == 2);
  protocol::ShardMap map(16, 1);
  AccessMonitor mon;
  mon.attach(16);
  PlacementPolicy policy;
  policy.configure(map);
  const std::vector<Uid> team = {0, 1, 2};

  // Page 3 established at uid 1 (first touch happened long ago); page 5
  // still at its default (the master) — first-touch territory.
  policy.note_owner_delta({{3, 1}});

  mon.record_write(3, 2);
  mon.record_write(5, 2);
  mon.end_window();
  // One qualifying window < hysteresis: nothing moves.
  EXPECT_TRUE(policy.decide(mon, team).empty());

  mon.record_write(3, 2);
  mon.record_write(5, 2);
  mon.end_window();
  const OwnerDelta moves = policy.decide(mon, team);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0], (std::pair<PageId, Uid>{3, 2}));
  // Only a team member can take a home.
  EXPECT_TRUE(policy.decide(mon, {0, 1}).empty());
}

// ---------------------------------------------------------------------------
// End-to-end grid: rotating dominant writer under engine × dir-shards ×
// placement.  Static must be byte-quiet (zero placement
// segments/moves); adaptive must agree on the result and, under the home
// engine, convert its moves into a consistency-traffic win.
// ---------------------------------------------------------------------------

struct RotOutcome {
  std::int64_t sum = 0;
  double seconds = 0.0;  // virtual runtime
  util::StatsRegistry::Snapshot stats;
  std::int64_t consistency_bytes = 0;
  std::int64_t placement_segments = 0;
  std::int64_t home_moves = 0;
  std::int64_t decisions = 0;
};

RotOutcome run_rotating_workload(EngineKind engine, int shards,
                                 PlacementMode placement) {
  sim::Cluster cluster({}, 4);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.engine = engine;
  cfg.dir_shards = shards;
  cfg.placement = placement;
  DsmSystem sys(cluster, cfg);
  constexpr std::int64_t kBlocks = 8;
  constexpr std::int64_t kBlockWords = 2 * 512;  // 2 pages of int64
  constexpr int kIters = 18;
  constexpr int kRotate = 6;
  struct Args {
    GAddr addr;
    std::int64_t iter;
  };
  auto task = sys.register_task(
      "rotate", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        for (std::int64_t b = 0; b < kBlocks; ++b) {
          if ((b + args.iter / kRotate) % p.nprocs() != p.pid()) continue;
          const GAddr lo = args.addr + b * kBlockWords * 8;
          p.write_range(lo, kBlockWords * 8);
          auto* d = p.ptr<std::int64_t>(lo);
          for (std::int64_t i = 0; i < kBlockWords; ++i) {
            d[i] += args.iter + 1;
          }
        }
        p.barrier(1);
      });
  RotOutcome out;
  sys.start(4);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kBlocks * kBlockWords * 8);
    for (int it = 0; it < kIters; ++it) {
      Args args{addr, it};
      std::vector<std::uint8_t> packed(sizeof(args));
      std::memcpy(packed.data(), &args, sizeof(args));
      sys.run_parallel(task, packed);
    }
    master.read_range(addr, kBlocks * kBlockWords * 8);
    const auto* d = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < kBlocks * kBlockWords; ++i) out.sum += d[i];
    out.seconds = sim::to_seconds(master.now());
  });
  out.stats = sys.stats().snapshot();
  out.consistency_bytes = out.stats.counter("dsm.consistency_traffic_bytes");
  out.placement_segments = out.stats.counter("dsm.seg.home_move.msgs");
  out.home_moves = out.stats.counter("dsm.placement.home_moves");
  out.decisions = out.stats.counter("dsm.placement.decisions");
  return out;
}

using GridParam = std::tuple<EngineKind, int>;

class PlacementGridTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(PlacementGridTest, StaticIsQuietAndAdaptiveMatchesItsResults) {
  const auto [engine, shards] = GetParam();
  const RotOutcome st =
      run_rotating_workload(engine, shards, PlacementMode::kStatic);
  const RotOutcome ad =
      run_rotating_workload(engine, shards, PlacementMode::kAdaptive);

  // --placement static: not one placement segment, move, or decision.
  EXPECT_EQ(st.placement_segments, 0);
  EXPECT_EQ(st.home_moves, 0);
  EXPECT_EQ(st.decisions, 0);

  // Same answer either way.
  EXPECT_EQ(ad.sum, st.sum);

  if (engine == EngineKind::kHomeLrc) {
    // The rotating dominant writer must trigger re-homes, and the moves
    // must pay off as less consistency traffic than the frozen homes.
    EXPECT_GT(ad.home_moves, 0);
    EXPECT_LT(ad.consistency_bytes, st.consistency_bytes);
  } else {
    // LRC owners already follow last writers, so adaptive placement runs
    // the static path: the same virtual time and every counter equal.
    EXPECT_EQ(ad.seconds, st.seconds);
    EXPECT_EQ(ad.stats.counters, st.stats.counters);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlacementGridTest,
    ::testing::Combine(::testing::Values(EngineKind::kLrc,
                                         EngineKind::kHomeLrc),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::string(enum_name(std::get<0>(info.param))) + "_shards" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Migration racing leave/join: a shard holder leaves while a joiner is
// adopted, with a GC at every adaptation point.  Checksums must match the
// static baseline over the whole grid.
// ---------------------------------------------------------------------------

using AdaptParam = std::tuple<EngineKind, int, PlacementMode>;

class PlacementAdaptTest : public ::testing::TestWithParam<AdaptParam> {};

TEST_P(PlacementAdaptTest, LeaveJoinRacesKeepStaticChecksums) {
  const auto [engine, shards, placement] = GetParam();

  harness::RunConfig cfg;
  cfg.app = "jacobi";
  cfg.size = apps::Size::kTest;
  cfg.nprocs = 4;
  cfg.engine = engine;
  cfg.dir_shards = shards;
  cfg.placement = PlacementMode::kStatic;
  cfg.adaptive = false;
  const harness::RunResult baseline = harness::run_workload(cfg);

  // Host 1 carries uid 1 — a shard holder whenever shards > 1.
  cfg.placement = placement;
  cfg.adaptive = true;
  cfg.spare_hosts = 1;
  cfg.events = harness::alternating_leave_join(
      sim::from_seconds(baseline.seconds * 0.25),
      sim::from_seconds(baseline.seconds * 0.2), /*leave_host=*/1,
      /*pairs=*/1);
  const harness::RunResult adapted = harness::run_workload(cfg);

  EXPECT_EQ(adapted.checksum, baseline.checksum);
  EXPECT_GE(adapted.leaves, 1);
  if (placement == PlacementMode::kStatic) {
    EXPECT_EQ(adapted.stats.counter("dsm.seg.home_move.msgs"), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlacementAdaptTest,
    ::testing::Combine(::testing::Values(EngineKind::kLrc,
                                         EngineKind::kHomeLrc),
                       ::testing::Values(1, 4),
                       ::testing::Values(PlacementMode::kStatic,
                                         PlacementMode::kAdaptive)),
    [](const ::testing::TestParamInfo<AdaptParam>& info) {
      return std::string(enum_name(std::get<0>(info.param))) + "_shards" +
             std::to_string(std::get<1>(info.param)) + "_" +
             enum_name(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// The hotspot workload itself: rotation math + closed-form checksum.
// ---------------------------------------------------------------------------

TEST(HotspotWorkload, ChecksumMatchesClosedFormAcrossPlacements) {
  for (const auto placement :
       {PlacementMode::kStatic, PlacementMode::kAdaptive}) {
    harness::RunConfig cfg;
    cfg.app = "hotspot";
    cfg.size = apps::Size::kTest;
    cfg.nprocs = 4;
    cfg.engine = EngineKind::kHomeLrc;
    cfg.placement = placement;
    cfg.adaptive = false;
    const auto run = harness::run_workload(cfg);
    EXPECT_DOUBLE_EQ(run.checksum,
                     apps::Hotspot::expected_checksum(
                         apps::Hotspot::Params::preset(apps::Size::kTest)));
  }
}

}  // namespace
}  // namespace anow::dsm
