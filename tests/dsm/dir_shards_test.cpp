// Sharded initial distribution (DESIGN.md §8): shard-map geometry
// properties, the dir-shards=1 baseline (deterministic, and every shard
// count computes the same answer while sharding sheds master-inbound owner
// lookups), GC rounds under a sharded layout, and leave/join adaptation
// races — a departing shard holder leaves while the leave protocol re-owns
// its pages — under engine × shard-count.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "dsm/protocol/dir_shards.hpp"
#include "dsm/system.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace anow::dsm {
namespace {

// ---------------------------------------------------------------------------
// ShardMap geometry
// ---------------------------------------------------------------------------

TEST(ShardMap, PartitionIsComplete) {
  util::Rng rng(20260728);
  for (int round = 0; round < 50; ++round) {
    const PageId pages = static_cast<PageId>(1 + rng.next_below(2000));
    const int shards = static_cast<int>(1 + rng.next_below(9));
    const PageId block = static_cast<PageId>(1 + rng.next_below(5));
    const protocol::ShardMap map(pages, shards, block);

    // Every page maps to exactly one shard.
    std::vector<PageId> seen_per_shard(static_cast<std::size_t>(shards), 0);
    for (PageId p = 0; p < pages; ++p) {
      const int s = map.shard_of(p);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, shards);
      ++seen_per_shard[static_cast<std::size_t>(s)];
    }
    PageId total = 0;
    for (int s = 0; s < shards; ++s) {
      // for_each_page visits exactly the shard's pages, ascending.
      PageId last = -1;
      PageId count = 0;
      map.for_each_page(s, [&](PageId p) {
        ASSERT_GT(p, last);
        ASSERT_EQ(map.shard_of(p), s);
        last = p;
        ++count;
      });
      ASSERT_EQ(count, seen_per_shard[static_cast<std::size_t>(s)]);
      total += count;
    }
    ASSERT_EQ(total, pages);
  }
}

TEST(ShardMap, ShardCountBelowOneIsRejected) {
  for (const int shards : {0, -2}) {
    sim::Cluster cluster({}, 2);
    DsmConfig cfg;
    cfg.heap_bytes = 1 << 20;
    cfg.dir_shards = shards;
    EXPECT_THROW(DsmSystem(cluster, cfg), util::CheckError) << shards;
  }
}

TEST(ShardMap, SingleShardMapsEverythingToTheMaster) {
  const protocol::ShardMap map(777, 1);
  for (PageId p = 0; p < 777; p += 31) {
    EXPECT_EQ(map.shard_of(p), 0);
    EXPECT_EQ(map.default_holder_of_page(p), kMasterUid);
  }
  EXPECT_FALSE(map.sharded());
}

// ---------------------------------------------------------------------------
// End-to-end: (engine, shards) grid over one interleaved
// read/write workload with the GC forced by a small threshold.
// ---------------------------------------------------------------------------

struct GridOutcome {
  std::int64_t sum = 0;
  std::int64_t messages = 0;
  std::int64_t lookups_master = 0;
  std::int64_t gc_runs = 0;
};

GridOutcome run_grid_workload(EngineKind engine, int shards) {
  sim::Cluster cluster({}, 4);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;  // 256 pages
  cfg.engine = engine;
  cfg.dir_shards = shards;
  cfg.gc_threshold_bytes = 64 << 10;  // force GC rounds mid-run
  DsmSystem sys(cluster, cfg);
  constexpr std::int64_t kN = 16 * 512;  // 16 pages of int64
  struct Args {
    GAddr addr;
  };
  auto task = sys.register_task(
      "mix", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        p.read_range(args.addr, kN * 8);
        p.write_range(args.addr, kN * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = p.pid(); i < kN; i += p.nprocs()) {
          data[i] += i + 1;
        }
        p.barrier(1);
        p.read_range(args.addr, kN * 8);
      });
  GridOutcome out;
  sys.start(4);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kN * 8);
    Args args{addr};
    std::vector<std::uint8_t> packed(sizeof(args));
    std::memcpy(packed.data(), &args, sizeof(args));
    for (int round = 0; round < 4; ++round) {
      sys.run_parallel(task, packed);
    }
    master.read_range(addr, kN * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < kN; ++i) out.sum += data[i];
  });
  const auto& stats = sys.stats();
  out.messages = stats.counter_value("net.messages");
  out.lookups_master =
      stats.counter_value("dsm.owner_lookups.master_inbound");
  out.gc_runs = stats.counter_value("dsm.gc_runs");
  return out;
}

class DirShardsGridTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  EngineKind engine() const { return GetParam(); }
};

TEST_P(DirShardsGridTest, ShardCountsAgreeAndShardsOneIsBaseline) {
  const GridOutcome one = run_grid_workload(engine(), 1);
  const GridOutcome rerun = run_grid_workload(engine(), 1);
  const GridOutcome three = run_grid_workload(engine(), 3);
  const GridOutcome four = run_grid_workload(engine(), 4);

  // dir-shards=1 is the unsharded baseline: deterministic.
  EXPECT_EQ(one.sum, rerun.sum);
  EXPECT_EQ(one.messages, rerun.messages);

  // Every shard count computes the same answer.
  EXPECT_EQ(one.sum, three.sum);
  EXPECT_EQ(one.sum, four.sum);

  // Sharding the initial distribution sheds master-inbound owner-lookup
  // load.  The home engine's first-touch assignment converges to the same
  // writer-homed steady state either way (and with shards > 1 the master
  // is a legitimate home assignee), so only non-increase is guaranteed
  // there; under LRC the first-touch fetches go to the holders, so the
  // drop is strict.
  if (engine() == EngineKind::kLrc) {
    EXPECT_LT(four.lookups_master, one.lookups_master);
  } else {
    EXPECT_LE(four.lookups_master, one.lookups_master);
  }

  // The forced GCs ran everywhere.
  EXPECT_GT(one.gc_runs, 0);
  EXPECT_GT(four.gc_runs, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, DirShardsGridTest,
    ::testing::Values(EngineKind::kLrc, EngineKind::kHomeLrc),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(enum_name(info.param));
    });

// ---------------------------------------------------------------------------
// Leave/join + GC-commit races: a shard holder leaves and a process joins
// (page map read from the master's owner map), with a GC at every
// adaptation point.
// ---------------------------------------------------------------------------

using AdaptParam = std::tuple<EngineKind, int>;

class DirShardsAdaptTest : public ::testing::TestWithParam<AdaptParam> {};

TEST_P(DirShardsAdaptTest, HolderLeaveAndJoinKeepResultsIntact) {
  const auto [engine, shards] = GetParam();

  harness::RunConfig cfg;
  cfg.app = "jacobi";
  cfg.size = apps::Size::kTest;
  cfg.nprocs = 4;
  cfg.engine = engine;
  cfg.dir_shards = shards;
  cfg.adaptive = false;
  const harness::RunResult baseline = harness::run_workload(cfg);

  // Host 1 carries uid 1 — a shard holder whenever shards > 1 — so the
  // leave re-owns a holder's seeded pages; the re-join exercises the page
  // map at adoption.  gc_before_adapt (default) runs the two-phase GC
  // round at the same adaptation points.
  cfg.adaptive = true;
  cfg.spare_hosts = 1;
  cfg.events = harness::alternating_leave_join(
      sim::from_seconds(baseline.seconds * 0.25),
      sim::from_seconds(baseline.seconds * 0.2), /*leave_host=*/1,
      /*pairs=*/1);
  const harness::RunResult adapted = harness::run_workload(cfg);

  EXPECT_EQ(adapted.checksum, baseline.checksum);
  EXPECT_GE(adapted.leaves, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DirShardsAdaptTest,
    ::testing::Combine(::testing::Values(EngineKind::kLrc,
                                         EngineKind::kHomeLrc),
                       ::testing::Values(1, 3, 4)),
    [](const ::testing::TestParamInfo<AdaptParam>& info) {
      return std::string(enum_name(std::get<0>(info.param))) + "_shards" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace anow::dsm
