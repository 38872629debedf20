// Hierarchical control plane (DESIGN.md §12): tree geometry properties
// (heap layout over pid order, parent/children consistency, next-hop
// routing, team-covering fanouts are the star), the flat-is-baseline
// property (the unbounded default fanout sends zero tree segments; tree runs
// compute the same checksums while cutting master inbound control traffic),
// GC rounds routed through the tree over a sharded layout, the mixed edge
// (leaf children of the master stay plain beside an interior sibling), the
// star's envelopes pinned under every team-covering fanout, and a mid-run
// leave of an *interior* tree node whose children must be promoted by the
// rebuild — all over engine × fanout.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "dsm/system.hpp"
#include "dsm/topology/topology.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"

namespace anow::dsm {
namespace {

using topology::Topology;

// ---------------------------------------------------------------------------
// Geometry: heap layout over pid order
// ---------------------------------------------------------------------------

TEST(Topology, HeapLayoutOverPidOrderNotUidOrder) {
  // Uids deliberately not in pid order: the tree must follow positions in
  // `team` (pids), not uid values.
  const std::vector<Uid> team = {0, 5, 3, 1, 4, 2, 6};
  Topology topo;
  topo.rebuild(team, /*fanout=*/2);

  EXPECT_EQ(topo.parent_of(0), kNoUid);  // root
  EXPECT_EQ(topo.depth_of(0), 0);
  // parent of pid i is team[(i - 1) / 2].
  EXPECT_EQ(topo.children_of(0), (std::vector<Uid>{5, 3}));
  EXPECT_EQ(topo.children_of(5), (std::vector<Uid>{1, 4}));
  EXPECT_EQ(topo.children_of(3), (std::vector<Uid>{2, 6}));
  EXPECT_TRUE(topo.children_of(1).empty());
  EXPECT_EQ(topo.parent_of(4), 5);
  EXPECT_EQ(topo.depth_of(4), 2);
  // Routing: next hop from the root toward a grandchild is the child whose
  // subtree holds it; from an interior node toward its own child, the
  // child itself.
  EXPECT_EQ(topo.next_hop_toward(0, 6), 3);
  EXPECT_EQ(topo.next_hop_toward(0, 4), 5);
  EXPECT_EQ(topo.next_hop_toward(5, 1), 1);
}

TEST(Topology, NonMembersHaveNoGeometry) {
  Topology topo;
  topo.rebuild({0, 1, 2, 3, 4}, 2);
  EXPECT_FALSE(topo.is_member(9));
  EXPECT_EQ(topo.parent_of(9), kNoUid);
  EXPECT_TRUE(topo.children_of(9).empty());
  EXPECT_EQ(topo.depth_of(9), -1);
}

TEST(Topology, TeamCoveringFanoutsAreFlat) {
  // fanout >= team size - 1 (the unbounded default at any team size): every
  // slave is a root child with no children of its own — the star.
  const auto expect_star = [](const std::vector<Uid>& team, int fanout) {
    SCOPED_TRACE("n=" + std::to_string(team.size()) +
                 " fanout=" + fanout_name(fanout));
    Topology topo;
    topo.rebuild(team, fanout);
    EXPECT_EQ(topo.children_of(team[0]),
              std::vector<Uid>(team.begin() + 1, team.end()));
    for (std::size_t i = 1; i < team.size(); ++i) {
      EXPECT_EQ(topo.parent_of(team[i]), team[0]);
      EXPECT_TRUE(topo.children_of(team[i]).empty());
    }
  };
  expect_star({0, 1, 2, 3, 4, 5, 6, 7}, kUnboundedFanout);
  expect_star({0, 1, 2, 3}, 3);
  expect_star({0, 1, 2, 3}, 8);
  // One more member tips it over: pid 4 lands under pid 1.
  Topology topo;
  topo.rebuild({0, 1, 2, 3, 4}, 3);
  EXPECT_EQ(topo.parent_of(4), 1);
  EXPECT_EQ(topo.children_of(1), (std::vector<Uid>{4}));
}

TEST(Topology, FanoutBelowOneIsRejected) {
  for (const int fanout : {0, -1}) {
    sim::Cluster cluster({}, 2);
    DsmConfig cfg;
    cfg.heap_bytes = 1 << 20;
    cfg.fanout = fanout;
    EXPECT_THROW(DsmSystem(cluster, cfg), util::CheckError) << fanout;
  }
}

TEST(Topology, StructuralInvariantsAcrossSizesAndFanouts) {
  for (int n = 2; n <= 17; ++n) {
    std::vector<Uid> team(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) team[static_cast<std::size_t>(i)] = i;
    for (const int fanout : {1, 2, 3, 4, 8}) {
      Topology topo;
      topo.rebuild(team, fanout);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " fanout=" + std::to_string(fanout));
      std::size_t total_children = 0;
      int max_depth = 0;
      for (const Uid u : team) {
        max_depth = std::max(max_depth, topo.depth_of(u));
        const auto& kids = topo.children_of(u);
        total_children += kids.size();
        EXPECT_LE(static_cast<int>(kids.size()), fanout);
        for (const Uid c : kids) {
          // Parent/child tables agree, depths are consistent, and the
          // next hop from u toward anything in c's subtree is c.
          EXPECT_EQ(topo.parent_of(c), u);
          EXPECT_EQ(topo.depth_of(c), topo.depth_of(u) + 1);
          EXPECT_EQ(topo.next_hop_toward(u, c), c);
        }
        if (u != team[0]) {
          // Climbing parents from any member reaches the root, and the
          // root's next hop toward the member is the first-level ancestor
          // on that climb.
          Uid climb = u;
          while (topo.parent_of(climb) != team[0]) {
            climb = topo.parent_of(climb);
            ASSERT_NE(climb, kNoUid);
          }
          EXPECT_EQ(topo.next_hop_toward(team[0], u), climb);
        }
      }
      // Everyone but the root is somebody's child exactly once.
      EXPECT_EQ(total_children, static_cast<std::size_t>(n - 1));
      // The tree is the star exactly when the fanout covers the team.
      EXPECT_EQ(max_depth <= 1, n - 1 <= fanout);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end grid: a barrier-heavy workload under each engine, unbounded
// fanout (flat) vs tree.  Flat must not send one tree segment;
// tree must agree on
// the result, run the same number of barriers, and cut the master's
// inbound control traffic.
// ---------------------------------------------------------------------------

// The counters the star pin compares, in StarPin order; the pin's last
// entry is the master's virtual ns when its main returns.
constexpr const char* kStarCounters[] = {
    "net.messages",
    "net.bytes",
    "dsm.segments",
    "dsm.consistency_traffic_bytes",
    "dsm.ctrl.master_inbound",
    "dsm.ctrl.master_outbound",
    "dsm.seg.barrier_arrive.msgs",
    "dsm.seg.barrier_release.msgs",
    "dsm.seg.fork.msgs",
    "dsm.seg.gc_prepare.msgs",
    "dsm.seg.gc_ack.msgs",
    "dsm.seg.terminate.msgs",
};
constexpr std::size_t kNumStarCounters = std::size(kStarCounters);
using StarPin = std::array<std::int64_t, kNumStarCounters + 1>;

struct TopoOutcome {
  std::int64_t sum = 0;
  std::int64_t barriers = 0;
  std::int64_t gc_runs = 0;
  std::int64_t master_inbound = 0;
  std::int64_t tree_segments = 0;
  std::int64_t barrier_arrives = 0;
  std::int64_t tree_arrives = 0;
  std::int64_t gc_acks = 0;
  StarPin star{};
};

/// `base` supplies the knobs the arguments do not set (the ANOW_*
/// environment defaults unless a caller pins them).
TopoOutcome run_barrier_workload(EngineKind engine, int fanout,
                                 int dir_shards = 1,
                                 std::int64_t gc_threshold = 0,
                                 const Knobs& base = Knobs{}) {
  sim::Cluster cluster({}, 8);
  DsmConfig cfg;
  static_cast<Knobs&>(cfg) = base;
  cfg.heap_bytes = 1 << 20;
  cfg.engine = engine;
  cfg.dir_shards = dir_shards;
  cfg.fanout = fanout;
  if (gc_threshold > 0) cfg.gc_threshold_bytes = gc_threshold;
  DsmSystem sys(cluster, cfg);
  constexpr std::int64_t kWords = 8 * 512;  // 8 pages of int64
  constexpr int kIters = 10;
  struct Args {
    GAddr addr;
    std::int64_t iter;
  };
  auto task = sys.register_task(
      "stripe", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        // Rotate the stripe each iteration so every process keeps
        // faulting pages home-flushed by somebody else.
        const std::int64_t stripe =
            (p.pid() + args.iter) % p.nprocs();
        const std::int64_t per = kWords / p.nprocs();
        const GAddr lo = args.addr + stripe * per * 8;
        p.write_range(lo, per * 8);
        auto* d = p.ptr<std::int64_t>(lo);
        for (std::int64_t i = 0; i < per; ++i) d[i] += args.iter + 1;
        p.barrier(1);
      });
  TopoOutcome out;
  sys.start(8);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kWords * 8);
    for (int it = 0; it < kIters; ++it) {
      Args args{addr, it};
      std::vector<std::uint8_t> packed(sizeof(args));
      std::memcpy(packed.data(), &args, sizeof(args));
      sys.run_parallel(task, packed);
    }
    master.read_range(addr, kWords * 8);
    const auto* d = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < kWords; ++i) out.sum += d[i];
    out.star[kNumStarCounters] = master.now();
  });
  const auto& stats = sys.stats();
  out.barriers = stats.counter_value("dsm.barriers");
  out.gc_runs = stats.counter_value("dsm.gc_runs");
  out.master_inbound = stats.counter_value("dsm.ctrl.master_inbound");
  out.tree_segments = stats.counter_value("dsm.seg.tree_arrive.msgs") +
                      stats.counter_value("dsm.seg.tree_ack.msgs") +
                      stats.counter_value("dsm.seg.tree_multicast.msgs");
  out.barrier_arrives = stats.counter_value("dsm.seg.barrier_arrive.msgs");
  out.tree_arrives = stats.counter_value("dsm.seg.tree_arrive.msgs");
  out.gc_acks = stats.counter_value("dsm.seg.gc_ack.msgs");
  for (std::size_t i = 0; i < kNumStarCounters; ++i) {
    out.star[i] = stats.counter_value(kStarCounters[i]);
  }
  return out;
}

class TopologyGridTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(TopologyGridTest, FlatIsQuietAndTreeMatchesWithLessMasterInbound) {
  const EngineKind engine = GetParam();
  const TopoOutcome flat = run_barrier_workload(engine, kUnboundedFanout);
  for (const int fanout : {2, 4}) {
    SCOPED_TRACE("fanout=" + std::to_string(fanout));
    const TopoOutcome tree = run_barrier_workload(engine, fanout);

    // Unbounded fanout: not one tree segment on the wire.
    EXPECT_EQ(flat.tree_segments, 0);

    // Same answer, same barrier count, through the tree.
    EXPECT_EQ(tree.sum, flat.sum);
    EXPECT_EQ(tree.barriers, flat.barriers);
    EXPECT_GT(tree.tree_segments, 0);

    // The point of the subsystem: 8 procs flat costs ~7 inbound control
    // messages per collective; fanout K costs ~K (the root's children).
    EXPECT_LT(tree.master_inbound, flat.master_inbound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopologyGridTest,
    ::testing::Values(EngineKind::kLrc, EngineKind::kHomeLrc),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(enum_name(info.param));
    });

// ---------------------------------------------------------------------------
// GC through the tree: barrier-GC rounds (GcPrepares multicast down, GcAcks
// merged into TreeAck) over a sharded layout must fire and agree with flat.
// ---------------------------------------------------------------------------

class TopologyGcTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(TopologyGcTest, BarrierGcRoundsAgreeAcrossTopologies) {
  const EngineKind engine = GetParam();
  const TopoOutcome flat =
      run_barrier_workload(engine, kUnboundedFanout, /*dir_shards=*/4,
                           /*gc_threshold=*/32 << 10);
  const TopoOutcome tree =
      run_barrier_workload(engine, /*fanout=*/2, /*dir_shards=*/4,
                           /*gc_threshold=*/32 << 10);
  EXPECT_GE(flat.gc_runs, 1) << "threshold too high to exercise GC";
  EXPECT_EQ(tree.gc_runs, flat.gc_runs);
  EXPECT_EQ(tree.sum, flat.sum);
  EXPECT_GT(tree.tree_segments, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopologyGcTest,
    ::testing::Values(EngineKind::kLrc, EngineKind::kHomeLrc),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(enum_name(info.param));
    });

// ---------------------------------------------------------------------------
// The mixed edge: 8 procs at fanout 4 make uid 1 an interior node (children
// 5, 6, 7) and uids 2, 3, 4 leaf children of the master.  The leaves talk to
// the master in plain segments, exactly as under the star; only uid 1's
// subtree combines.  Per barrier that is four BarrierArrives (three leaves
// plus the master's self-send) and four TreeArrives (5, 6, 7 into uid 1,
// then uid 1 into the master); per barrier GC, four GcAcks.
// ---------------------------------------------------------------------------

class TopologyMixedEdgeTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(TopologyMixedEdgeTest, LeafChildrenOfTheMasterStayPlain) {
  const EngineKind engine = GetParam();
  const TopoOutcome flat = run_barrier_workload(engine, kUnboundedFanout);
  const TopoOutcome mixed = run_barrier_workload(engine, /*fanout=*/4);
  EXPECT_EQ(mixed.sum, flat.sum);
  EXPECT_EQ(mixed.barriers, flat.barriers);
  EXPECT_EQ(mixed.barrier_arrives, 4 * mixed.barriers);
  EXPECT_EQ(mixed.tree_arrives, 4 * mixed.barriers);

  const TopoOutcome flat_gc =
      run_barrier_workload(engine, kUnboundedFanout, /*dir_shards=*/4,
                           /*gc_threshold=*/32 << 10);
  const TopoOutcome mixed_gc =
      run_barrier_workload(engine, /*fanout=*/4, /*dir_shards=*/4,
                           /*gc_threshold=*/32 << 10);
  EXPECT_GE(mixed_gc.gc_runs, 1);
  EXPECT_EQ(mixed_gc.sum, flat_gc.sum);
  EXPECT_EQ(mixed_gc.gc_acks, 4 * mixed_gc.gc_runs);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopologyMixedEdgeTest,
    ::testing::Values(EngineKind::kLrc, EngineKind::kHomeLrc),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(enum_name(info.param));
    });

// ---------------------------------------------------------------------------
// The star, pinned.  Under a fanout covering the team every slave is a leaf
// child of the master, and the degenerate tree must exchange exactly the
// envelopes of the master-centric star: the values below were recorded
// from the star's own code path (before it was expressed as the degenerate
// tree) under the built-in knob defaults; the sharded lrc row and the
// join/leave run below were re-recorded once the master stopped querying
// shard holders for owners (DESIGN.md §8); both home rows and the
// join/leave run again once a range's stale full-copy refetches shared one
// request envelope per source (DESIGN.md §7): the master's closing read
// finds 7 of its 8 pages stale.  Fanout n - 1 = 7 and any
// larger fanout must reproduce them too.
// ---------------------------------------------------------------------------

struct StarCase {
  EngineKind engine;
  int dir_shards;
  std::int64_t gc_threshold;
  StarPin pin;
};

const StarCase kStarCases[] = {
    // clang-format off
    {EngineKind::kLrc, 1, 0,
     {733, 1002856, 803, 897808, 180, 257, 160,
      160, 70, 0, 0, 7, 48977550}},
    {EngineKind::kLrc, 4, 32 << 10,
     {533, 458064, 603, 332344, 189, 266, 160,
      160, 70, 8, 8, 7, 26841298}},
    {EngineKind::kHomeLrc, 1, 0,
     {639, 684604, 719, 522564, 198, 275, 160,
      160, 70, 16, 16, 7, 36453044}},
    {EngineKind::kHomeLrc, 4, 32 << 10,
     {625, 658376, 706, 510096, 198, 275, 160,
      160, 70, 16, 16, 7, 34774735}},
    // clang-format on
};

TEST(TopologyStarPin, TeamCoveringFanoutsSendTheStarsEnvelopes) {
  for (const StarCase& c : kStarCases) {
    for (const int fanout : {kUnboundedFanout, 7, 1000}) {
      SCOPED_TRACE(std::string(enum_name(c.engine)) +
                   " dir_shards=" + std::to_string(c.dir_shards) +
                   " fanout=" + fanout_name(fanout));
      const TopoOutcome out =
          run_barrier_workload(c.engine, fanout, c.dir_shards,
                               c.gc_threshold, Knobs::builtin());
      for (std::size_t i = 0; i < kNumStarCounters; ++i) {
        EXPECT_EQ(out.star[i], c.pin[i]) << kStarCounters[i];
      }
      EXPECT_EQ(out.star[kNumStarCounters], c.pin[kNumStarCounters])
          << "master virtual ns";
      EXPECT_EQ(out.tree_segments, 0);
    }
  }
}

TEST(TopologyStarPin, JoinLeaveRunUnderCoveringFanouts) {
  for (const int fanout : {kUnboundedFanout, 7, 1000}) {
    SCOPED_TRACE("fanout=" + fanout_name(fanout));
    harness::RunConfig cfg;
    static_cast<Knobs&>(cfg) = Knobs::builtin();
    cfg.app = "jacobi";
    cfg.size = apps::Size::kTest;
    cfg.nprocs = 6;
    cfg.engine = EngineKind::kHomeLrc;
    cfg.dir_shards = 4;
    cfg.fanout = fanout;
    cfg.adaptive = false;
    const harness::RunResult baseline = harness::run_workload(cfg);
    EXPECT_EQ(baseline.seconds, 0.026673161);

    cfg.adaptive = true;
    cfg.spare_hosts = 1;
    cfg.events = harness::alternating_leave_join(
        sim::from_seconds(baseline.seconds * 0.25),
        sim::from_seconds(baseline.seconds * 0.2), /*leave_host=*/1,
        /*pairs=*/1);
    const harness::RunResult run = harness::run_workload(cfg);
    EXPECT_GE(run.leaves, 1);
    EXPECT_EQ(run.seconds, 0.198201505);
    EXPECT_EQ(run.messages, 507);
    EXPECT_EQ(run.bytes, 767168);
    EXPECT_EQ(run.checksum, 116.263671875);
  }
}

// ---------------------------------------------------------------------------
// Interior-node leave: with 6 procs at fanout 2, host 1 carries uid 1 —
// an interior node with two children (uids 3, 4).  Expelling it mid-run
// must promote the orphaned subtree via the rebuild (children reattach
// under the compacted pid order) and keep the flat baseline's checksum;
// the re-join then grows the tree back.  Regression test for the
// departing-interior-node promotion path.
// ---------------------------------------------------------------------------

class TopologyInteriorLeaveTest
    : public ::testing::TestWithParam<EngineKind> {};

TEST_P(TopologyInteriorLeaveTest, InteriorLeaveJoinKeepsFlatChecksums) {
  const EngineKind engine = GetParam();

  harness::RunConfig cfg;
  cfg.app = "jacobi";
  cfg.size = apps::Size::kTest;
  cfg.nprocs = 6;
  cfg.engine = engine;
  cfg.dir_shards = 4;
  cfg.fanout = kUnboundedFanout;
  cfg.adaptive = false;
  const harness::RunResult baseline = harness::run_workload(cfg);

  cfg.fanout = 2;
  cfg.adaptive = true;
  cfg.spare_hosts = 1;
  cfg.events = harness::alternating_leave_join(
      sim::from_seconds(baseline.seconds * 0.25),
      sim::from_seconds(baseline.seconds * 0.2), /*leave_host=*/1,
      /*pairs=*/1);
  const harness::RunResult adapted = harness::run_workload(cfg);

  EXPECT_EQ(adapted.checksum, baseline.checksum);
  // The short kTest run can end before the re-join's grace expires; the
  // leave — the interior-promotion path under test — must land.
  EXPECT_GE(adapted.leaves, 1);
  EXPECT_GT(adapted.stats.counter("dsm.seg.tree_arrive.msgs"), 0);
  // Flat baseline never sent a tree segment.
  EXPECT_EQ(baseline.stats.counter("dsm.seg.tree_arrive.msgs") +
                baseline.stats.counter("dsm.seg.tree_ack.msgs") +
                baseline.stats.counter("dsm.seg.tree_multicast.msgs"),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopologyInteriorLeaveTest,
    ::testing::Values(EngineKind::kLrc, EngineKind::kHomeLrc),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(enum_name(info.param));
    });

}  // namespace
}  // namespace anow::dsm
