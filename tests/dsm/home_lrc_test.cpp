// Home-based LRC specifics: first-touch home assignment (sole writer and
// concurrent-writer round-robin), the local flush short-circuit at the
// home, concurrent multi-writer flushes into one home, the zero-archive
// acceptance property, and home behavior across a process leave under both
// pid-reassignment strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/adapt.hpp"
#include "dsm/system.hpp"
#include "sim/cost_model.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"

namespace anow::dsm {
namespace {

DsmConfig home_config() {
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;  // 256 pages
  cfg.engine = EngineKind::kHomeLrc;
  return cfg;
}

struct ArrayArgs {
  GAddr addr;
  std::int64_t count;
};

template <typename T>
std::vector<std::uint8_t> pack(const T& value) {
  std::vector<std::uint8_t> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

template <typename T>
T unpack(const std::vector<std::uint8_t>& bytes) {
  T value;
  ANOW_CHECK(bytes.size() == sizeof(T));
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}

void expect_no_archived_diffs(DsmSystem& sys) {
  for (Uid uid : sys.team()) {
    EXPECT_EQ(sys.process(uid).engine().archived_diff_bytes(), 0)
        << "uid " << uid;
  }
}

// ---------------------------------------------------------------------------

TEST(HomeLrc, FirstTouchMakesWriterHomeAndShortCircuitsFlushes) {
  // Page-aligned disjoint slices: every written page has a sole first
  // writer, so first-touch moves it home to that writer and every later
  // release flushes nothing (the local short-circuit).
  constexpr int kProcs = 4;
  sim::Cluster cluster({}, kProcs);
  DsmSystem sys(cluster, home_config());

  constexpr std::int64_t kWordsPerProc = 4 * 512;  // 4 pages of int64 each
  constexpr std::int64_t kN = kProcs * kWordsPerProc;
  auto task = sys.register_task(
      "fill", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        const std::int64_t lo = p.pid() * kWordsPerProc;
        p.write_range(args.addr + lo * 8, kWordsPerProc * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < lo + kWordsPerProc; ++i) data[i] += i;
      });

  sys.start(kProcs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kN * 8);
    sys.run_parallel(task, pack(ArrayArgs{addr, kN}));
    expect_no_archived_diffs(sys);

    // First touch: slave k's slice is homed at slave k now (the master's
    // slice never left home).
    for (int pid = 0; pid < kProcs; ++pid) {
      const Uid owner_uid = sys.uid_of_pid(pid);
      for (std::int64_t pg = 0; pg < 4; ++pg) {
        const PageId page =
            page_of(addr + static_cast<GAddr>(pid) * kWordsPerProc * 8) + pg;
        EXPECT_EQ(sys.owner_by_page()[page], owner_uid) << "page " << page;
      }
    }

    // Steady state: every writer is its pages' home, so further rounds add
    // no flush messages at all.
    const std::int64_t flushes_after_assignment =
        sys.stats().counter_value("dsm.home_flushes");
    for (int round = 0; round < 3; ++round) {
      sys.run_parallel(task, pack(ArrayArgs{addr, kN}));
      expect_no_archived_diffs(sys);
    }
    EXPECT_EQ(sys.stats().counter_value("dsm.home_flushes"),
              flushes_after_assignment);

    master.read_range(addr, kN * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(data[i], 4 * i) << "at index " << i;
    }
  });
  EXPECT_EQ(sys.stats().counter_value("dsm.diff_fetches"), 0);
}

TEST(HomeLrc, ConcurrentMultiWriterFlushesMergeAtOneHome) {
  // Every process writes interleaved words of the SAME pages: concurrent
  // first writers are broken round-robin, and from then on all non-home
  // writers flush their word diffs into that one home every round.
  constexpr int kProcs = 4;
  sim::Cluster cluster({}, kProcs);
  DsmSystem sys(cluster, home_config());

  constexpr std::int64_t kN = 2048;  // 4 pages of int64
  auto task = sys.register_task(
      "interleave", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        p.write_range(args.addr, args.count * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = p.pid(); i < args.count; i += p.nprocs()) {
          data[i] += 1000 + i;
        }
      });

  sys.start(kProcs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kN * 8);
    constexpr int kRounds = 4;
    for (int round = 0; round < kRounds; ++round) {
      sys.run_parallel(task, pack(ArrayArgs{addr, kN}));
      expect_no_archived_diffs(sys);
    }

    // The round-robin fallback spread the four contended pages over more
    // than one home.
    std::set<Uid> homes;
    for (PageId pg = page_of(addr); pg < page_of(addr) + 4; ++pg) {
      homes.insert(sys.owner_by_page()[pg]);
    }
    EXPECT_GT(homes.size(), 1u);

    master.read_range(addr, kN * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(data[i], kRounds * (1000 + i)) << "at index " << i;
    }
  });
  // Non-home writers flushed into the homes every round; nobody ever
  // fetched a diff.
  EXPECT_GT(sys.stats().counter_value("dsm.home_flushes"), 0);
  EXPECT_GT(sys.stats().counter_value("dsm.home_flush_diffs_applied"), 0);
  EXPECT_EQ(sys.stats().counter_value("dsm.diff_fetches"), 0);
}

// ---------------------------------------------------------------------------
// Flush piggybacking (DESIGN.md §7): a master-homed flush rides the release
// announcement in one envelope instead of paying an ack round.  The
// ack-before-announce invariant must still hold: the home has the data
// before any write notice for it can reach a reader.
// ---------------------------------------------------------------------------

TEST(HomeLrc, FlushRidesBarrierArriveKeepingHomesComplete) {
  // Concurrent first-touch writers: during the first construct every
  // written page is still master-homed, so every slave's flush targets the
  // master and rides its BarrierArrive.  The master must see all writers'
  // words merged — which requires each flush to be applied before the
  // barrier completes and notices go out.
  constexpr int kProcs = 4;
  sim::Cluster cluster({}, kProcs);
  DsmConfig cfg = home_config();
  // The premise (every flush targets the master) needs the master-centric
  // defaults; with a sharded directory first-construct homes are the shard
  // holders and the flush counters legitimately differ.
  cfg.dir_shards = 1;
  DsmSystem sys(cluster, cfg);

  constexpr std::int64_t kN = 2048;  // 4 pages of int64
  auto task = sys.register_task(
      "interleave", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        p.write_range(args.addr, args.count * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = p.pid(); i < args.count; i += p.nprocs()) {
          data[i] += 1000 + i;
        }
      });

  sys.start(kProcs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kN * 8);
    sys.run_parallel(task, pack(ArrayArgs{addr, kN}));
    // All three slave flushes of the first construct targeted the master
    // and rode the arrival envelope — no ack round for any of them.
    EXPECT_EQ(sys.stats().counter_value("dsm.home_flushes_piggybacked"),
              kProcs - 1);
    EXPECT_EQ(sys.stats().counter_value("dsm.home_flushes"), kProcs - 1);
    master.read_range(addr, kN * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(data[i], 1000 + i) << "at index " << i;
    }
    expect_no_archived_diffs(sys);
  });
  EXPECT_EQ(sys.stats().counter_value("dsm.diff_fetches"), 0);
}

TEST(HomeLrc, FlushRidesLockReleaseAheadOfTheNextGrant) {
  // The sharpest ordering test: lock-only pages keep the master as home
  // (log_release never assigns), so every non-master holder's flush rides
  // its LockRelease envelope.  The master processes the flush segment
  // first, then the release — which hands the lock (with the new write
  // notice) to the next waiter.  That waiter immediately refetches the
  // page from the master home; a stale home would lose increments.
  constexpr int kProcs = 4;
  constexpr int kRounds = 5;
  sim::Cluster cluster({}, kProcs);
  DsmConfig cfg = home_config();
  DsmSystem sys(cluster, cfg);

  auto task = sys.register_task(
      "count", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        for (int round = 0; round < kRounds; ++round) {
          p.lock_acquire(7);
          p.read_range(args.addr, 8);
          p.write_range(args.addr, 8);
          p.ptr<std::int64_t>(args.addr)[0] += 1;
          p.lock_release(7);
        }
      });

  sys.start(kProcs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kPageSize);
    sys.run_parallel(task, pack(ArrayArgs{addr, 1}));
    master.read_range(addr, 8);
    EXPECT_EQ(master.cptr<std::int64_t>(addr)[0], kProcs * kRounds);
    expect_no_archived_diffs(sys);
  });
  // Every slave flush targeted the master home and was piggybacked; the
  // counter-page stayed master-homed throughout (lock releases never
  // reassign homes).
  EXPECT_GT(sys.stats().counter_value("dsm.home_flushes_piggybacked"), 0);
  EXPECT_EQ(sys.stats().counter_value("dsm.home_flushes"),
            sys.stats().counter_value("dsm.home_flushes_piggybacked"));
  EXPECT_EQ(sys.owner_by_page()[page_of(0)], kMasterUid);
  EXPECT_EQ(sys.stats().counter_value("dsm.diff_fetches"), 0);
}

// ---------------------------------------------------------------------------
// Home behavior across a process leave, under both pid strategies and two
// shard counts: at 4 shards the leaver, uid 2, is the default holder of
// shard 2.
// ---------------------------------------------------------------------------

using LeaveParam = std::tuple<PidStrategy, int>;

class HomeLeaveTest : public ::testing::TestWithParam<LeaveParam> {};

TEST_P(HomeLeaveTest, LeaverHomesTransferAndDataSurvives) {
  constexpr int kProcs = 4;
  sim::Cluster cluster({}, kProcs);
  DsmConfig cfg = home_config();
  cfg.pid_strategy = std::get<0>(GetParam());
  cfg.dir_shards = std::get<1>(GetParam());
  DsmSystem sys(cluster, cfg);
  core::AdaptiveRuntime adapt(sys);

  constexpr std::int64_t kN = 16384;
  auto task = sys.register_task(
      "inc", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        const std::int64_t base = args.count / p.nprocs();
        const std::int64_t lo = p.pid() * base;
        const std::int64_t hi =
            p.pid() == p.nprocs() - 1 ? args.count : lo + base;
        p.write_range(args.addr + lo * 8, (hi - lo) * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) data[i] += 1;
        p.compute(0.05 * static_cast<double>(hi - lo) /
                  static_cast<double>(args.count));
      });

  // Middle leave: host 2's process owns interior homes when it goes.
  adapt.post_leave(sim::from_seconds(0.1), 2);

  sys.start(kProcs);
  const Uid leaver = sys.uid_of_pid(2);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kN * 8);
    master.write_range(addr, kN * 8);
    std::memset(master.ptr<std::int64_t>(addr), 0, kN * 8);
    constexpr int kRounds = 20;
    for (int r = 0; r < kRounds; ++r) {
      sys.run_parallel(task, pack(ArrayArgs{addr, kN}));
      expect_no_archived_diffs(sys);
    }
    master.read_range(addr, kN * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(data[i], kRounds) << "at index " << i;
    }
  });

  EXPECT_EQ(sys.world_size(), kProcs - 1);
  EXPECT_EQ(sys.stats().counter_value("adapt.leaves"), 1);
  // Every page the leaver was home of moved off it before the expel (§4.2:
  // the master re-owns them), so no hint can dangle at a dead process.
  EXPECT_TRUE(sys.pages_owned_by(leaver).empty());
  const auto owners = sys.owner_by_page();
  for (Uid owner : owners) {
    EXPECT_NE(owner, leaver);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PidStrategies, HomeLeaveTest,
    ::testing::Combine(::testing::Values(PidStrategy::kShift,
                                         PidStrategy::kSwapLast),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<LeaveParam>& i) {
      return std::string(std::get<0>(i.param) == PidStrategy::kShift
                             ? "shift"
                             : "swap_last") +
             "_shards" + std::to_string(std::get<1>(i.param));
    });


// A writer that has applied a GC commit can flush to a home that has not
// applied it yet.  Under --backend real that is a slow home draining its
// rings round-robin; here the simulator forces the same order: with fanout
// 1 the tree is the chain 0 -> 1 -> 2, so a fork reaches uid 2 through uid
// 1, which forwards it after the tree-combine charge, made 20 ms.  In that
// time uid 1 runs its body and flushes to uid 2.  Each construct writes one
// word: `who` writes slot `who` of page `page`.
struct ChainWrite {
  Pid who;
  int page;
};

struct ChainArgs {
  GAddr addr;
  ChainWrite write;
};

/// Runs one construct per write; returns the stats after checking that the
/// master reads every written word back.
util::StatsRegistry::Snapshot run_behind_slow_hop(
    const std::vector<ChainWrite>& writes) {
  sim::CostModel cost;
  cost.tree_combine = 20 * sim::kMsec;
  sim::Cluster cluster(cost, 3);
  DsmConfig cfg = home_config();
  cfg.backend = BackendKind::kSim;
  cfg.fanout = 1;
  cfg.dir_shards = 1;
  cfg.placement = PlacementMode::kStatic;
  DsmSystem sys(cluster, cfg);
  const auto task = sys.register_task(
      "chain_write", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        const auto [addr, w] = unpack<ChainArgs>(a);
        if (p.pid() != w.who) return;
        const GAddr word = addr + static_cast<GAddr>(w.page) * kPageSize +
                           static_cast<GAddr>(w.who) * 8;
        p.write_range(word, 8);
        *p.ptr<std::int64_t>(word) = 100 * w.page + w.who;
      });
  sys.start(3);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(2 * kPageSize);
    for (const ChainWrite& w : writes) {
      sys.run_parallel(task, pack(ChainArgs{addr, w}));
    }
    master.read_range(addr, 2 * kPageSize);
    for (const ChainWrite& w : writes) {
      EXPECT_EQ(master.cptr<std::int64_t>(addr + static_cast<GAddr>(w.page) *
                                                     kPageSize)[w.who],
                100 * w.page + w.who)
          << "page " << w.page << " slot " << w.who;
    }
  });
  return sys.stats().snapshot();
}

TEST(HomeLrc, FlushToANewHomeWaitsForTheCommitThatMadeIt) {
  // uid 2 first-touches page 0 and becomes its home at the join barrier's
  // GC; that commit rides the next fork.  uid 1 then fetches page 0 from
  // uid 2, writes it and flushes it to uid 2, whose hint still names the
  // master: the flush waits for uid 2's commit and is acked after it.
  const auto stats = run_behind_slow_hop({{2, 0}, {1, 0}});
  EXPECT_EQ(stats.counter("dsm.home_assignments"), 1);
  EXPECT_EQ(stats.counter("dsm.home_flushes_held"), 1);
}

TEST(HomeLrc, FlushToAnEstablishedHomeSurvivesTheCommitItOvertakes) {
  // Page 0 is homed at uid 2 two constructs before uid 1 writes it, but a
  // GC (uid 2 first-touching page 1) commits with that same fork.  Applied
  // before the commit, the flush's words would stay but the commit would
  // clear the applied map that records them: a reader's copy from the home
  // would fail its coverage check, and the home, integrating uid 1's notice
  // on its own page, would name itself as the page's source.
  const auto stats = run_behind_slow_hop({{2, 0}, {2, 1}, {1, 0}});
  EXPECT_EQ(stats.counter("dsm.home_assignments"), 2);
  EXPECT_EQ(stats.counter("dsm.home_flushes_held"), 1);
}

}  // namespace
}  // namespace anow::dsm
