// Tests for the adaptive runtime: join events, normal leaves, urgent leaves
// (migration + multiplexing), pid-reassignment strategies, and the paper's
// central transparency claim — the numerical result is unchanged under any
// adaptation schedule.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/adapt.hpp"
#include "dsm/system.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace anow::core {
namespace {

using dsm::DsmConfig;
using dsm::DsmProcess;
using dsm::DsmSystem;
using dsm::GAddr;
using sim::kSec;

struct IterArgs {
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

struct Range {
  std::int64_t lo, hi;
};
Range block_partition(std::int64_t n, int pid, int nprocs) {
  const std::int64_t base = n / nprocs, rem = n % nprocs;
  const std::int64_t lo = pid * base + std::min<std::int64_t>(pid, rem);
  return {lo, lo + base + (pid < rem ? 1 : 0)};
}

/// A tiny iterative application: `rounds` fork-join constructs, each
/// incrementing every array element by 1 and charging compute time so that
/// constructs take meaningful virtual time (~compute_s per round at 1 proc).
struct IncApp {
  static constexpr std::int64_t kN = 16384;

  explicit IncApp(DsmSystem& sys, int rounds, double compute_s = 0.2)
      : sys_(sys), rounds_(rounds) {
    task_ = sys.register_task(
        "inc", [compute_s](DsmProcess& p, const std::vector<std::uint8_t>& a) {
          auto args = unpack<IterArgs>(a);
          auto [lo, hi] = block_partition(args.count, p.pid(), p.nprocs());
          p.write_range(args.addr + lo * 8, (hi - lo) * 8);
          auto* data = p.ptr<std::int64_t>(args.addr);
          for (std::int64_t i = lo; i < hi; ++i) data[i] += 1;
          p.compute(compute_s * static_cast<double>(hi - lo) /
                    static_cast<double>(args.count));
        });
  }

  void master_main(DsmProcess& master) {
    addr_ = sys_.shared_malloc(kN * 8);
    master.write_range(addr_, kN * 8);
    std::memset(master.ptr<std::int64_t>(addr_), 0, kN * 8);
    for (int r = 0; r < rounds_; ++r) {
      sys_.run_parallel(task_, pack(IterArgs{addr_, kN}));
    }
    master.read_range(addr_, kN * 8);
    const auto* data = master.cptr<std::int64_t>(addr_);
    for (std::int64_t i = 0; i < kN; ++i) {
      ANOW_CHECK_MSG(data[i] == rounds_, "element " << i << " = " << data[i]
                                                    << ", want " << rounds_);
    }
    ok_ = true;
    end_time_ = master.now();
  }

  DsmSystem& sys_;
  int rounds_;
  std::int32_t task_;
  GAddr addr_ = 0;
  bool ok_ = false;
  sim::Time end_time_ = 0;
};

DsmConfig small_config() {
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.private_image_bytes = 1 << 20;
  return cfg;
}

TEST(Adapt, JoinGrowsTeamAndPreservesResult) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 40);
  sys.start(2);
  adapt.post_join(2 * kSec, 2);
  adapt.post_join(2 * kSec, 3);
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.world_size(), 4);  // both joins absorbed
  EXPECT_EQ(sys.stats().counter_value("adapt.joins"), 2);
  EXPECT_GE(sys.stats().counter_value("dsm.gc_runs"), 1);
}

TEST(Adapt, NormalLeaveShrinksTeamAndPreservesResult) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 40);
  sys.start(4);
  // Mid-run, with slack before the final fork: engines differ by a few
  // percent in virtual runtime and the leave must land before the last
  // adaptation point under all of them.
  adapt.post_leave(1 * kSec, 3);  // "end" process
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.world_size(), 3);
  EXPECT_EQ(sys.stats().counter_value("adapt.leaves"), 1);
  EXPECT_EQ(sys.stats().counter_value("adapt.migrations"), 0);  // normal
}

TEST(Adapt, MiddleLeaveWithShiftStrategy) {
  sim::Cluster cluster({}, 4);
  DsmConfig cfg = small_config();
  cfg.pid_strategy = dsm::PidStrategy::kShift;
  DsmSystem sys(cluster, cfg);
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 40, 0.4);
  sys.start(4);
  adapt.post_leave(sim::from_seconds(1.5), 1);  // middle process
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.world_size(), 3);
}

TEST(Adapt, MiddleLeaveWithSwapLastStrategy) {
  sim::Cluster cluster({}, 4);
  DsmConfig cfg = small_config();
  cfg.pid_strategy = dsm::PidStrategy::kSwapLast;
  DsmSystem sys(cluster, cfg);
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 40, 0.4);
  sys.start(4);
  adapt.post_leave(sim::from_seconds(1.5), 1);
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.world_size(), 3);
}

TEST(Adapt, UrgentLeaveMigratesWhenGraceTooShort) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  // Few long rounds: ~0.8 s per construct at 4 procs; a 1 ms grace period
  // cannot reach an adaptation point in time.
  IncApp app(sys, 8, 3.0);
  sys.start(4);
  adapt.post_leave(sim::from_seconds(1.0), 2, sim::from_seconds(0.001));
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.world_size(), 3);
  EXPECT_EQ(sys.stats().counter_value("adapt.migrations"), 1);
  EXPECT_EQ(sys.stats().counter_value("adapt.leaves"), 1);
  // The migration moved a real image.
  EXPECT_GT(sys.stats().counter_value("adapt.migration_bytes"), 1 << 20);
}

TEST(Adapt, GenerousGraceAvoidsMigration) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 20, 0.5);
  sys.start(4);
  adapt.post_leave(sim::from_seconds(1.0), 2, kDefaultGrace);  // 3 s
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.stats().counter_value("adapt.migrations"), 0);
}

TEST(Adapt, LeaveThenRejoinSameHost) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 60, 0.5);
  sys.start(4);
  adapt.post_leave(1 * kSec, 3);
  adapt.post_join(5 * kSec, 3);
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.world_size(), 4);
  EXPECT_EQ(sys.stats().counter_value("adapt.leaves"), 1);
  EXPECT_EQ(sys.stats().counter_value("adapt.joins"), 1);
}

TEST(Adapt, SimultaneousJoinAndLeaveHandledAtOnePoint) {
  sim::Cluster cluster({}, 5);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 50, 0.4);
  sys.start(4);
  adapt.post_join(2 * kSec, 4);
  adapt.post_leave(2 * kSec, 1);
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.world_size(), 4);
  // Both events must appear in the records, potentially at one point.
  EXPECT_EQ(adapt.records().size(), 2u);
}

TEST(Adapt, RecordsCarryTrafficAndTiming) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 40, 0.4);
  sys.start(4);
  adapt.post_leave(2 * kSec, 3);
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  ASSERT_EQ(adapt.records().size(), 1u);
  const auto& rec = adapt.records()[0];
  EXPECT_EQ(rec.kind, AdaptKind::kLeave);
  EXPECT_GE(rec.handled_at, rec.raised_at);
  EXPECT_GT(rec.hook_bytes, 0);
  EXPECT_GT(rec.hook_duration, 0);
  EXPECT_EQ(rec.world_before, 4);
  EXPECT_EQ(rec.world_after, 3);
}

TEST(Adapt, NoEventsMeansNoOverheadPath) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 20);
  sys.start(4);
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(adapt.records().size(), 0u);
  if (dsm::Knobs().engine == dsm::EngineKind::kLrc) {
    EXPECT_EQ(sys.stats().counter_value("dsm.gc_runs"), 0);
  } else {
    // Home-based LRC commits first-touch home assignments through one
    // two-phase round at the first write epoch; no further rounds run.
    EXPECT_LE(sys.stats().counter_value("dsm.gc_runs"), 1);
  }
}

TEST(Adapt, ShrinkToOneProcessAndBack) {
  sim::Cluster cluster({}, 3);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 80);
  sys.start(3);
  adapt.post_leave(1 * kSec, 1);
  adapt.post_leave(1 * kSec, 2);
  adapt.post_join(8 * kSec, 1);
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.world_size(), 2);
}

// --- transparency property: random adaptation schedules --------------------

class AdaptScheduleTest : public ::testing::TestWithParam<int> {};

TEST_P(AdaptScheduleTest, RandomScheduleIsTransparent) {
  util::Rng rng(GetParam() * 7919);
  sim::Cluster cluster({}, 6);
  DsmSystem sys(cluster, small_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 60, 1.2);
  sys.start(2 + static_cast<int>(rng.next_below(3)));

  // Random joins/leaves over the first ~20 virtual seconds.
  for (int e = 0; e < 6; ++e) {
    const sim::Time at = sim::from_seconds(0.5 + rng.next_double() * 20.0);
    const sim::HostId host = static_cast<sim::HostId>(rng.next_below(6));
    if (rng.next_bool(0.5)) {
      adapt.post_join(at, host);
    } else if (host != 0) {
      const sim::Time grace =
          rng.next_bool(0.8) ? kDefaultGrace : sim::from_seconds(0.01);
      adapt.post_leave(at, host, grace);
    }
  }
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  // master_main itself verifies every element — the transparency property.
  EXPECT_TRUE(app.ok_);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptScheduleTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace anow::core

namespace anow::core {
namespace {

using dsm::DsmConfig;
using dsm::DsmProcess;
using dsm::DsmSystem;
using sim::kSec;

DsmConfig master_mig_config() {
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.private_image_bytes = 1 << 20;
  return cfg;
}

TEST(Adapt, MasterCanMigrateButNeverNormalLeaves) {
  // Paper §4.4: "The master node ... can migrate but it currently cannot
  // perform a normal leave."  A leave event for the master's host with a
  // short grace period must migrate the master and keep it in the team.
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, master_mig_config());
  AdaptiveRuntime adapt(sys);
  IncApp app(sys, 10, 2.0);
  sys.start(4);
  adapt.post_leave(sim::from_seconds(1.0), 0, sim::from_seconds(0.001));
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  // The master migrated (urgent) but was never expelled.
  EXPECT_EQ(sys.stats().counter_value("adapt.migrations"), 1);
  EXPECT_EQ(sys.stats().counter_value("adapt.leaves"), 0);
  EXPECT_EQ(sys.world_size(), 4);
  EXPECT_NE(sys.process(dsm::kMasterUid).host(), 0);  // it moved
}

TEST(Adapt, SpawnCostCanBeDisabledForWhatIfStudies) {
  sim::Cluster cluster({}, 3);
  DsmSystem sys(cluster, master_mig_config());
  AdaptiveRuntime::Options opts;
  opts.charge_spawn_cost = false;
  AdaptiveRuntime adapt(sys, opts);
  IncApp app(sys, 30, 0.4);
  sys.start(2);
  adapt.post_join(1 * kSec, 2);
  sys.run([&](DsmProcess& m) { app.master_main(m); });
  EXPECT_TRUE(app.ok_);
  EXPECT_EQ(sys.stats().counter_value("adapt.joins"), 1);
}

TEST(Adapt, MigrationFreezesAllComputationDuringTransfer) {
  // §4.2: "All processes then wait for the completion of the migration."
  // A ~2 MB image at 8.1 MB/s freezes everyone for ~0.25 s; the run with
  // an urgent leave must be slower than with a normal leave by at least
  // that transfer time.
  auto run_with_grace = [](sim::Time grace) {
    sim::Cluster cluster({}, 4);
    DsmSystem sys(cluster, master_mig_config());
    AdaptiveRuntime adapt(sys);
    IncApp app(sys, 10, 2.0);
    sys.start(4);
    adapt.post_leave(sim::from_seconds(1.0), 2, grace);
    sys.run([&](DsmProcess& m) { app.master_main(m); });
    ANOW_CHECK(app.ok_);
    return app.end_time_;
  };
  const sim::Time normal = run_with_grace(kDefaultGrace);
  const sim::Time urgent = run_with_grace(sim::from_seconds(0.001));
  EXPECT_GT(urgent - normal, sim::from_seconds(0.2));
}

}  // namespace
}  // namespace anow::core
