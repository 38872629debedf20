// Pins the emergent DSM primitive costs to the paper's §5.1 measurements.
// These are the contract between the cost model and every bench result; if
// a cost-model change moves them out of range, the Table 1/2 shapes are no
// longer comparable to the paper.  The fetch primitives are timed one page
// per read_range, so the transport's batching never amortizes them.
#include <gtest/gtest.h>

#include <cstring>

#include "dsm/system.hpp"
#include "sim/cluster.hpp"

namespace anow::dsm {
namespace {

struct Args {
  GAddr addr;
};

/// Remote fetch cost per page: slave owns the pages, master faults them.
/// The timed pages fault one read_range each — these tests calibrate the
/// per-message primitive cost, which a multi-page range would amortize
/// below the paper's per-fetch range by batching its fetches.
double page_fetch_us(Protocol protocol, bool premap_master) {
  sim::Cluster cluster({}, 2);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.default_protocol = protocol;
  DsmSystem sys(cluster, cfg);
  auto prep = sys.register_task(
      "prep", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        if (p.pid() != 1) return;
        p.write_range(args.addr, 8 * kPageSize);
        auto* d = p.ptr<std::uint8_t>(args.addr);
        for (std::size_t i = 0; i < 8 * kPageSize; i += 64) d[i] ^= 1;
      });
  double us = 0;
  sys.start(2);
  sys.run([&](DsmProcess& m) {
    Args args{sys.shared_malloc(8 * kPageSize)};
    if (premap_master) {
      m.read_range(args.addr, 8 * kPageSize);  // master has stale copies
    }
    std::vector<std::uint8_t> pk(sizeof(args));
    std::memcpy(pk.data(), &args, sizeof(args));
    sys.run_parallel(prep, pk);
    const sim::Time t0 = m.now();
    for (GAddr pg = 0; pg < 8; ++pg) {
      m.read_range(args.addr + pg * kPageSize, kPageSize);
    }
    us = sim::to_seconds(m.now() - t0) * 1e6 / 8;
  });
  return us;
}

TEST(Calibration, OneByteRoundTripIs126us) {
  sim::Cluster cluster({}, 2);
  util::StatsRegistry stats;
  sim::Network net(cluster.sim(), cluster.cost(), stats, 2);
  sim::Time done = 0;
  net.send(0, 1, 1, [&] { net.send(1, 0, 1, [&] { done = cluster.sim().now(); }); });
  cluster.sim().run();
  EXPECT_NEAR(sim::to_seconds(done) * 1e6, 126.0, 6.0);
}

TEST(Calibration, FullPageTransferNear1308us) {
  // Paper: 1,308 us.  Single-writer invalid page -> full page fetch.
  EXPECT_NEAR(page_fetch_us(Protocol::kSingleWriter, false), 1308.0, 70.0);
}

TEST(Calibration, DiffFetchInPaperRange) {
  // Paper: 313-1,544 us depending on the diff size.  A page-sized diff on
  // the multi-writer path.
  const double us = page_fetch_us(Protocol::kMultiWriter, true);
  EXPECT_GT(us, 313.0);
  EXPECT_LT(us, 1544.0);
}

TEST(Calibration, RemoteLockAcquireInPaperRange) {
  sim::Cluster cluster({}, 2);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  constexpr int kIters = 32;
  sim::Time elapsed = 0;
  auto locker = sys.register_task(
      "locker", [&](DsmProcess& p, const std::vector<std::uint8_t>&) {
        if (p.pid() != 1) return;
        const sim::Time t0 = p.now();
        for (int i = 0; i < kIters; ++i) {
          p.lock_acquire(1);
          p.lock_release(1);
        }
        elapsed = p.now() - t0;
      });
  sys.start(2);
  sys.run([&](DsmProcess&) { sys.run_parallel(locker, {}); });
  const double us = sim::to_seconds(elapsed) * 1e6 / kIters;
  EXPECT_GT(us, 150.0);
  EXPECT_LT(us, 272.0);
}

TEST(Calibration, SpawnCostInPaperRange) {
  sim::Cluster cluster({}, 1);
  for (int i = 0; i < 50; ++i) {
    const double s = sim::to_seconds(cluster.draw_spawn_cost());
    EXPECT_GE(s, 0.6);
    EXPECT_LE(s, 0.8);
  }
}

TEST(Calibration, MigrationRateIs8MBps) {
  sim::CostModel cm;
  const double s = sim::to_seconds(
      cm.migration_time(static_cast<std::int64_t>(8.1 * 1024 * 1024)));
  EXPECT_NEAR(s, 1.0, 0.01);
}

}  // namespace
}  // namespace anow::dsm
