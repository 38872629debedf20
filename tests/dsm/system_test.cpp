// End-to-end tests of the DSM: fork-join, page faults, single- and
// multiple-writer protocols, barriers, locks, garbage collection.
//
// These run real programs through the full protocol (per-process region
// copies, real diff creation/application over the simulated network) and
// check numerical results, which is the strongest validation the protocol
// can get.  Every scenario runs under both consistency engines (LRC and
// home-based LRC) so the protocols are held to the same correctness bar.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "dsm/system.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"

namespace anow::dsm {
namespace {

DsmConfig small_config(Protocol proto = Protocol::kMultiWriter,
                       EngineKind engine = Knobs().engine) {
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;  // 256 pages
  cfg.default_protocol = proto;
  cfg.engine = engine;
  return cfg;
}

/// (nprocs, engine) for the parameterized end-to-end suite.
using SystemParam = std::tuple<int, EngineKind>;

std::string param_name(const ::testing::TestParamInfo<SystemParam>& info) {
  return std::string(enum_name(std::get<1>(info.param))) + "_n" +
         std::to_string(std::get<0>(info.param));
}

/// Packs a trivially-copyable struct as fork args.
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

struct ArrayArgs {
  GAddr addr;
  std::int64_t count;
};

/// Block partition helper (the "compiler-generated" code).
struct Range {
  std::int64_t lo, hi;
};
Range block_partition(std::int64_t n, int pid, int nprocs) {
  const std::int64_t base = n / nprocs, rem = n % nprocs;
  const std::int64_t lo = pid * base + std::min<std::int64_t>(pid, rem);
  return {lo, lo + base + (pid < rem ? 1 : 0)};
}

// ---------------------------------------------------------------------------

class DsmSystemTest : public ::testing::TestWithParam<SystemParam> {
 protected:
  int nprocs() const { return std::get<0>(GetParam()); }
  EngineKind engine() const { return std::get<1>(GetParam()); }
  DsmConfig config(Protocol proto = Protocol::kMultiWriter) const {
    return small_config(proto, engine());
  }
};

TEST_P(DsmSystemTest, EachProcessWritesItsSlice) {
  const int nprocs = this->nprocs();
  sim::Cluster cluster({}, nprocs);
  DsmSystem sys(cluster, config(Protocol::kMultiWriter));

  const std::int64_t n = 10000;
  auto task = sys.register_task("fill", [](DsmProcess& p,
                                           const std::vector<std::uint8_t>& a) {
    auto args = unpack<ArrayArgs>(a);
    auto [lo, hi] = block_partition(args.count, p.pid(), p.nprocs());
    p.write_range(args.addr + lo * 8, (hi - lo) * 8);
    auto* data = p.ptr<std::int64_t>(args.addr);
    for (std::int64_t i = lo; i < hi; ++i) data[i] = i * 3 + 1;
  });

  sys.start(nprocs);
  bool checked = false;
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(n * 8);
    sys.run_parallel(task, pack(ArrayArgs{addr, n}));
    master.read_range(addr, n * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], i * 3 + 1) << "at index " << i;
    }
    checked = true;
  });
  EXPECT_TRUE(checked);
}

TEST_P(DsmSystemTest, SlavesReadMasterInitializedData) {
  const int nprocs = this->nprocs();
  sim::Cluster cluster({}, nprocs);
  DsmSystem sys(cluster, config());

  const std::int64_t n = 4096;
  // Each process sums its slice into its own result cell.
  auto task = sys.register_task("sum", [](DsmProcess& p,
                                          const std::vector<std::uint8_t>& a) {
    auto args = unpack<ArrayArgs>(a);
    const GAddr results = args.addr + args.count * 8;
    auto [lo, hi] = block_partition(args.count, p.pid(), p.nprocs());
    p.read_range(args.addr + lo * 8, (hi - lo) * 8);
    const auto* data = p.cptr<std::int64_t>(args.addr);
    std::int64_t sum = 0;
    for (std::int64_t i = lo; i < hi; ++i) sum += data[i];
    p.write_range(results + p.pid() * 8, 8);
    p.ptr<std::int64_t>(results)[p.pid()] = sum;
  });

  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(n * 8 + nprocs * 8);
    master.write_range(addr, n * 8);
    auto* data = master.ptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < n; ++i) data[i] = i;
    sys.run_parallel(task, pack(ArrayArgs{addr, n}));
    master.read_range(addr + n * 8, nprocs * 8);
    const auto* results = master.cptr<std::int64_t>(addr + n * 8);
    const std::int64_t total =
        std::accumulate(results, results + nprocs, std::int64_t{0});
    EXPECT_EQ(total, n * (n - 1) / 2);
  });
}

TEST_P(DsmSystemTest, MultiWriterFalseSharingMerges) {
  // All processes write interleaved words of the SAME pages — the pure
  // multi-writer stress: every page has nprocs concurrent writers.
  const int nprocs = this->nprocs();
  sim::Cluster cluster({}, nprocs);
  DsmSystem sys(cluster, config(Protocol::kMultiWriter));

  const std::int64_t n = 2048;  // 4 pages of int64
  auto task = sys.register_task("interleave", [](DsmProcess& p,
                                                 const std::vector<std::uint8_t>&
                                                     a) {
    auto args = unpack<ArrayArgs>(a);
    p.write_range(args.addr, args.count * 8);  // everyone touches all pages
    auto* data = p.ptr<std::int64_t>(args.addr);
    for (std::int64_t i = p.pid(); i < args.count; i += p.nprocs()) {
      data[i] = 1000 + i;
    }
  });

  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(n * 8);
    sys.run_parallel(task, pack(ArrayArgs{addr, n}));
    master.read_range(addr, n * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], 1000 + i) << "at index " << i;
    }
  });
}

TEST_P(DsmSystemTest, BarrierInsideTaskPropagatesNeighborWrites) {
  // Phase 1: each process writes its slice.  Barrier.  Phase 2: each
  // process checks its *neighbor's* slice.
  const int nprocs = this->nprocs();
  sim::Cluster cluster({}, nprocs);
  DsmSystem sys(cluster, config());

  const std::int64_t n = 8192;
  auto task = sys.register_task(
      "phases", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        auto [lo, hi] = block_partition(args.count, p.pid(), p.nprocs());
        p.write_range(args.addr + lo * 8, (hi - lo) * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) data[i] = 7 * i;
        p.barrier(1);
        const int neighbor = (p.pid() + 1) % p.nprocs();
        auto [nlo, nhi] = block_partition(args.count, neighbor, p.nprocs());
        p.read_range(args.addr + nlo * 8, (nhi - nlo) * 8);
        for (std::int64_t i = nlo; i < nhi; ++i) {
          ANOW_CHECK_MSG(p.cptr<std::int64_t>(args.addr)[i] == 7 * i,
                         "neighbor value wrong at " << i);
        }
      });

  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(n * 8);
    sys.run_parallel(task, pack(ArrayArgs{addr, n}));
  });
}

TEST_P(DsmSystemTest, LockProtectedCounter) {
  const int nprocs = this->nprocs();
  sim::Cluster cluster({}, nprocs);
  DsmSystem sys(cluster, config());

  constexpr int kIters = 5;
  auto task = sys.register_task(
      "count", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        for (int it = 0; it < kIters; ++it) {
          p.lock_acquire(3);
          p.write_range(args.addr, 8);
          p.ptr<std::int64_t>(args.addr)[0] += 1;
          p.lock_release(3);
        }
      });

  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kPageSize);
    master.write_range(addr, 8);
    master.ptr<std::int64_t>(addr)[0] = 0;
    sys.run_parallel(task, pack(ArrayArgs{addr, 1}));
    master.read_range(addr, 8);
    EXPECT_EQ(master.cptr<std::int64_t>(addr)[0],
              static_cast<std::int64_t>(nprocs) * kIters);
  });
}

TEST_P(DsmSystemTest, RepeatedForksAccumulate) {
  const int nprocs = this->nprocs();
  sim::Cluster cluster({}, nprocs);
  DsmSystem sys(cluster, config());

  const std::int64_t n = 4096;
  auto task = sys.register_task(
      "inc", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        auto [lo, hi] = block_partition(args.count, p.pid(), p.nprocs());
        p.write_range(args.addr + lo * 8, (hi - lo) * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) data[i] += 1;
      });

  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(n * 8);
    master.write_range(addr, n * 8);
    std::memset(master.ptr<std::int64_t>(addr), 0, n * 8);
    for (int round = 0; round < 10; ++round) {
      sys.run_parallel(task, pack(ArrayArgs{addr, n}));
    }
    master.read_range(addr, n * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], 10) << "at index " << i;
    }
  });
}

TEST_P(DsmSystemTest, GcPreservesData) {
  const int nprocs = this->nprocs();
  sim::Cluster cluster({}, nprocs);
  DsmSystem sys(cluster, config());

  const std::int64_t n = 8192;
  auto task = sys.register_task(
      "fill", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        auto [lo, hi] = block_partition(args.count, p.pid(), p.nprocs());
        p.write_range(args.addr + lo * 8, (hi - lo) * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) data[i] += i;
      });

  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(n * 8);
    sys.run_parallel(task, pack(ArrayArgs{addr, n}));
    sys.request_gc();  // GC at the next barrier
    sys.run_parallel(task, pack(ArrayArgs{addr, n}));
    EXPECT_GE(sys.stats().counter_value("dsm.gc_runs"), 1);
    master.read_range(addr, n * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], 2 * i) << "at index " << i;
    }
  });
}

TEST_P(DsmSystemTest, GcAtForkPreservesData) {
  const int nprocs = this->nprocs();
  sim::Cluster cluster({}, nprocs);
  DsmSystem sys(cluster, config());

  const std::int64_t n = 8192;
  auto task = sys.register_task(
      "fill", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        auto [lo, hi] = block_partition(args.count, p.pid(), p.nprocs());
        p.write_range(args.addr + lo * 8, (hi - lo) * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) data[i] += i + 1;
      });

  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(n * 8);
    sys.run_parallel(task, pack(ArrayArgs{addr, n}));
    sys.gc_at_fork();
    sys.run_parallel(task, pack(ArrayArgs{addr, n}));
    master.read_range(addr, n * 8);
    const auto* data = master.cptr<std::int64_t>(addr);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], 2 * (i + 1)) << "at index " << i;
    }
  });
}

TEST_P(DsmSystemTest, SingleWriterProducesNoDiffs) {
  const int nprocs = this->nprocs();
  sim::Cluster cluster({}, nprocs);
  DsmSystem sys(cluster, config(Protocol::kSingleWriter));

  // Page-aligned slices so single-writer is legal.
  const std::int64_t pages_per_proc = 4;
  const std::int64_t n = nprocs * pages_per_proc * 512;  // int64 per page=512
  auto task = sys.register_task(
      "fill", [pages_per_proc](DsmProcess& p,
                               const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        const std::int64_t per = pages_per_proc * 512;
        const std::int64_t lo = p.pid() * per, hi = lo + per;
        p.write_range(args.addr + lo * 8, (hi - lo) * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) data[i] = -i;
        p.barrier(2);
        // Read the neighbor's slice (forces real single-writer fetches).
        const int nb = (p.pid() + 1) % p.nprocs();
        const std::int64_t nlo = nb * per;
        p.read_range(args.addr + nlo * 8, per * 8);
        for (std::int64_t i = nlo; i < nlo + per; ++i) {
          ANOW_CHECK(p.cptr<std::int64_t>(args.addr)[i] == -i);
        }
      });

  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(n * 8);
    sys.run_parallel(task, pack(ArrayArgs{addr, n}));
    master.read_range(addr, n * 8);
  });
  EXPECT_EQ(sys.stats().counter_value("dsm.diff_fetches"), 0);
  if (nprocs > 1) {
    EXPECT_GT(sys.stats().counter_value("dsm.page_fetches"), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, DsmSystemTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(EngineKind::kLrc,
                                         EngineKind::kHomeLrc)),
    param_name);

// ---------------------------------------------------------------------------
// Non-parameterized behaviours.
// ---------------------------------------------------------------------------

TEST(DsmSystem, HeapAllocatorAlignsAndExhausts) {
  sim::Cluster cluster({}, 1);
  DsmSystem sys(cluster, small_config());
  GAddr a = sys.shared_malloc(100);  // small: word aligned
  EXPECT_EQ(a % kWordSize, 0u);
  GAddr b = sys.shared_malloc(kPageSize);  // large: page aligned
  EXPECT_EQ(b % kPageSize, 0u);
  GAddr c = sys.shared_malloc_aligned(64, 64);
  EXPECT_EQ(c % 64, 0u);
  EXPECT_THROW(sys.shared_malloc(2ull << 20), util::CheckError);
}

TEST(DsmSystem, SingleProcessRunsWithoutNetworkTraffic) {
  sim::Cluster cluster({}, 1);
  DsmSystem sys(cluster, small_config());
  auto task = sys.register_task(
      "noop", [](DsmProcess& p, const std::vector<std::uint8_t>&) {
        ANOW_CHECK(p.nprocs() == 1);
        ANOW_CHECK(p.pid() == 0);
      });
  sys.start(1);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(65536);
    master.write_range(addr, 65536);
    sys.run_parallel(task, {});
  });
  EXPECT_EQ(sys.stats().counter_value("dsm.page_fetches"), 0);
  EXPECT_EQ(sys.stats().counter_value("dsm.diff_fetches"), 0);
}

TEST(DsmSystem, MasterInitializationIsExclusiveNoDiffStorm) {
  // Master fills the whole heap before the first fork; no twins, notices,
  // or diffs should result from that (the exclusive-write shortcut).
  // This is a property of the master-centric initial data distribution,
  // so the directory is pinned unsharded: with dir-shards > 1 the master
  // legitimately announces an init interval for other holders' ranges.
  sim::Cluster cluster({}, 4);
  DsmConfig cfg = small_config(Protocol::kMultiWriter);
  cfg.dir_shards = 1;
  DsmSystem sys(cluster, cfg);
  auto task = sys.register_task(
      "touch", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<ArrayArgs>(a);
        if (p.pid() == 1) {
          p.read_range(args.addr, 8);
          ANOW_CHECK(p.cptr<std::int64_t>(args.addr)[0] == 42);
        }
      });
  sys.start(4);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(512 * 1024);
    master.write_range(addr, 512 * 1024);
    master.ptr<std::int64_t>(addr)[0] = 42;
    sys.run_parallel(task, pack(ArrayArgs{addr, 1}));
  });
  EXPECT_EQ(sys.stats().counter_value("dsm.intervals"), 0);
  EXPECT_EQ(sys.stats().counter_value("dsm.diff_fetches"), 0);
}

TEST(DsmSystem, ExpelMasterThrows) {
  sim::Cluster cluster({}, 2);
  DsmSystem sys(cluster, small_config());
  sys.start(2);
  EXPECT_THROW(sys.expel(kMasterUid), util::CheckError);
}

TEST(DsmSystem, TaskNamesAreRecorded) {
  sim::Cluster cluster({}, 1);
  DsmSystem sys(cluster, small_config());
  auto id = sys.register_task(
      "my_loop", [](DsmProcess&, const std::vector<std::uint8_t>&) {});
  EXPECT_EQ(sys.task_name(id), "my_loop");
}

TEST(DsmSystem, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Cluster cluster({}, 4);
    DsmSystem sys(cluster, small_config());
    const std::int64_t n = 4096;
    auto task = sys.register_task(
        "fill", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
          auto args = unpack<ArrayArgs>(a);
          auto [lo, hi] = block_partition(args.count, p.pid(), p.nprocs());
          p.write_range(args.addr + lo * 8, (hi - lo) * 8);
          auto* data = p.ptr<std::int64_t>(args.addr);
          for (std::int64_t i = lo; i < hi; ++i) data[i] += 1;
          p.compute(0.01);
        });
    sys.start(4);
    sim::Time end_time = 0;
    sys.run([&](DsmProcess& master) {
      const GAddr addr = sys.shared_malloc(n * 8);
      for (int r = 0; r < 3; ++r) {
        sys.run_parallel(task, pack(ArrayArgs{addr, n}));
      }
      end_time = master.now();
    });
    return std::tuple(end_time, sys.stats().counter_value("net.messages"),
                      sys.stats().counter_value("net.bytes"));
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// One read_range over stale copies sends one request envelope per source
// (DESIGN.md §7 rule 3).  Four processes each rewrite their own 4-page
// block of a 16-page array every round; then each reads the whole array.
// From the second round on, the 12 pages of the other blocks are stale
// copies one full copy resolves: single-writer pages under lrc, every page
// under home.  Each reader's 12 fetches ride one request envelope to each
// of the 3 writers and one reply envelope back from each.
// ---------------------------------------------------------------------------

using RefetchParam = std::tuple<EngineKind, BackendKind>;

class StaleRangeRefetch : public ::testing::TestWithParam<RefetchParam> {};

struct RoundTraffic {
  std::int64_t messages = 0;
  std::int64_t page_requests = 0;
  std::int64_t page_fetches = 0;
};

TEST_P(StaleRangeRefetch, OneEnvelopePerSourceFromTheSecondRound) {
  constexpr int kProcs = 4;
  constexpr std::int64_t kBlockWords = 4 * kWordsPerPage;
  constexpr std::int64_t kWords = kProcs * kBlockWords;
  constexpr int kRounds = 4;
  struct Args {
    GAddr addr;
    std::int64_t round;
    bool read;
  };
  // Word i after round r, as a sequential run leaves it.
  const auto expected = [](std::int64_t round, std::int64_t i) {
    return round * 1000003 + i;
  };
  std::atomic<std::int64_t> mismatches{0};
  // Each round's traffic, with or without the whole-array reads.
  const auto run = [&](bool read) {
    sim::Cluster cluster({}, kProcs);
    DsmConfig cfg;
    static_cast<Knobs&>(cfg) = Knobs::builtin();
    cfg.heap_bytes = 1 << 20;
    cfg.engine = std::get<0>(GetParam());
    cfg.backend = std::get<1>(GetParam());
    cfg.default_protocol = Protocol::kSingleWriter;
    DsmSystem sys(cluster, cfg);
    const auto task = sys.register_task(
        "rewrite", [&](DsmProcess& p, const std::vector<std::uint8_t>& a) {
          const auto args = unpack<Args>(a);
          const std::int64_t lo = p.pid() * kBlockWords;
          p.write_range(args.addr + lo * 8, kBlockWords * 8);
          auto* data = p.ptr<std::int64_t>(args.addr);
          for (std::int64_t i = lo; i < lo + kBlockWords; ++i) {
            data[i] = expected(args.round, i);
          }
          p.barrier(1);
          if (!args.read) return;
          p.read_range(args.addr, kWords * 8);
          const auto* seen = p.cptr<std::int64_t>(args.addr);
          for (std::int64_t i = 0; i < kWords; ++i) {
            if (seen[i] != expected(args.round, i)) ++mismatches;
          }
        });
    sys.start(kProcs);
    std::vector<RoundTraffic> rounds;
    sys.run([&](DsmProcess&) {
      const GAddr addr = sys.shared_malloc(kWords * 8);
      const auto& stats = sys.stats();
      for (std::int64_t r = 1; r <= kRounds; ++r) {
        const RoundTraffic before{
            stats.counter_value("net.messages"),
            stats.counter_value("dsm.seg.page_request.msgs"),
            stats.counter_value("dsm.page_fetches")};
        sys.run_parallel(task, pack(Args{addr, r, read}));
        rounds.push_back(
            {stats.counter_value("net.messages") - before.messages,
             stats.counter_value("dsm.seg.page_request.msgs") -
                 before.page_requests,
             stats.counter_value("dsm.page_fetches") - before.page_fetches});
      }
    });
    return rounds;
  };
  const std::vector<RoundTraffic> with_reads = run(true);
  const std::vector<RoundTraffic> without = run(false);
  EXPECT_EQ(mismatches.load(), 0);
  for (int r = 1; r < kRounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r + 1));
    // Per reader: 3 request envelopes and 3 reply envelopes, 12 pages.
    EXPECT_EQ(with_reads[r].messages - without[r].messages, kProcs * 6);
    EXPECT_EQ(with_reads[r].page_requests - without[r].page_requests,
              kProcs * 12);
    EXPECT_EQ(with_reads[r].page_fetches - without[r].page_fetches,
              kProcs * 12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StaleRangeRefetch,
    ::testing::Combine(::testing::Values(EngineKind::kLrc,
                                         EngineKind::kHomeLrc),
                       ::testing::Values(BackendKind::kSim,
                                         BackendKind::kReal)),
    [](const ::testing::TestParamInfo<RefetchParam>& info) {
      return std::string(enum_name(std::get<0>(info.param))) + "_" +
             enum_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace anow::dsm
