// Randomized stress/property tests of the DSM protocol.
//
// The oracle is a plain array in the test; random programs of writes,
// barriers, locks, GCs, and reads run through the full protocol and the
// shared region must always equal the oracle at synchronization points.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "dsm/protocol/lrc_engine.hpp"
#include "dsm/system.hpp"
#include "exec/heap.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace anow::dsm {
namespace {

struct Plan {
  // For each round and process: which slots (word indices) it writes.
  // Slots are assigned so no two processes write the same slot in the same
  // round (data-race freedom, as the protocol requires).
  std::vector<std::vector<std::vector<std::int64_t>>> writes;  // [round][pid]
  std::vector<bool> gc_after_round;
  std::int64_t slots = 0;
  int rounds = 0;
  int nprocs = 0;
};

Plan make_plan(util::Rng& rng, int nprocs, int rounds, std::int64_t slots) {
  Plan plan;
  plan.slots = slots;
  plan.rounds = rounds;
  plan.nprocs = nprocs;
  plan.writes.resize(rounds);
  plan.gc_after_round.resize(rounds);
  for (int r = 0; r < rounds; ++r) {
    plan.writes[r].resize(nprocs);
    for (std::int64_t s = 0; s < slots; ++s) {
      if (rng.next_bool(0.35)) {
        const int writer = static_cast<int>(rng.next_below(nprocs));
        plan.writes[r][writer].push_back(s);
      }
    }
    plan.gc_after_round[r] = rng.next_bool(0.2);
  }
  return plan;
}

/// Oracle: the expected array contents after all rounds.
std::vector<std::int64_t> oracle(const Plan& plan) {
  std::vector<std::int64_t> data(static_cast<std::size_t>(plan.slots), 0);
  for (int r = 0; r < plan.rounds; ++r) {
    for (int p = 0; p < plan.nprocs; ++p) {
      for (std::int64_t s : plan.writes[r][p]) {
        data[s] = (r + 1) * 1000 + p;
      }
    }
  }
  return data;
}

/// (seed, engine): every random program runs under both engines.
using StressParam = std::tuple<int, EngineKind>;

std::string stress_param_name(
    const ::testing::TestParamInfo<StressParam>& info) {
  return std::string(enum_name(std::get<1>(info.param))) + "_s" +
         std::to_string(std::get<0>(info.param));
}

/// (seed, engine, backend): the random write plans also run on threads,
/// where writers share pages inside a construct while their peers compute,
/// so requests are served by waiting peers and some wait for the writer's
/// next DSM call (DESIGN.md §14).
using PlanParam = std::tuple<int, EngineKind, BackendKind>;

class DsmStressTest : public ::testing::TestWithParam<PlanParam> {};

TEST_P(DsmStressTest, RandomWritePlansMatchOracle) {
  const auto [seed, engine, backend] = GetParam();
  util::Rng rng(seed * 2654435761u);
  const int nprocs = 2 + static_cast<int>(rng.next_below(7));  // 2..8
  const int rounds = 4 + static_cast<int>(rng.next_below(8));
  const std::int64_t slots = 2048;  // 4 pages of int64: heavy false sharing
  static Plan plan;  // static: the task lambda must see it after register
  plan = make_plan(rng, nprocs, rounds, slots);

  sim::Cluster cluster({}, nprocs);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.default_protocol = Protocol::kMultiWriter;
  cfg.engine = engine;
  cfg.backend = backend;
  if (backend == BackendKind::kReal) {
    cfg.race_check = RaceCheckMode::kOff;  // the real backend refuses both
    cfg.trace_file.clear();
  }
  // Small threshold: force frequent automatic GCs too (LRC; the home
  // engine keeps no archives, so it rarely crosses it).
  cfg.gc_threshold_bytes = 64 * 1024;
  DsmSystem sys(cluster, cfg);

  struct Args {
    GAddr addr;
    std::int64_t round;
  };
  auto task = sys.register_task(
      "stress_round", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        ANOW_CHECK(a.size() == sizeof(args));
        std::memcpy(&args, a.data(), sizeof(args));
        const auto& mine = plan.writes[args.round][p.pid()];
        for (std::int64_t s : mine) {
          p.write_range(args.addr + static_cast<GAddr>(s) * 8, 8);
          p.ptr<std::int64_t>(args.addr)[s] =
              (args.round + 1) * 1000 + p.pid();
        }
      });

  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(slots * 8);
    master.write_range(addr, static_cast<std::size_t>(slots) * 8);
    std::memset(master.ptr<std::int64_t>(addr), 0,
                static_cast<std::size_t>(slots) * 8);
    for (int r = 0; r < plan.rounds; ++r) {
      Args args{addr, r};
      std::vector<std::uint8_t> packed(sizeof(args));
      std::memcpy(packed.data(), &args, sizeof(args));
      sys.run_parallel(task, packed);
      if (plan.gc_after_round[r]) sys.gc_at_fork();
    }
    const auto want = oracle(plan);
    master.read_range(addr, static_cast<std::size_t>(slots) * 8);
    const auto* got = master.cptr<std::int64_t>(addr);
    for (std::int64_t s = 0; s < slots; ++s) {
      ASSERT_EQ(got[s], want[s]) << "slot " << s << " nprocs " << nprocs
                                 << " rounds " << plan.rounds;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DsmStressTest,
    ::testing::Combine(::testing::Range(1, 13),
                       ::testing::Values(EngineKind::kLrc,
                                         EngineKind::kHomeLrc),
                       ::testing::Values(BackendKind::kSim,
                                         BackendKind::kReal)),
    [](const ::testing::TestParamInfo<PlanParam>& info) {
      return std::string(enum_name(std::get<1>(info.param))) + "_" +
             enum_name(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<0>(info.param));
    });

class LockStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(LockStressTest, ChainedLockTransfersCarryConsistency) {
  // Each process increments a shared counter under a lock several times;
  // a reader under the same lock must always observe a consistent value.
  // This exercises the lock-grant write-notice path, not just barriers.
  util::Rng rng(std::get<0>(GetParam()) * 40503u);
  const int nprocs = 2 + static_cast<int>(rng.next_below(6));
  const int iters = 3 + static_cast<int>(rng.next_below(5));

  sim::Cluster cluster({}, nprocs);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.engine = std::get<1>(GetParam());
  DsmSystem sys(cluster, cfg);
  struct Args {
    GAddr counter;
    std::int64_t iters;
  };
  auto task = sys.register_task(
      "locked_inc", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        for (std::int64_t i = 0; i < args.iters; ++i) {
          p.lock_acquire(5);
          p.write_range(args.counter, 16);
          auto* c = p.ptr<std::int64_t>(args.counter);
          // Invariant: the two cells move together under the lock.
          ANOW_CHECK_MSG(c[0] == c[1], "torn read under lock");
          c[0] += 1;
          c[1] += 1;
          p.lock_release(5);
          p.compute(0.001);
        }
      });
  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    Args args{sys.shared_malloc(kPageSize), iters};
    master.write_range(args.counter, 16);
    master.ptr<std::int64_t>(args.counter)[0] = 0;
    master.ptr<std::int64_t>(args.counter)[1] = 0;
    std::vector<std::uint8_t> packed(sizeof(args));
    std::memcpy(packed.data(), &args, sizeof(args));
    sys.run_parallel(task, packed);
    master.read_range(args.counter, 16);
    EXPECT_EQ(master.cptr<std::int64_t>(args.counter)[0],
              static_cast<std::int64_t>(nprocs) * iters);
    EXPECT_EQ(master.cptr<std::int64_t>(args.counter)[1],
              static_cast<std::int64_t>(nprocs) * iters);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LockStressTest,
    ::testing::Combine(::testing::Range(1, 7),
                       ::testing::Values(EngineKind::kLrc,
                                         EngineKind::kHomeLrc)),
    stress_param_name);

class EngineStressTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineStressTest, ThresholdGcFiresUnderChurn) {
  // A multi-writer workload below keeps creating twins/diffs; with a tiny
  // threshold the LRC system must GC repeatedly and stay correct.  The
  // home engine flushes eagerly and keeps no archives, so its footprint
  // stays under the threshold without repeated collections.
  sim::Cluster cluster({}, 4);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.gc_threshold_bytes = 16 * 1024;
  cfg.engine = GetParam();
  DsmSystem sys(cluster, cfg);
  struct Args {
    GAddr addr;
    std::int64_t n;
  };
  auto task = sys.register_task(
      "churn", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        // Every process writes interleaved words across all pages.
        p.write_range(args.addr, static_cast<std::size_t>(args.n) * 8);
        auto* d = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = p.pid(); i < args.n; i += p.nprocs()) {
          d[i] += 1;
        }
      });
  sys.start(4);
  sys.run([&](DsmProcess& master) {
    Args args{sys.shared_malloc(16384 * 8), 16384};
    master.write_range(args.addr, 16384 * 8);
    std::memset(master.ptr<std::int64_t>(args.addr), 0, 16384 * 8);
    std::vector<std::uint8_t> packed(sizeof(args));
    std::memcpy(packed.data(), &args, sizeof(args));
    for (int r = 0; r < 12; ++r) sys.run_parallel(task, packed);
    master.read_range(args.addr, 16384 * 8);
    for (std::int64_t i = 0; i < 16384; ++i) {
      ASSERT_EQ(master.cptr<std::int64_t>(args.addr)[i], 12);
    }
  });
  if (GetParam() == EngineKind::kLrc) {
    EXPECT_GT(sys.stats().counter_value("dsm.gc_runs"), 1);
  } else {
    // Writers hold no archived diffs after barriers — the home engine's
    // defining property (the one two-phase round commits the first-touch
    // home assignments).
    for (Uid uid : sys.team()) {
      EXPECT_EQ(sys.process(uid).engine().archived_diff_bytes(), 0);
    }
    EXPECT_LE(sys.stats().counter_value("dsm.gc_runs"), 2);
  }
}

TEST_P(EngineStressTest, PendingNoticesStayBounded) {
  // The auto-GC must keep consistency metadata bounded even when one
  // process never touches the written pages (its pending list would
  // otherwise grow without limit).
  sim::Cluster cluster({}, 3);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.gc_threshold_bytes = 32 * 1024;
  cfg.engine = GetParam();
  DsmSystem sys(cluster, cfg);
  struct Args {
    GAddr addr;
    std::int64_t n;
  };
  auto task = sys.register_task(
      "slabs", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        if (p.pid() == 0) return;  // the master never reads these pages
        const std::int64_t half = args.n / 2;
        const std::int64_t lo = p.pid() == 1 ? 0 : half;
        const std::int64_t hi = p.pid() == 1 ? half : args.n;
        p.write_range(args.addr + lo * 8,
                      static_cast<std::size_t>(hi - lo) * 8);
        auto* d = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) d[i] += 1;
      });
  sys.start(3);
  sys.run([&](DsmProcess& master) {
    Args args{sys.shared_malloc(8192 * 8), 8192};
    std::vector<std::uint8_t> packed(sizeof(args));
    std::memcpy(packed.data(), &args, sizeof(args));
    for (int r = 0; r < 40; ++r) sys.run_parallel(task, packed);
    // Metadata stayed bounded by the GC threshold (plus slack for the
    // rounds since the last collection).
    EXPECT_LT(master.engine().consistency_bytes(), 3 * 32 * 1024);
    master.read_range(args.addr, 8192 * 8);
    for (std::int64_t i = 0; i < 8192; ++i) {
      ASSERT_EQ(master.cptr<std::int64_t>(args.addr)[i], 40);
    }
  });
  if (GetParam() == EngineKind::kLrc) {
    EXPECT_GT(sys.stats().counter_value("dsm.gc_runs"), 0);
  } else {
    // The home engine bounds metadata structurally: the consistency-bytes
    // assertion above still holds, every pending notice at the untouched
    // master stays within the auto-GC threshold, and no process ever
    // accumulates a diff archive.
    for (Uid uid : sys.team()) {
      EXPECT_EQ(sys.process(uid).engine().archived_diff_bytes(), 0);
    }
  }
}

TEST_P(EngineStressTest, SingleWriterPendingNoticesDriveGc) {
  // The single-writer form of the test above, sized so that pending notices
  // alone push the master over the GC threshold again and again: two
  // writers swap halves of 128 single-writer pages every round, and the
  // master never touches them.  A single-writer page keeps one pending
  // record per writer, yet the GC model charges every notice, so the GC
  // rounds and the footprint the master reports after each round are the
  // ones the uncollapsed one-record-per-notice lists produced.
  sim::Cluster cluster({}, 3);
  DsmConfig cfg;
  // The pins hold for the built-in knobs, whatever ANOW_* the suite runs
  // under.
  static_cast<Knobs&>(cfg) = Knobs::builtin();
  cfg.heap_bytes = 1 << 20;
  cfg.gc_threshold_bytes = 32 * 1024;
  cfg.default_protocol = Protocol::kSingleWriter;
  cfg.engine = GetParam();
  DsmSystem sys(cluster, cfg);
  struct Args {
    GAddr addr;
    std::int64_t n;
    std::int64_t round;
  };
  auto task = sys.register_task(
      "swapped slabs", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        if (p.pid() == 0) return;  // the master never reads these pages
        const std::int64_t half = args.n / 2;
        const bool low = (p.pid() + args.round) % 2 == 1;
        const std::int64_t lo = low ? 0 : half;
        const std::int64_t hi = low ? half : args.n;
        p.write_range(args.addr + lo * 8,
                      static_cast<std::size_t>(hi - lo) * 8);
        auto* d = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) d[i] += 1;
      });
  constexpr std::int64_t kPages = 128;
  constexpr std::int64_t kWords = kPages * kPageSize / 8;
  constexpr int kRounds = 40;
  // 128 notices of 24 model bytes reach the master per round; a GC runs
  // once a round's arrival reports more than 32 KiB.
  const std::vector<std::int64_t> lrc_bytes = {
      3072,  6144,  9216,  12288, 15360, 18432, 21504, 24576, 27648, 30720,
      33792, 0,     3072,  6144,  9216,  12288, 15360, 18432, 21504, 24576,
      27648, 30720, 33792, 0,     3072,  6144,  9216,  12288, 15360, 18432,
      21504, 24576, 27648, 30720, 33792, 0,     3072,  6144,  9216,  12288};
  // The home engine's first round also commits the first-touch homes.
  const std::vector<std::int64_t> home_bytes = {
      0,     3072,  6144,  9216,  12288, 15360, 18432, 21504, 24576, 27648,
      30720, 33792, 0,     3072,  6144,  9216,  12288, 15360, 18432, 21504,
      24576, 27648, 30720, 33792, 0,     3072,  6144,  9216,  12288, 15360,
      18432, 21504, 24576, 27648, 30720, 33792, 0,     3072,  6144,  9216};
  const bool lrc = GetParam() == EngineKind::kLrc;
  const auto& want_bytes = lrc ? lrc_bytes : home_bytes;
  sys.start(3);
  sys.run([&](DsmProcess& master) {
    Args args{sys.shared_malloc(kWords * 8), kWords, 0};
    const PageId first = page_of(args.addr);
    ASSERT_EQ(page_base(first), args.addr);
    std::vector<std::uint8_t> packed(sizeof(args));
    for (int r = 0; r < kRounds; ++r) {
      args.round = r;
      std::memcpy(packed.data(), &args, sizeof(args));
      sys.run_parallel(task, packed);
      EXPECT_EQ(master.engine().consistency_bytes(), want_bytes[r])
          << "round " << r;
      // The master writes nothing, so its footprint is its notices; each
      // slab page has two writers and keeps at most one record per writer.
      std::int64_t notices = 0;
      for (Uid uid : sys.team()) {
        const auto& engine = sys.process(uid).engine();
        for (PageId p = 0; p < engine.num_pages(); ++p) {
          const bool slab = p >= first && p < first + kPages;
          EXPECT_LE(engine.page(p).pending.records(), slab ? 2u : 0u)
              << "uid " << uid << " page " << p << " round " << r;
          if (uid == kMasterUid) notices += engine.page(p).pending.notices();
        }
      }
      EXPECT_EQ(notices * protocol::ConsistencyEngine::kPendingNoticeModelBytes,
                master.engine().consistency_bytes());
    }
    master.read_range(args.addr, kWords * 8);
    for (std::int64_t i = 0; i < kWords; ++i) {
      ASSERT_EQ(master.cptr<std::int64_t>(args.addr)[i], kRounds);
    }
  });
  EXPECT_EQ(sys.stats().counter_value("dsm.gc_runs"), lrc ? 3 : 4);
}

// ---------------------------------------------------------------------------
// Avoidable writes reach the GC threshold: private slabs regain the
// sole-copy shortcut (ConsistencyEngine::gc_report_bytes)
// ---------------------------------------------------------------------------

class AvoidableWriteGcTest : public ::testing::TestWithParam<BackendKind> {};

/// What one run of the private-slab task saw.
struct SlabRun {
  std::vector<std::int64_t> write_faults;  // dsm.faults.write per round
  std::vector<std::int64_t> gc_runs;       // dsm.gc_runs after each round
  std::vector<std::uint64_t> words;        // the slabs, read at the end
};

constexpr int kSlabProcs = 4;
constexpr std::int64_t kSlabPages = 128;  // per process
constexpr std::int64_t kWordsPerPage = kPageSize / 8;
constexpr std::int64_t kSlabWords = kSlabPages * kWordsPerPage;
constexpr int kSlabRounds = 24;

/// Every process rewrites its own slab each round and no one reads it.
/// One word per page changes, so twins and diffs stay far below the
/// default 8 MB threshold; the avoidable-write charge alone can reach it.
SlabRun run_private_slabs(BackendKind backend,
                          std::int64_t gc_threshold_bytes) {
  sim::Cluster cluster({}, kSlabProcs);
  DsmConfig cfg;
  static_cast<Knobs&>(cfg) = Knobs::builtin();
  cfg.backend = backend;
  cfg.heap_bytes = 4 << 20;
  cfg.gc_threshold_bytes = gc_threshold_bytes;
  DsmSystem sys(cluster, cfg);
  struct Args {
    GAddr addr;
    std::int64_t round;
  };
  auto task = sys.register_task(
      "private slabs", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        const std::int64_t lo = p.pid() * kSlabWords;
        p.write_range(args.addr + lo * 8, kSlabWords * 8);
        auto* d = p.ptr<std::uint64_t>(args.addr + lo * 8);
        for (std::int64_t pg = 0; pg < kSlabPages; ++pg) {
          d[pg * kWordsPerPage + args.round % kWordsPerPage] +=
              static_cast<std::uint64_t>(args.round * kSlabPages + pg + 1);
        }
      });
  SlabRun out;
  sys.start(kSlabProcs);
  sys.run([&](DsmProcess& master) {
    constexpr std::int64_t kWords = kSlabProcs * kSlabWords;
    Args args{sys.shared_malloc(kWords * 8), 0};
    ASSERT_EQ(page_base(page_of(args.addr)), args.addr);
    std::vector<std::uint8_t> packed(sizeof(args));
    std::int64_t faults = 0;
    for (int r = 0; r < kSlabRounds; ++r) {
      args.round = r;
      std::memcpy(packed.data(), &args, sizeof(args));
      sys.run_parallel(task, packed);
      const std::int64_t now = sys.stats().counter_value("dsm.faults.write");
      out.write_faults.push_back(now - faults);
      faults = now;
      out.gc_runs.push_back(sys.stats().counter_value("dsm.gc_runs"));
    }
    master.read_range(args.addr, kWords * 8);
    const auto* c = master.cptr<std::uint64_t>(args.addr);
    out.words.assign(c, c + kWords);
  });
  return out;
}

TEST_P(AvoidableWriteGcTest, PrivateSlabsRegainTheSoleCopyShortcut) {
  const SlabRun none = run_private_slabs(GetParam(), std::int64_t{1} << 40);
  const SlabRun gc =
      run_private_slabs(GetParam(), DsmConfig{}.gc_threshold_bytes);
  // With no GC, every process but the master (whose seeded copies start
  // exclusive) traps on every slab page in every round.
  EXPECT_EQ(none.gc_runs.back(), 0);
  for (int r = 1; r < kSlabRounds; ++r) {
    EXPECT_EQ(none.write_faults[r], (kSlabProcs - 1) * kSlabPages)
        << "round " << r;
  }
  // Under the default threshold, exactly one GC runs, part way through.
  ASSERT_EQ(gc.gc_runs.back(), 1);
  const int gc_round = static_cast<int>(
      std::find(gc.gc_runs.begin(), gc.gc_runs.end(), 1) -
      gc.gc_runs.begin());
  ASSERT_GT(gc_round, 1);
  ASSERT_LT(gc_round + 2, kSlabRounds);
  for (int r = 1; r <= gc_round; ++r) {
    EXPECT_EQ(gc.write_faults[r], none.write_faults[r]) << "round " << r;
  }
  // After it, each process owns its slab as a sole copy: one trap per page
  // write-enables it, and then the write faults stop.
  EXPECT_EQ(gc.write_faults[gc_round + 1], kSlabProcs * kSlabPages);
  for (int r = gc_round + 2; r < kSlabRounds; ++r) {
    EXPECT_EQ(gc.write_faults[r], 0) << "round " << r;
  }
  EXPECT_EQ(gc.words, none.words);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AvoidableWriteGcTest,
    ::testing::Values(BackendKind::kSim, BackendKind::kReal),
    [](const ::testing::TestParamInfo<BackendKind>& i) {
      return std::string(enum_name(i.param));
    });

// ---------------------------------------------------------------------------
// A GC commit gives back what it frees
// ---------------------------------------------------------------------------

/// (engine, backend) for the GC memory test.
using GcMemoryParam = std::tuple<EngineKind, BackendKind>;

class GcMemoryTest : public ::testing::TestWithParam<GcMemoryParam> {};

/// The test's shared array: 16 pages, split off page bounds.
constexpr std::int64_t kGcWords = 8192;

/// What the tasks saw, summed over processes (the real backend runs them
/// on one thread each).
struct GcMemoryTally {
  std::atomic<std::int64_t> commits_checked{0};
  std::atomic<std::int64_t> copies_dropped{0};
};

/// Right after `p`'s GC commit: its diff arena holds no chunk, no pending
/// list keeps storage, and no page it holds no copy of has a frame — the
/// copies the commit dropped (`had_copy` lists the pages held before it)
/// included.
void expect_commit_gave_memory_back(DsmProcess& p,
                                    const std::vector<bool>& had_copy,
                                    GcMemoryTally& tally) {
  const auto& engine = p.engine();
  if (const auto* lrc = dynamic_cast<const protocol::LrcEngine*>(&engine)) {
    EXPECT_EQ(lrc->diff_arena_reserved(), 0u) << "uid " << p.uid();
  }
  const PageId n = engine.num_pages();
  std::vector<unsigned char> resident(static_cast<std::size_t>(n));
  ASSERT_EQ(mincore(p.region_data(), static_cast<std::size_t>(n) * kPageSize,
                    resident.data()),
            0);
  std::int64_t dropped = 0;
  for (PageId pg = 0; pg < n; ++pg) {
    const auto& pm = engine.page(pg);
    EXPECT_EQ(pm.pending.capacity(), 0u) << "uid " << p.uid() << " page " << pg;
    if (pm.have_copy) continue;
    if (had_copy[static_cast<std::size_t>(pg)]) ++dropped;
    EXPECT_EQ(resident[static_cast<std::size_t>(pg)] & 1, 0)
        << "uid " << p.uid() << " page " << pg << " kept its frame";
  }
  if (const auto* real = dynamic_cast<const exec::RealHeap*>(&p.heap())) {
    // The memfd holds no more than the copies the process still has.
    EXPECT_LE(real->committed_bytes(),
              engine.resident_pages() * static_cast<std::int64_t>(kPageSize))
        << "uid " << p.uid();
  }
  tally.commits_checked++;
  tally.copies_dropped += dropped;
}

TEST_P(GcMemoryTest, EveryCommitGivesBackWhatItFrees) {
  const auto [engine, backend] = GetParam();
  constexpr int kProcs = 4;
  constexpr int kRounds = 4;
  sim::Cluster cluster({}, kProcs);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.engine = engine;
  cfg.backend = backend;
  cfg.race_check = RaceCheckMode::kOff;  // the real backend refuses both
  cfg.trace_file.clear();
  DsmSystem sys(cluster, cfg);
  GcMemoryTally tally;
  struct Args {
    GAddr addr;
    std::int64_t round;
    GcMemoryTally* tally;
  };
  auto task = sys.register_task(
      "gc memory", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        const std::int64_t per = kGcWords / p.nprocs() + 3;
        const std::int64_t lo = std::min(kGcWords, p.pid() * per);
        const std::int64_t hi = std::min(kGcWords, lo + per);
        p.write_range(args.addr + lo * 8,
                      static_cast<std::size_t>(hi - lo) * 8);
        auto* d = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) d[i] = args.round * kGcWords + i;
        p.barrier(1);
        // Every process reads the whole array: boundary pages resolve by
        // diffs under lrc, the rest by full copies it does not own.
        p.read_range(args.addr, kGcWords * 8);
        const auto* c = p.cptr<std::int64_t>(args.addr);
        for (std::int64_t i = 0; i < kGcWords; ++i) {
          ASSERT_EQ(c[i], args.round * kGcWords + i) << "word " << i;
        }
        const auto& engine = p.engine();
        std::vector<bool> had_copy;
        for (PageId pg = 0; pg < engine.num_pages(); ++pg) {
          had_copy.push_back(engine.page(pg).have_copy);
        }
        if (p.is_master()) p.system().request_gc();
        p.barrier(1);  // the GC commits before the release returns
        expect_commit_gave_memory_back(p, had_copy, *args.tally);
      });
  sys.start(kProcs);
  sys.run([&](DsmProcess&) {
    Args args{sys.shared_malloc(kGcWords * 8), 0, &tally};
    std::vector<std::uint8_t> packed(sizeof(args));
    for (int r = 0; r < kRounds; ++r) {
      args.round = r;
      std::memcpy(packed.data(), &args, sizeof(args));
      sys.run_parallel(task, packed);
    }
  });
  EXPECT_GE(sys.stats().counter_value("dsm.gc_runs"), kRounds);
  EXPECT_EQ(tally.commits_checked.load(), kRounds * kProcs);
  EXPECT_GT(tally.copies_dropped.load(), 0);
  if (engine == EngineKind::kLrc) {
    // Diffs were archived, so the releases emptied non-empty arenas.
    EXPECT_GT(sys.stats().counter_value("dsm.diffs_created"), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndBackends, GcMemoryTest,
    ::testing::Combine(::testing::Values(EngineKind::kLrc,
                                         EngineKind::kHomeLrc),
                       ::testing::Values(BackendKind::kSim,
                                         BackendKind::kReal)),
    [](const ::testing::TestParamInfo<GcMemoryParam>& i) {
      return std::string(enum_name(std::get<0>(i.param))) + "_" +
             enum_name(std::get<1>(i.param));
    });

INSTANTIATE_TEST_SUITE_P(Engines, EngineStressTest,
                         ::testing::Values(EngineKind::kLrc,
                                           EngineKind::kHomeLrc),
                         [](const ::testing::TestParamInfo<EngineKind>& i) {
                           return std::string(enum_name(i.param));
                         });

}  // namespace
}  // namespace anow::dsm
