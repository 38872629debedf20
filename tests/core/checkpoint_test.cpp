// Tests for checkpointing at adaptation points and crash recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "dsm/system.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"

namespace anow::core {
namespace {

using dsm::DsmConfig;
using dsm::DsmProcess;
using dsm::DsmSystem;
using dsm::GAddr;

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

DsmConfig small_config() {
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.private_image_bytes = 1 << 20;
  return cfg;
}

constexpr std::int64_t kN = 8192;

std::int32_t register_inc(DsmSystem& sys) {
  return sys.register_task(
      "inc", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<IterArgs>(a);
        const std::int64_t per = args.count / p.nprocs();
        const std::int64_t lo = p.pid() * per;
        const std::int64_t hi =
            p.pid() == p.nprocs() - 1 ? args.count : lo + per;
        p.write_range(args.addr + lo * 8, (hi - lo) * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) data[i] += 1;
      });
}

TEST(Checkpoint, ImageRoundTripsThroughDisk) {
  CheckpointImage img;
  img.taken_at = 123456789;
  img.heap_brk = 4096;
  img.app_state = {1, 2, 3, 4};
  img.region.assign(65536, 0);
  img.region[7] = 0xAB;
  const std::string path = testing::TempDir() + "/anow_ckpt_test.bin";
  img.save_to_file(path);
  CheckpointImage back = CheckpointImage::load_from_file(path);
  EXPECT_EQ(back.taken_at, img.taken_at);
  EXPECT_EQ(back.heap_brk, img.heap_brk);
  EXPECT_EQ(back.app_state, img.app_state);
  EXPECT_EQ(back.region, img.region);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/anow_ckpt_garbage.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  EXPECT_THROW(CheckpointImage::load_from_file(path), util::CheckError);
  std::remove(path.c_str());
}

TEST(Checkpoint, TakeCollectsPagesAndChargesTime) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, small_config());
  Checkpointer ckpt(sys);
  auto task = register_inc(sys);
  sys.start(4);
  CheckpointImage img;
  sim::Time before = 0, after = 0;
  sys.run([&](DsmProcess& m) {
    const GAddr addr = sys.shared_malloc(kN * 8);
    m.write_range(addr, kN * 8);
    std::memset(m.ptr<std::int64_t>(addr), 0, kN * 8);
    for (int r = 0; r < 5; ++r) sys.run_parallel(task, pack(IterArgs{addr, kN}));
    before = m.now();
    img = ckpt.take(pack(std::int64_t{5}));
    after = m.now();
  });
  EXPECT_EQ(ckpt.stats().checkpoints_taken, 1);
  // Slaves wrote pages the master did not have: collection fetched them.
  EXPECT_GT(ckpt.stats().pages_collected, 0);
  // Disk write of a ~2 MB image at 8.1 MB/s is ~0.25 s.
  EXPECT_GT(after - before, sim::from_seconds(0.1));
  EXPECT_EQ(unpack<std::int64_t>(img.app_state), 5);
}

TEST(Checkpoint, RecoveryResumesAndMatchesUninterruptedRun) {
  const std::string path = testing::TempDir() + "/anow_ckpt_recovery.bin";
  constexpr int kTotalRounds = 10;
  constexpr int kCrashAfter = 6;

  // Reference: uninterrupted run.
  std::vector<std::int64_t> expected(kN);
  {
    sim::Cluster cluster({}, 4);
    DsmSystem sys(cluster, small_config());
    auto task = register_inc(sys);
    sys.start(4);
    sys.run([&](DsmProcess& m) {
      const GAddr addr = sys.shared_malloc(kN * 8);
      m.write_range(addr, kN * 8);
      auto* data = m.ptr<std::int64_t>(addr);
      for (std::int64_t i = 0; i < kN; ++i) data[i] = i % 7;
      for (int r = 0; r < kTotalRounds; ++r) {
        sys.run_parallel(task, pack(IterArgs{addr, kN}));
      }
      m.read_range(addr, kN * 8);
      std::memcpy(expected.data(), m.cptr<std::int64_t>(addr), kN * 8);
    });
  }

  // Crashing run: checkpoint after kCrashAfter rounds, then "crash" (the
  // run simply ends; everything in memory is lost).
  {
    sim::Cluster cluster({}, 4);
    DsmSystem sys(cluster, small_config());
    Checkpointer ckpt(sys);
    auto task = register_inc(sys);
    sys.start(4);
    sys.run([&](DsmProcess& m) {
      const GAddr addr = sys.shared_malloc(kN * 8);
      m.write_range(addr, kN * 8);
      auto* data = m.ptr<std::int64_t>(addr);
      for (std::int64_t i = 0; i < kN; ++i) data[i] = i % 7;
      for (int r = 0; r < kCrashAfter; ++r) {
        sys.run_parallel(task, pack(IterArgs{addr, kN}));
      }
      ckpt.take(pack(std::int64_t{kCrashAfter})).save_to_file(path);
      // crash: abandon the remaining rounds
    });
  }

  // Recovery: fresh system, restore, resume from the recorded cursor.
  {
    sim::Cluster cluster({}, 4);
    DsmSystem sys(cluster, small_config());
    auto task = register_inc(sys);
    sys.start(4);
    CheckpointImage img = CheckpointImage::load_from_file(path);
    const auto resume_round = unpack<std::int64_t>(img.app_state);
    EXPECT_EQ(resume_round, kCrashAfter);
    sys.run([&](DsmProcess& m) {
      const GAddr addr = sys.shared_malloc(kN * 8);  // same layout
      Checkpointer::restore(sys, img);
      for (int r = static_cast<int>(resume_round); r < kTotalRounds; ++r) {
        sys.run_parallel(task, pack(IterArgs{addr, kN}));
      }
      m.read_range(addr, kN * 8);
      const auto* data = m.cptr<std::int64_t>(addr);
      for (std::int64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(data[i], expected[i]) << "at index " << i;
      }
    });
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// GC validation and the checkpoint sweep fault pages in through the same
// resolver as read_range (DESIGN.md §7 rule 3), but each counts its pages
// apart from the read faults: dsm.gc_validation_faults and
// ckpt.pages_collected, never dsm.faults.read.  Every process writes
// interleaved words of the same 4 pages, so post-GC owners hold stale
// copies: under lrc the last writer (uid 3) lacks the others' diffs; under
// home the round-robin homes lack the words the others flushed to the
// master, the old home, and full copies resolve them.  The master's writes
// ride its sole initial copies and announce nothing, so the concurrent
// writers are uids 1-3 and the homes uids 1, 2, 3, 1: uid 1's two pages
// share one request envelope.
// ---------------------------------------------------------------------------

class GcAndSweepCounters : public ::testing::TestWithParam<dsm::EngineKind> {};

TEST_P(GcAndSweepCounters, ValidationAndSweepAreNotReadFaults) {
  constexpr int kProcs = 4;
  constexpr std::int64_t kWords = 4 * 512;  // 4 pages of int64
  const bool lrc = GetParam() == dsm::EngineKind::kLrc;
  sim::Cluster cluster({}, kProcs);
  DsmConfig cfg = small_config();
  static_cast<dsm::Knobs&>(cfg) = dsm::Knobs::builtin();
  cfg.engine = GetParam();
  DsmSystem sys(cluster, cfg);
  Checkpointer ckpt(sys);
  const auto task = sys.register_task(
      "interleave", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        const auto args = unpack<IterArgs>(a);
        p.write_range(args.addr, args.count * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = p.pid(); i < args.count; i += p.nprocs()) {
          data[i] = 1000 + i;
        }
      });
  sys.start(kProcs);
  const auto& stats = sys.stats();
  CheckpointImage img;
  GAddr addr = 0;
  sys.run([&](DsmProcess&) {
    addr = sys.shared_malloc(kWords * 8);
    sys.run_parallel(task, pack(IterArgs{addr, kWords}));
    // The slaves' write faults alone: the master started with every page,
    // and home's assignment round at the join barrier validated all 4.
    EXPECT_EQ(stats.counter_value("dsm.faults.read"), (kProcs - 1) * 4);
    EXPECT_EQ(stats.counter_value("dsm.gc_validation_faults"), lrc ? 0 : 4);
    // lrc's GC runs in the checkpoint, before the sweep.
    img = ckpt.take({});
    EXPECT_EQ(stats.counter_value("dsm.faults.read"), (kProcs - 1) * 4);
    EXPECT_EQ(stats.counter_value("dsm.gc_validation_faults"), 4);
  });
  // The GC dropped the master's copies of the 4 pages others own.
  EXPECT_EQ(ckpt.stats().pages_collected, 4);
  EXPECT_EQ(stats.counter_value("dsm.home_validation_faults"), 0);
  std::vector<std::int64_t> words(kWords);
  std::memcpy(words.data(), img.region.data() + addr, kWords * 8);
  for (std::int64_t i = 0; i < kWords; ++i) {
    ASSERT_EQ(words[i], 1000 + i) << "at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, GcAndSweepCounters,
                         ::testing::Values(dsm::EngineKind::kLrc,
                                           dsm::EngineKind::kHomeLrc),
                         [](const auto& info) {
                           return std::string(dsm::enum_name(info.param));
                         });

}  // namespace
}  // namespace anow::core
