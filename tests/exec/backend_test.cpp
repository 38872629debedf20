// Execution-backend tests (DESIGN.md §14).
//
// Four layers of coverage:
//  * unit tests for the real backend's building blocks (the SPSC ring,
//    RealHeap's dual mapping and per-page protection, and the CPU count
//    behind the runtime's spin window), and for what both heaps share:
//    guard pages around every view and memory committed on first write;
//  * differential tests: every Table 1 workload (+ hotspot) at test size,
//    run under --backend sim and --backend real, must produce bit-identical
//    checksums and agree on the deterministic protocol statistics, with no
//    park ending on the runtime's lost-wakeup ceiling — also on one CPU,
//    where every wait parks, and with adaptive placement re-homing pages;
//  * helping: a waiting process serves a peer whose task body computes
//    without a DSM call, except a request for a page the body has
//    write-declared, which waits for the body's next DSM call;
//  * error paths: everything that needs the virtual clock (tracing, race
//    checking, adaptation events) is rejected up front with a
//    util::CheckError under --backend real, and in checked builds an access
//    outside every declared range dies.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "dsm/system.hpp"
#include "exec/heap.hpp"
#include "exec/real_runtime.hpp"
#include "exec/spsc_queue.hpp"
#include "harness/runner.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"

namespace anow {
namespace {

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

TEST(SpscQueue, FifoSingleThread) {
  exec::SpscQueue<int> q(8);
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(int(i)));
  EXPECT_FALSE(q.try_push(99));  // full at capacity
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, FifoAcrossThreads) {
  constexpr int kN = 100000;
  exec::SpscQueue<int> q(64);
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) {
      while (!q.try_push(int(i))) std::this_thread::yield();
    }
  });
  int expect = 0;
  while (expect < kN) {
    int v = -1;
    if (q.try_pop(v)) {
      ASSERT_EQ(v, expect);  // strict FIFO, nothing lost or duplicated
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// RealHeap protection
// ---------------------------------------------------------------------------

TEST(RealHeap, ViewsAliasTheSamePages) {
  exec::RealHeap heap(4 * exec::kPageBytes);
  heap.prot_base()[10] = 0x5A;  // protocol view is always writable
  heap.set_access(0, 1, exec::PageAccess::kWrite);
  EXPECT_EQ(heap.app_base()[10], 0x5A);  // same physical page
}

TEST(RealHeap, WriteAccessOpensPageInBothViews) {
  exec::RealHeap heap(4 * exec::kPageBytes);
  heap.set_access(1, 1, exec::PageAccess::kWrite);
  EXPECT_EQ(heap.access(1), exec::PageAccess::kWrite);
  std::uint8_t* app = heap.app_base() + exec::kPageBytes;
  std::uint8_t* prot = heap.prot_base() + exec::kPageBytes;
  app[7] = 0xCD;  // a store through the app view lands in the protocol view
  EXPECT_EQ(prot[7], 0xCD);
  prot[8] = 0xAB;  // and a protocol write is visible to the application
  EXPECT_EQ(app[8], 0xAB);
}

TEST(RealHeapDeathTest, LoadFromInvalidPageDies) {
  // A fresh heap has every page at kNone: an application load from a page
  // no declaration faulted in dies at the faulting instruction.  The
  // statement can only end by dying, so a load that succeeded fails the
  // test.
  exec::RealHeap heap(2 * exec::kPageBytes);
  heap.set_access(0, 1, exec::PageAccess::kWrite);
  ASSERT_EQ(heap.access(1), exec::PageAccess::kNone);
  const volatile std::uint8_t* app = heap.app_base();
  EXPECT_EQ(app[0], 0);  // the opened page reads fine
  EXPECT_DEATH((void)app[exec::kPageBytes], "");
}

// Ranged set_access: one mprotect per maximal sub-run whose recorded state
// differs from the target, none for pages already there.

TEST(RealHeap, RangedSetAccessIsOneCallPerRun) {
  exec::RealHeap heap(8 * exec::kPageBytes);  // fresh: every page kNone
  heap.set_access(0, 8, exec::PageAccess::kWrite);
  EXPECT_EQ(heap.protect_calls(), 1);
  for (std::int32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(heap.access(p), exec::PageAccess::kWrite);
  }
}

TEST(RealHeap, RangedSetAccessSkipsPagesAlreadyThere) {
  exec::RealHeap heap(8 * exec::kPageBytes);
  heap.set_access(2, 2, exec::PageAccess::kWrite);
  EXPECT_EQ(heap.protect_calls(), 1);
  // Pages 2-3 already writable: the range splits into 0-1 and 4-7.
  heap.set_access(0, 8, exec::PageAccess::kWrite);
  EXPECT_EQ(heap.protect_calls(), 3);
  // Re-applying the current state costs nothing.
  heap.set_access(0, 8, exec::PageAccess::kWrite);
  heap.set_access(3, 4, exec::PageAccess::kWrite);
  EXPECT_EQ(heap.protect_calls(), 3);
}

// ---------------------------------------------------------------------------
// Heap reservation: guard pages, commit on first write
// ---------------------------------------------------------------------------

// Every view sits between two PROT_NONE guard pages: a store one byte past
// either end dies at the faulting instruction instead of landing in
// whatever mapping comes next.  Each view is fully open first, so only the
// guard can stop the store.  The empty pattern also accepts ASan's exit
// code for the SIGSEGV it intercepts.
void expect_stores_beside_view_die(std::uint8_t* view, std::size_t bytes) {
  volatile std::uint8_t* v = view;
  v[0] = 1;  // both ends of the view itself take stores
  v[bytes - 1] = 1;
  EXPECT_DEATH(v[bytes] = 1, "");
  EXPECT_DEATH(*(v - 1) = 1, "");
}

TEST(SimHeapDeathTest, StoreBesideTheViewDies) {
  exec::SimHeap heap(8 * exec::kPageBytes);
  expect_stores_beside_view_die(heap.app_base(), heap.bytes());
}

TEST(RealHeapDeathTest, StoreBesideTheAppViewDies) {
  exec::RealHeap heap(8 * exec::kPageBytes);
  heap.set_access(0, heap.npages(), exec::PageAccess::kWrite);
  expect_stores_beside_view_die(heap.app_base(), heap.bytes());
}

TEST(RealHeapDeathTest, StoreBesideTheProtocolViewDies) {
  exec::RealHeap heap(8 * exec::kPageBytes);
  expect_stores_beside_view_die(heap.prot_base(), heap.bytes());
}

// A heap reserves address space; a page is committed by its first write.
// Three stores far apart must commit at least their three pages and far
// fewer than the heap: under transparent huge pages set to `always`, each
// store may be backed by a 2 MiB page.

constexpr std::size_t kBigHeapBytes = std::size_t{64} << 20;

std::size_t resident_pages(std::uint8_t* base, std::size_t bytes) {
  std::vector<unsigned char> vec(bytes / exec::kPageBytes);
  EXPECT_EQ(mincore(base, bytes, vec.data()), 0);
  return static_cast<std::size_t>(std::count_if(
      vec.begin(), vec.end(), [](unsigned char c) { return (c & 1) != 0; }));
}

void store_to_three_pages(std::uint8_t* base, std::size_t bytes) {
  base[0] = 1;
  base[bytes / 2] = 1;
  base[bytes - 1] = 1;
}

TEST(SimHeap, CommitsOnlyTouchedPages) {
  exec::SimHeap heap(kBigHeapBytes);
  const auto npages = static_cast<std::size_t>(heap.npages());
  EXPECT_EQ(resident_pages(heap.app_base(), heap.bytes()), 0u);
  store_to_three_pages(heap.app_base(), heap.bytes());
  const std::size_t resident = resident_pages(heap.app_base(), heap.bytes());
  EXPECT_GE(resident, 3u);
  EXPECT_LT(resident, npages / 8);
}

TEST(RealHeap, CommitsOnlyTouchedPages) {
  exec::RealHeap heap(kBigHeapBytes);
  const auto npages = static_cast<std::size_t>(heap.npages());
  EXPECT_EQ(resident_pages(heap.prot_base(), heap.bytes()), 0u);
  store_to_three_pages(heap.prot_base(), heap.bytes());
  const std::size_t resident = resident_pages(heap.prot_base(), heap.bytes());
  EXPECT_GE(resident, 3u);
  EXPECT_LT(resident, npages / 8);
}

/// Fills pages [0, 8) of `base` with 0xAB, discards pages 2..5 and checks
/// that exactly those pages lost their frames.
void fill_and_discard(exec::ProcessHeap& heap, std::uint8_t* base) {
  constexpr std::size_t kPages = 8;
  std::memset(base, 0xAB, kPages * exec::kPageBytes);
  EXPECT_EQ(resident_pages(base, kPages * exec::kPageBytes), kPages);
  heap.discard(2, 4);
  std::vector<unsigned char> vec(kPages);
  ASSERT_EQ(mincore(base, kPages * exec::kPageBytes, vec.data()), 0);
  for (std::size_t p = 0; p < kPages; ++p) {
    EXPECT_EQ((vec[p] & 1) != 0, p < 2 || p >= 6) << "page " << p;
  }
}

/// After fill_and_discard: the discarded pages read as zero, the rest kept
/// their bytes.
void expect_discarded_read_zero(const std::uint8_t* base) {
  for (std::size_t p = 0; p < 8; ++p) {
    const std::uint8_t want = p < 2 || p >= 6 ? 0xAB : 0;
    EXPECT_EQ(base[p * exec::kPageBytes], want) << "page " << p;
    EXPECT_EQ(base[(p + 1) * exec::kPageBytes - 1], want) << "page " << p;
  }
}

TEST(SimHeap, DiscardGivesFramesBack) {
  exec::SimHeap heap(16 * exec::kPageBytes);
  fill_and_discard(heap, heap.prot_base());
  expect_discarded_read_zero(heap.prot_base());
}

TEST(RealHeap, DiscardPunchesThePagesOutOfTheMemfd) {
  exec::RealHeap heap(16 * exec::kPageBytes);
  heap.set_access(0, 16, exec::PageAccess::kWrite);
  EXPECT_EQ(heap.committed_bytes(), 0);
  fill_and_discard(heap, heap.prot_base());
  // The memfd holds the four pages left, and both views see the holes
  // (reading a hole through a shared view commits it again, so last).
  EXPECT_EQ(heap.committed_bytes(),
            static_cast<std::int64_t>(4 * exec::kPageBytes));
  expect_discarded_read_zero(heap.app_base());
  expect_discarded_read_zero(heap.prot_base());
}

// ---------------------------------------------------------------------------
// Spin window
// ---------------------------------------------------------------------------

/// Runs `fn` on a helper thread whose affinity mask holds one CPU of this
/// thread's mask, so this thread's mask stays as it was, and threads `fn`
/// starts inherit the one CPU.  Returns pthread_setaffinity_np's status;
/// `fn` runs only if it is 0.
int on_one_cpu(const std::function<void()>& fn) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return errno;
  int cpu = 0;
  while (!CPU_ISSET(cpu, &mask)) ++cpu;
  int status = -1;
  std::thread helper([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    status = pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    if (status == 0) fn();
  });
  helper.join();
  return status;
}

TEST(RealRuntime, UsableCpusCountsTheAffinityMask) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(exec::usable_cpus(), CPU_COUNT(&mask));

  // Under a one-CPU mask the count is 1 however many CPUs are online.
  int seen = -1;
  ASSERT_EQ(on_one_cpu([&] { seen = exec::usable_cpus(); }), 0);
  EXPECT_EQ(seen, 1);
}

// ---------------------------------------------------------------------------
// Differential: sim vs real
// ---------------------------------------------------------------------------

/// Pins the knobs --backend real refuses, so an ambient ANOW_RACE_CHECK or
/// ANOW_TRACE cannot turn a real-backend config into a guard failure.  The
/// guard tests below set exactly one of them back.
harness::RunConfig real_compatible(harness::RunConfig cfg) {
  cfg.race_check = dsm::RaceCheckMode::kOff;
  cfg.trace_file.clear();
  return cfg;
}

harness::RunConfig test_config(const std::string& app,
                               dsm::BackendKind backend,
                               dsm::EngineKind engine) {
  harness::RunConfig cfg;
  cfg.app = app;
  cfg.size = apps::Size::kTest;
  cfg.nprocs = 4;
  cfg.adaptive = false;
  cfg.backend = backend;
  cfg.engine = engine;
  return real_compatible(cfg);
}

harness::RunResult run_once(const std::string& app, dsm::BackendKind backend,
                            dsm::EngineKind engine) {
  return harness::run_workload(test_config(app, backend, engine));
}

class BackendDifferential
    : public ::testing::TestWithParam<std::tuple<const char*, dsm::EngineKind>> {
};

TEST_P(BackendDifferential, RealMatchesSim) {
  const auto [app, engine] = GetParam();
  const harness::RunResult sim = run_once(app, dsm::BackendKind::kSim, engine);
  const harness::RunResult real =
      run_once(app, dsm::BackendKind::kReal, engine);

  // Bit-identical results: the protocol decides what bytes land where, and
  // the protocol is the same object code under both backends.
  EXPECT_EQ(real.checksum, sim.checksum) << app;

  // Synchronization structure is workload-determined, so it must agree
  // exactly (traffic totals can legally differ: real delivery interleavings
  // shift which updates ride which fetch).  So must the write faults: both
  // backends detect a write by its write_range declaration, through the
  // same code.
  EXPECT_EQ(real.stats.counter("dsm.faults.write"),
            sim.stats.counter("dsm.faults.write"))
      << app;
  EXPECT_EQ(real.stats.counter("dsm.barriers"),
            sim.stats.counter("dsm.barriers"));
  EXPECT_EQ(real.stats.counter("dsm.forks"), sim.stats.counter("dsm.forks"));
  EXPECT_EQ(real.stats.counter("dsm.gc_runs"),
            sim.stats.counter("dsm.gc_runs"));
  EXPECT_GT(real.messages, 0);
  EXPECT_GT(real.seconds, 0.0);  // wall clock advanced
  // Only threads help one another.
  EXPECT_EQ(sim.stats.counter("exec.helped"), 0);
  EXPECT_EQ(sim.stats.counter("exec.deferred_serves"), 0);
  // Every wake reached its parker: none waited out the runtime's ceiling
  // with work pending.
  EXPECT_EQ(real.stats.counters.count("exec.park_timeouts"), 1u);
  EXPECT_EQ(real.stats.counter("exec.park_timeouts"), 0) << app;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BackendDifferential,
    ::testing::Combine(::testing::Values("jacobi", "gauss", "fft3d", "nbf",
                                         "hotspot"),
                       ::testing::Values(dsm::EngineKind::kLrc,
                                         dsm::EngineKind::kHomeLrc)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             dsm::enum_name(std::get<1>(info.param));
    });

// On one CPU the runtime does not spin (usable_cpus() is below nprocs), so
// every wait parks on its futex and every message needs a wake.  No spin
// then covers a lost wakeup: it would end a park on the ceiling.
class BackendOnOneCpu : public BackendDifferential {};

TEST_P(BackendOnOneCpu, EveryWaitParksAndNoWakeIsLost) {
  const auto [app, engine] = GetParam();
  const harness::RunResult sim = run_once(app, dsm::BackendKind::kSim, engine);
  harness::RunResult real;
  std::string error;
  ASSERT_EQ(on_one_cpu([&] {
              try {
                real = run_once(app, dsm::BackendKind::kReal, engine);
              } catch (const std::exception& e) {
                error = e.what();
              }
            }),
            0);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(real.checksum, sim.checksum) << app;
  EXPECT_EQ(real.stats.counters.count("exec.park_timeouts"), 1u);
  EXPECT_EQ(real.stats.counter("exec.park_timeouts"), 0) << app;
}

INSTANTIATE_TEST_SUITE_P(
    ForkJoinAndStencil, BackendOnOneCpu,
    ::testing::Combine(::testing::Values("jacobi", "gauss"),
                       ::testing::Values(dsm::EngineKind::kLrc,
                                         dsm::EngineKind::kHomeLrc)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             dsm::enum_name(std::get<1>(info.param));
    });

// Adaptive placement runs on the master's thread under both backends: the
// write records it decides on come from the logged intervals, which the
// workload fixes, so real must re-home the same pages in the same GC rounds.
class BackendPlacement : public ::testing::TestWithParam<int> {};

TEST_P(BackendPlacement, AdaptiveRealMatchesSim) {
  const int shards = GetParam();
  auto run = [shards](dsm::BackendKind backend) {
    harness::RunConfig cfg =
        test_config("hotspot", backend, dsm::EngineKind::kHomeLrc);
    cfg.dir_shards = shards;
    cfg.placement = dsm::PlacementMode::kAdaptive;
    return harness::run_workload(cfg);
  };
  const harness::RunResult sim = run(dsm::BackendKind::kSim);
  const harness::RunResult real = run(dsm::BackendKind::kReal);
  ASSERT_GT(sim.stats.counter("dsm.placement.home_moves"), 0)
      << "hotspot under the home engine must re-home pages";
  EXPECT_EQ(real.checksum, sim.checksum);
  for (const char* name :
       {"dsm.placement.home_moves", "dsm.placement.home_moves_adopted",
        "dsm.gc_runs"}) {
    EXPECT_EQ(real.stats.counter(name), sim.stats.counter(name)) << name;
  }
  EXPECT_EQ(real.stats.counters.count("exec.park_timeouts"), 1u);
  EXPECT_EQ(real.stats.counter("exec.park_timeouts"), 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, BackendPlacement, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Helping: a waiter runs the closures of a peer whose task body computes
// ---------------------------------------------------------------------------

/// Three processes on threads: the master idles in every construct, pid 1
/// writes a page, and pid 2 then fetches it while pid 1's body computes.
dsm::DsmConfig helping_config(dsm::EngineKind engine) {
  dsm::DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.backend = dsm::BackendKind::kReal;
  cfg.engine = engine;
  cfg.dir_shards = 1;  // the master starts with every page
  cfg.placement = dsm::PlacementMode::kStatic;
  cfg.fanout = dsm::kUnboundedFanout;
  cfg.race_check = dsm::RaceCheckMode::kOff;
  cfg.trace_file.clear();
  return cfg;
}

/// How long a body computes waiting for its peer before it gives up: a
/// runtime that does not help fails the test after this instead of hanging.
constexpr std::chrono::seconds kHelpDeadline{5};

/// Spins, with no DSM call, until `done()` holds or kHelpDeadline passes;
/// returns whether `done()` held.
template <typename Done>
bool compute_until(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kHelpDeadline;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
  }
  return true;
}

using Body = std::function<void(dsm::DsmProcess&)>;

/// Runs `first` then `second` as two constructs and returns the stats.  The
/// word at `addr` + 8 * i is slot i of a two-page shared array.
util::StatsRegistry::Snapshot run_two_constructs(
    dsm::EngineKind engine, dsm::GAddr& addr, const Body& first,
    const Body& second, const Body& check) {
  sim::Cluster cluster({}, 3);
  dsm::DsmSystem sys(cluster, helping_config(engine));
  auto as_task = [](const Body& body) {
    return [&body](dsm::DsmProcess& p,
                   const std::vector<std::uint8_t>& /*args*/) { body(p); };
  };
  const std::int32_t t1 = sys.register_task("first", as_task(first));
  const std::int32_t t2 = sys.register_task("second", as_task(second));
  sys.start(3);
  sys.run([&](dsm::DsmProcess& master) {
    addr = sys.shared_malloc(2 * exec::kPageBytes);
    sys.run_parallel(t1, {});
    sys.run_parallel(t2, {});
    check(master);
  });
  return sys.stats().snapshot();
}

class BackendHelping : public ::testing::TestWithParam<dsm::EngineKind> {};

TEST_P(BackendHelping, WaiterServesAPeerThatComputes) {
  // pid 1 computes, with no DSM call, until pid 2's fetch of the page pid 1
  // last wrote completes.  pid 2 fetches only once pid 1 computes, so only
  // a waiting process can serve the fetch: the requester itself, or the
  // master in its join barrier.
  dsm::GAddr addr = 0;
  std::atomic<bool> computing{false};
  std::atomic<bool> fetched{false};
  bool served_while_computing = false;
  std::int64_t seen = 0;
  const auto stats = run_two_constructs(
      GetParam(), addr,
      [&](dsm::DsmProcess& p) {
        if (p.pid() != 1) return;
        p.write_range(addr, 8);
        *p.ptr<std::int64_t>(addr) = 42;
      },
      [&](dsm::DsmProcess& p) {
        if (p.pid() == 1) {
          computing.store(true, std::memory_order_release);
          served_while_computing = compute_until(
              [&] { return fetched.load(std::memory_order_acquire); });
        } else if (p.pid() == 2) {
          compute_until([&] { return computing.load(); });
          p.read_range(addr, 8);
          seen = *p.cptr<std::int64_t>(addr);
          fetched.store(true, std::memory_order_release);
        }
      },
      [](dsm::DsmProcess&) {});
  EXPECT_TRUE(served_while_computing)
      << "the fetch waited for the computing peer's next DSM call";
  EXPECT_EQ(seen, 42);
  EXPECT_GT(stats.counter("exec.helped"), 0);
  EXPECT_EQ(stats.counter("exec.deferred_serves"), 0);
  EXPECT_EQ(stats.counter("exec.park_timeouts"), 0);
}

TEST_P(BackendHelping, RequestForAPageTheBodyWritesWaitsForItsNextCall) {
  // pid 1 write-declares the page and stores to slot 0, then computes while
  // pid 2 fetches the page to read slot 1.  A helper may not copy a page
  // the body may be storing to: the request waits for pid 1's next DSM
  // call, which serves it before its own work.
  dsm::GAddr addr = 0;
  std::atomic<bool> computing{false};
  bool deferred_while_computing = false;
  std::int64_t seen = 0;
  std::int64_t final0 = 0;
  std::int64_t final1 = 0;
  const auto stats = run_two_constructs(
      GetParam(), addr,
      [&](dsm::DsmProcess& p) {
        if (p.pid() != 1) return;
        p.write_range(addr + 8, 8);
        p.ptr<std::int64_t>(addr)[1] = 7;
      },
      [&](dsm::DsmProcess& p) {
        if (p.pid() == 1) {
          const auto* counter =
              p.system().stats().handle("exec.deferred_serves");
          p.write_range(addr, 8);
          p.ptr<std::int64_t>(addr)[0] = 99;
          computing.store(true, std::memory_order_release);
          deferred_while_computing =
              compute_until([&] { return counter->load() > 0; });
          p.read_range(addr, 8);  // the next DSM call serves the request
        } else if (p.pid() == 2) {
          compute_until([&] { return computing.load(); });
          p.read_range(addr + 8, 8);
          seen = p.cptr<std::int64_t>(addr)[1];
        }
      },
      [&](dsm::DsmProcess& master) {
        master.read_range(addr, 16);
        final0 = master.cptr<std::int64_t>(addr)[0];
        final1 = master.cptr<std::int64_t>(addr)[1];
      });
  EXPECT_TRUE(deferred_while_computing)
      << "no helper left the request for the writing body";
  EXPECT_EQ(stats.counter("exec.deferred_serves"), 1);
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(final0, 99);
  EXPECT_EQ(final1, 7);
  EXPECT_EQ(stats.counter("exec.park_timeouts"), 0);
}

TEST_P(BackendHelping, BatchedRequestServesTheUndeclaredPageAtOnce) {
  // pid 1 writes both pages, then write-declares only the second and
  // computes while pid 2 reads both with one read_range: one request
  // envelope holds both pages.  A helper serves the first page at once and
  // leaves the second for pid 1's next DSM call.
  constexpr std::int64_t kSecond =
      static_cast<std::int64_t>(exec::kPageBytes / sizeof(std::int64_t));
  dsm::GAddr addr = 0;
  std::atomic<bool> computing{false};
  bool first_served_while_computing = false;
  std::int64_t seen_first = 0;
  std::int64_t seen_second = 0;
  std::int64_t final_second = 0;
  const auto stats = run_two_constructs(
      GetParam(), addr,
      [&](dsm::DsmProcess& p) {
        if (p.pid() != 1) return;
        p.write_range(addr, 2 * exec::kPageBytes);
        p.ptr<std::int64_t>(addr)[0] = 5;
        p.ptr<std::int64_t>(addr)[kSecond] = 6;
      },
      [&](dsm::DsmProcess& p) {
        if (p.pid() == 1) {
          auto& registry = p.system().stats();
          const auto* deferred = registry.handle("exec.deferred_serves");
          const auto* served = registry.handle("dsm.page_fetches");
          const std::int64_t served_before = served->load();
          p.write_range(addr + 8 * (kSecond + 1), 8);
          p.ptr<std::int64_t>(addr)[kSecond + 1] = 99;
          computing.store(true, std::memory_order_release);
          first_served_while_computing = compute_until([&] {
            return deferred->load() > 0 && served->load() > served_before;
          });
          p.read_range(addr, 8);  // the next DSM call serves the second
        } else if (p.pid() == 2) {
          compute_until([&] { return computing.load(); });
          p.read_range(addr, 2 * exec::kPageBytes);
          seen_first = p.cptr<std::int64_t>(addr)[0];
          seen_second = p.cptr<std::int64_t>(addr)[kSecond];
        }
      },
      [&](dsm::DsmProcess& master) {
        master.read_range(addr, 2 * exec::kPageBytes);
        final_second = master.cptr<std::int64_t>(addr)[kSecond + 1];
      });
  EXPECT_TRUE(first_served_while_computing)
      << "the undeclared page waited for the computing peer's next DSM call";
  EXPECT_EQ(stats.counter("exec.deferred_serves"), 1);
  EXPECT_EQ(seen_first, 5);
  EXPECT_EQ(seen_second, 6);
  EXPECT_EQ(final_second, 99);
  EXPECT_EQ(stats.counter("exec.park_timeouts"), 0);
}

INSTANTIATE_TEST_SUITE_P(Engines, BackendHelping,
                         ::testing::Values(dsm::EngineKind::kLrc,
                                           dsm::EngineKind::kHomeLrc),
                         [](const auto& info) {
                           return std::string(dsm::enum_name(info.param));
                         });

TEST(BackendDifferential, SimIsDeterministic) {
  // Pinning --backend sim must stay byte-identical run to run: same
  // checksum, same full stats snapshot.
  const harness::RunResult a =
      run_once("jacobi", dsm::BackendKind::kSim, dsm::EngineKind::kLrc);
  const harness::RunResult b =
      run_once("jacobi", dsm::BackendKind::kSim, dsm::EngineKind::kLrc);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.stats.counters, b.stats.counters);
}

// ---------------------------------------------------------------------------
// Real-backend error paths
// ---------------------------------------------------------------------------

harness::RunConfig real_config() {
  harness::RunConfig cfg;
  cfg.app = "jacobi";
  cfg.size = apps::Size::kTest;
  cfg.nprocs = 2;
  cfg.adaptive = false;
  cfg.backend = dsm::BackendKind::kReal;
  return real_compatible(cfg);
}

TEST(BackendGuards, TracingRejectedUnderReal) {
  harness::RunConfig cfg = real_config();
  cfg.trace_file = "/tmp/anow_never_written.json";
  EXPECT_THROW(harness::run_workload(cfg), util::CheckError);
}

TEST(BackendGuards, TimeAttributionRejectedUnderReal) {
  harness::RunConfig cfg = real_config();
  cfg.time_attribution = true;
  EXPECT_THROW(harness::run_workload(cfg), util::CheckError);
}

TEST(BackendGuards, RaceCheckRejectedUnderReal) {
  harness::RunConfig cfg = real_config();
  cfg.race_check = dsm::RaceCheckMode::kWord;
  EXPECT_THROW(harness::run_workload(cfg), util::CheckError);
}

TEST(BackendGuards, AdaptEventsRejectedUnderReal) {
  harness::RunConfig cfg = real_config();
  cfg.adaptive = true;
  core::AdaptEvent ev;
  ev.kind = core::AdaptKind::kJoin;
  cfg.events.push_back(ev);
  EXPECT_THROW(harness::run_workload(cfg), util::CheckError);
}

TEST(BackendDeathTest, MasterCheckFailureIsReported) {
  // The slave threads are still running when the master's check fails, so
  // the error must not unwind the DsmSystem out from under them: the run
  // reports the check's message and aborts.
  EXPECT_DEATH(
      {
        sim::Cluster cluster({}, 2);
        dsm::DsmConfig cfg;
        cfg.heap_bytes = 1 << 20;
        cfg.backend = dsm::BackendKind::kReal;
        cfg.race_check = dsm::RaceCheckMode::kOff;
        cfg.trace_file.clear();
        dsm::DsmSystem sys(cluster, cfg);
        sys.start(2);
        sys.run([](dsm::DsmProcess& /*master*/) {
          ANOW_CHECK_MSG(false, "master-side check failed");
        });
      },
      "master-side check failed");
}

TEST(BackendDeathTest, UndeclaredLoadDiesInCheckedBuilds) {
#ifndef ANOW_PROTOCOL_CHECKS
  GTEST_SKIP() << "the app view is protected only in checked builds "
                  "(-DANOW_PROTOCOL_CHECKS=ON); Release runs every process "
                  "on one plain read-write heap";
#endif
  // A slave task loads a word of a page the master wrote and the slave
  // never declared, so the slave holds no copy of it: the protected app
  // view has the page PROT_NONE and the load dies.  The statement can only
  // end by dying, so a load that succeeded fails the test.
  EXPECT_DEATH(
      {
        sim::Cluster cluster({}, 2);
        dsm::DsmConfig cfg;
        cfg.heap_bytes = 1 << 20;
        cfg.backend = dsm::BackendKind::kReal;
        cfg.dir_shards = 1;  // the master alone starts with valid pages
        cfg.race_check = dsm::RaceCheckMode::kOff;
        cfg.trace_file.clear();
        dsm::DsmSystem sys(cluster, cfg);
        dsm::GAddr addr = 0;
        const std::int32_t peek = sys.register_task(
            "peek", [&addr](dsm::DsmProcess& p,
                            const std::vector<std::uint8_t>& /*args*/) {
              if (p.is_master()) return;
              const volatile std::int64_t* word = p.cptr<std::int64_t>(addr);
              std::printf("undeclared load read %lld\n",
                          static_cast<long long>(*word));
            });
        sys.start(2);
        sys.run([&](dsm::DsmProcess& master) {
          addr = sys.shared_malloc(exec::kPageBytes);
          master.write_range(addr, sizeof(std::int64_t));
          *master.ptr<std::int64_t>(addr) = 42;
          sys.run_parallel(peek, {});
        });
      },
      "");
}

TEST(BackendDeathTest, PageTraceUnderRealReadsTheProtocolView) {
  // ANOW_TRACE_PAGE lines print the page's first word while the page is
  // being fetched or declared, before a checked build's heap_sync opens it
  // in the app view.
  // The threadsafe style re-executes the binary, so the child parses the
  // variable afresh.
  const std::string style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("ANOW_TRACE_PAGE", "3", 1);
        run_once("jacobi", dsm::BackendKind::kReal, dsm::EngineKind::kLrc);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "\\[ptrace .*fetched full copy");
  ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(BackendGuards, ParseAndNames) {
  EXPECT_EQ(dsm::parse_backend_kind("sim"), dsm::BackendKind::kSim);
  EXPECT_EQ(dsm::parse_backend_kind("real"), dsm::BackendKind::kReal);
  EXPECT_STREQ(dsm::enum_name(dsm::BackendKind::kReal), "real");
  EXPECT_THROW(dsm::parse_backend_kind("hardware"), util::CheckError);
}

}  // namespace
}  // namespace anow
