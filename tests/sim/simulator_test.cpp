// Unit tests for the discrete-event simulator and fiber scheduling.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace anow::sim {
namespace {

TEST(Time, FromSecondsRoundTrips) {
  EXPECT_EQ(from_seconds(1.0), kSec);
  EXPECT_EQ(from_seconds(0.000126), 126 * kUsec);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(3.25)), 3.25);
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(126 * kUsec), "126.0us");
  EXPECT_EQ(format_time(1308 * kUsec), "1.308ms");
  EXPECT_EQ(format_time(3 * kSec), "3.000s");
  EXPECT_EQ(format_time(42), "42ns");
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(5, [&] { order.push_back(1); });
  sim.at(5, [&] { order.push_back(2); });
  sim.at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.at(5, [] {}), util::CheckError);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, FiberRunsAndFinishes) {
  Simulator sim;
  bool ran = false;
  sim.spawn("f", [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(sim.all_fibers_done());
}

TEST(Simulator, SleepAdvancesVirtualTime) {
  Simulator sim;
  Time woke_at = -1;
  sim.spawn("sleeper", [&] {
    sim.sleep_for(5 * kSec);
    woke_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(woke_at, 5 * kSec);
}

TEST(Simulator, WaitThenSignal) {
  Simulator sim;
  WaitPoint wp;
  Time resumed_at = -1;
  sim.spawn("waiter", [&] {
    sim.wait(wp, "test");
    resumed_at = sim.now();
  });
  sim.at(3 * kSec, [&] { sim.signal(wp); });
  sim.run();
  EXPECT_EQ(resumed_at, 3 * kSec);
}

TEST(Simulator, SignalBeforeWaitReturnsImmediately) {
  Simulator sim;
  WaitPoint wp;
  sim.signal(wp);
  bool passed = false;
  sim.spawn("waiter", [&] {
    sim.wait(wp);
    passed = true;
  });
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(Simulator, DoubleSignalThrows) {
  Simulator sim;
  WaitPoint wp;
  sim.signal(wp);
  EXPECT_THROW(sim.signal(wp), util::CheckError);
}

TEST(Simulator, FiberExceptionPropagatesFromRun) {
  Simulator sim;
  sim.spawn("bad", [] { ANOW_CHECK_MSG(false, "boom"); });
  EXPECT_THROW(sim.run(), util::CheckError);
}

TEST(Simulator, TwoFibersInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> log;
  WaitPoint a_to_b, b_to_a;
  sim.spawn("A", [&] {
    log.push_back("A1");
    sim.signal(a_to_b);
    sim.wait(b_to_a);
    log.push_back("A2");
  });
  sim.spawn("B", [&] {
    sim.wait(a_to_b);
    log.push_back("B1");
    sim.signal(b_to_a);
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A1", "B1", "A2"}));
}

TEST(Simulator, ParkedFiberReportNamesBlockedFiber) {
  Simulator sim;
  WaitPoint never;
  sim.spawn("stuck", [&] { sim.wait(never, "page 42"); });
  sim.run();
  EXPECT_FALSE(sim.all_fibers_done());
  auto report = sim.parked_fiber_report();
  EXPECT_NE(report.find("stuck"), std::string::npos);
  EXPECT_NE(report.find("page 42"), std::string::npos);
}

TEST(Simulator, DestructorUnwindsParkedFibers) {
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Simulator sim;
    WaitPoint never;
    sim.spawn("stuck", [&] {
      Sentinel s{&destroyed};
      sim.wait(never, "forever");
    });
    sim.run();
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);  // RAII ran during fiber kill
}

TEST(Simulator, ReapDoneFibers) {
  Simulator sim;
  sim.spawn("f1", [] {});
  sim.spawn("f2", [] {});
  sim.run();
  EXPECT_EQ(sim.live_fiber_count(), 0u);
  sim.reap_done_fibers();
  EXPECT_TRUE(sim.all_fibers_done());
}

TEST(Simulator, ManySleepersWakeInOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.spawn("s" + std::to_string(i), [&, i] {
      sim.sleep_for((10 - i) * kMsec);
      order.push_back(i);
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator sim;
  sim.at(1, [] {});
  sim.at(2, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  std::vector<Time> times;
  sim.at(10, [&] {
    times.push_back(sim.now());
    sim.after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

// ---------------------------------------------------------------------------
// What each fiber must keep for itself although all of them share the
// scheduler's OS thread.
// ---------------------------------------------------------------------------

/// Counts the frames an exception unwinds.
struct FrameGuard {
  int* unwound;
  ~FrameGuard() { ++*unwound; }
};

/// Recurses `depth` more frames, then fails a check in the deepest one.
void throw_from_depth(int depth, int* unwound) {
  FrameGuard guard{unwound};
  if (depth > 0) throw_from_depth(depth - 1, unwound);
  ANOW_CHECK_MSG(depth > 0, "thrown from the deepest frame");
}

std::size_t os_threads() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator{}));
}

/// 1/3 divided at run time.  Its last bit shows the SSE rounding mode,
/// which fegetround (it reads the x87 control word) does not.
double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

/// Far deeper than any fiber stack: 1 KiB frames, 2^30 of them.  A frame
/// is smaller than a page, so the descent cannot step over a guard page.
int recurse(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == 1 << 30) return 0;
  return recurse(depth + 1) + frame[0];
}

struct AddressRange {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
};

/// The one-page PROT_NONE mapping directly below the mapping that holds
/// `on_stack`, read from /proc/self/maps; empty if the mapping below is
/// anything else.
AddressRange guard_page_below(const void* on_stack) {
  const auto addr = reinterpret_cast<std::uintptr_t>(on_stack);
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  std::ifstream maps("/proc/self/maps");
  AddressRange below;
  std::string below_perms;
  for (std::string line; std::getline(maps, line);) {
    std::istringstream in(line);
    AddressRange r;
    char dash = 0;
    std::string perms;
    in >> std::hex >> r.lo >> dash >> r.hi >> perms;
    if (r.lo <= addr && addr < r.hi) {
      const bool guard = below.hi == r.lo && below.hi - below.lo == page &&
                         below_perms == "---p";
      return guard ? below : AddressRange{};
    }
    below = r;
    below_perms = perms;
  }
  return {};
}

// The guard page the runaway fiber found below its stack.
AddressRange g_guard;
constexpr int kFaultInGuard = 3;

/// SIGSEGV handler, on an alternate stack: says whether the fault address
/// lies in g_guard, then exits.
void report_fault(int /*sig*/, siginfo_t* info, void* /*ctx*/) {
  static constexpr char kIn[] = "fault in the guard page below the fiber\n";
  static constexpr char kOut[] = "fault outside the fiber's guard page\n";
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const bool in = g_guard.lo <= addr && addr < g_guard.hi;
  const ssize_t n = in ? write(STDERR_FILENO, kIn, sizeof kIn - 1)
                       : write(STDERR_FILENO, kOut, sizeof kOut - 1);
  _exit(in && n > 0 ? kFaultInGuard : 1);
}

TEST(Fiber, DestroyedBeforeRunNeverRunsBody) {
  bool ran = false;
  {
    Simulator sim;
    sim.spawn("never", [&] { ran = true; });
  }
  EXPECT_FALSE(ran);
}

TEST(Fiber, DeepExceptionAfterParksPropagatesFromRun) {
  Simulator sim;
  int parks = 0;
  int unwound = 0;
  sim.spawn("thrower", [&] {
    for (; parks < 3; ++parks) sim.sleep_for(kMsec);
    throw_from_depth(5, &unwound);
  });
  try {
    sim.run();
    ADD_FAILURE() << "run() returned normally";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("thrown from the deepest frame"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parks, 3);
  EXPECT_EQ(unwound, 6);  // every throw_from_depth frame, on the fiber stack
  EXPECT_EQ(sim.now(), 3 * kMsec);
}

TEST(Fiber, ParkedFibersShareOneThread) {
  constexpr int kFibers = 512;
  std::vector<WaitPoint> never(kFibers);
  int unwound = 0;
  std::size_t threads_while_parked = 0;
  {
    Simulator sim;
    for (int i = 0; i < kFibers; ++i) {
      sim.spawn("parked-" + std::to_string(i), [&, i] {
        FrameGuard guard{&unwound};
        sim.wait(never[static_cast<std::size_t>(i)], "forever");
      });
    }
    sim.run();
    EXPECT_EQ(sim.live_fiber_count(), static_cast<std::size_t>(kFibers));
    threads_while_parked = os_threads();
  }
  EXPECT_EQ(threads_while_parked, 1u);
  EXPECT_EQ(unwound, kFibers);  // the destructor unwound every fiber
}

TEST(Fiber, RoundingModeStaysWithItsFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one_third();
  Simulator sim;
  WaitPoint wake;
  int upward_mode = -1, other_mode = -1, scheduler_mode = -1;
  double upward = 0, other = 0, scheduler = 0;
  sim.spawn("upward", [&] {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    sim.wait(wake, "parked in FE_UPWARD");
    upward_mode = std::fegetround();
    upward = one_third();
  });
  sim.spawn("other", [&] {
    other_mode = std::fegetround();
    other = one_third();
  });
  sim.at(kMsec, [&] {
    scheduler_mode = std::fegetround();
    scheduler = one_third();
    sim.signal(wake);
  });
  sim.run();
  EXPECT_EQ(upward_mode, FE_UPWARD);
  EXPECT_GT(upward, nearest);
  EXPECT_EQ(other_mode, FE_TONEAREST);
  EXPECT_EQ(other, nearest);
  EXPECT_EQ(scheduler_mode, FE_TONEAREST);
  EXPECT_EQ(scheduler, nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(FiberDeathTest, UnboundedRecursionDiesOnGuardPage) {
  EXPECT_EXIT(
      {
        std::vector<char> alt_stack(std::size_t{1} << 18);
        stack_t ss{};
        ss.ss_sp = alt_stack.data();
        ss.ss_size = alt_stack.size();
        struct sigaction sa {};
        sa.sa_sigaction = report_fault;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigemptyset(&sa.sa_mask);
        if (sigaltstack(&ss, nullptr) != 0 ||
            sigaction(SIGSEGV, &sa, nullptr) != 0) {
          std::perror("installing the SIGSEGV handler");
          _exit(1);
        }
        Simulator sim;
        sim.spawn("deep", [] {
          g_guard = guard_page_below(__builtin_frame_address(0));
          if (g_guard.lo == 0) {
            std::fputs("no one-page PROT_NONE mapping below the fiber stack\n",
                       stderr);
            _exit(1);
          }
          recurse(0);
        });
        sim.run();
      },
      ::testing::ExitedWithCode(kFaultInGuard),
      "fault in the guard page below the fiber");
}

}  // namespace
}  // namespace anow::sim
