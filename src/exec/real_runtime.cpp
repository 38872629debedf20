#include "exec/real_runtime.hpp"

#include <linux/futex.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>

#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace anow::exec {

namespace {
// Which process's context this thread is: -1 outside run(), 0 for the thread
// that called run() (the master), 1..n-1 for slave threads.
thread_local ProcId tl_uid = -1;

// How long a waiter polls its rings before it parks: a spinning peer answers
// in the time of a cache miss, a parked one must first be woken.  On a
// 4-vCPU KVM guest 50 µs ran forkjoin and stencil 5–11% slower, and 1 ms
// within 5% either way.  Time, not a count of `pause`s: one took 22.5 ns
// there, and Skylake raised its latency from about 10 to 140 cycles.
constexpr std::chrono::microseconds kSpin{200};

// How long every process parks at once after a spinner finds it was
// preempted, i.e. shares its CPUs with another task.  With one of 4 vCPUs
// busy, forkjoin took 0.31 s without this rule and 0.10 s with it (0.14 s
// with a 0.5 ms window); a 20 ms window cost 22% on a quiet host, where
// involuntary switches also occur.  More in DESIGN.md §14.
constexpr std::chrono::milliseconds kSharedCpuPark{2};

// How many spin rounds pass between two looks for a peer to help.  A look
// reads every peer's ownership flag, which the peer writes at each of its
// DSM calls, so each look pulls that line away from a computing peer.  On
// the 4-vCPU guest, forkjoin (Gauss, about 87,000 DSM calls on 4 threads)
// ran real@4 5% behind the helpless runtime (faster in 5 of 20 pairs) with
// a look every round, and even with it (9 of 20) with one every 16th.
constexpr unsigned kHelpEvery = 16;

// How many `pause`s a thread taking its flag back from a helper spins before
// it yields the CPU each round: a closure runs for microseconds, but a
// helper descheduled while it holds the flag needs a CPU to finish it.
constexpr int kReclaimSpins = 64;

// A park's only timeout.  Every wake is delivered, so a park that reaches it
// with work in its rings lost its wakeup: that is counted and reported.
constexpr std::time_t kParkCeilingS = 1;

long futex(std::atomic<std::uint32_t>& word, int op, std::uint32_t val,
           const timespec* timeout) {
  static_assert(sizeof(word) == sizeof(std::uint32_t));
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), op, val,
                 timeout, nullptr, 0);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

std::int64_t involuntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nivcsw;
}

}  // namespace

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

RealRuntime::RealRuntime(int nprocs, util::StatsRegistry& stats,
                         std::int64_t header_bytes)
    : nprocs_(nprocs),
      spin_(usable_cpus() >= nprocs),
      ctr_messages_(stats.handle("net.messages")),
      ctr_bytes_(stats.handle("net.bytes")),
      ctr_park_timeouts_(stats.handle("exec.park_timeouts")),
      ctr_helped_(stats.handle("exec.helped")),
      header_bytes_(header_bytes) {
  ANOW_CHECK(nprocs >= 1);
  procs_.resize(static_cast<std::size_t>(nprocs));
  for (auto& p : procs_) p = std::make_unique<Proc>();
  rings_.resize(static_cast<std::size_t>(nprocs) *
                static_cast<std::size_t>(nprocs));
  for (auto& r : rings_) {
    r = std::make_unique<SpscQueue<std::function<void()>>>();
  }
}

RealRuntime::~RealRuntime() = default;

sim::Time RealRuntime::now() const {
  if (start_ == Clock::time_point{}) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start_)
      .count();
}

bool RealRuntime::drain_one(ProcId uid) {
  Proc& p = proc(uid);
  for (int i = 0; i < nprocs_; ++i) {
    const int src = (p.rr_cursor + i) % nprocs_;
    std::function<void()> fn;
    if (!ring(src, uid).try_pop(fn)) continue;
    p.rr_cursor = (src + 1) % nprocs_;
    fn();
    return true;
  }
  return false;
}

bool RealRuntime::has_inbound(ProcId uid) {
  for (ProcId src = 0; src < nprocs_; ++src) {
    if (!ring(src, uid).empty()) return true;
  }
  return false;
}

void RealRuntime::wait(sim::WaitPoint& wp, const char* tag) {
  const ProcId self = tl_uid;
  ANOW_CHECK_MSG(self >= 0, "exec: wait() outside a process context");
  // Request/reply latency to a blocked peer is the backend's critical path
  // (a page or diff fetch is one full round trip), so a waiter with nothing
  // to run polls its rings for a while before it parks.
  while (!wp.signaled) {
    if (drain_one(self) || help(self) || spin(self)) continue;
    park(self, tag);
  }
  wp.signaled = false;  // the simulator's consume-on-wake semantics
}

bool RealRuntime::spin(ProcId uid) {
  if (!spin_) return false;
  const Clock::time_point start = Clock::now();
  if (start.time_since_epoch().count() <
      shared_until_.load(std::memory_order_relaxed)) {
    return false;
  }
  const Clock::time_point deadline = start + kSpin;
  for (unsigned round = 1;; ++round) {
    if (drain_one(uid)) return true;
    if (round % kHelpEvery == 0 && help(uid)) return true;
    cpu_relax();
    if (Clock::now() >= deadline) break;
  }
  // The window ran out.  A thread preempted since its last window ran out
  // shares its CPUs with another task, so every process parks at once for
  // a while.
  Proc& p = proc(uid);
  const std::int64_t switches = involuntary_switches();
  if (switches > p.preemptions) {
    shared_until_.store((Clock::now() + kSharedCpuPark).time_since_epoch()
                            .count(),
                        std::memory_order_relaxed);
  }
  p.preemptions = switches;
  return false;
}

bool RealRuntime::help(ProcId self) {
  // A request to a peer that is computing would otherwise wait out its
  // whole task body, as a TreadMarks request would without its signal
  // handler.  The peer's closures run here as the peer: post() and
  // in_context_of() see its uid.
  for (int i = 1; i < nprocs_; ++i) {
    const ProcId peer = (self + i) % nprocs_;
    std::atomic<std::uint8_t>& owner = proc(peer).owner;
    if (owner.load(std::memory_order_relaxed) != kLent ||
        !has_inbound(peer)) {
      continue;
    }
    std::uint8_t lent = kLent;
    if (!owner.compare_exchange_strong(lent, kHeld,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      continue;
    }
    tl_uid = peer;
    std::int64_t ran = 0;
    // An owner that wants its flag back (kWanted) gets it after the closure
    // running then.
    while (owner.load(std::memory_order_relaxed) == kHeld && drain_one(peer)) {
      ++ran;
    }
    tl_uid = self;
    std::uint8_t held = kHeld;
    if (!owner.compare_exchange_strong(held, kLent,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
      owner.store(kHanded, std::memory_order_release);  // it was kWanted
    }
    if (ran > 0) {
      *ctr_helped_ += ran;
      return true;
    }
  }
  return false;
}

bool RealRuntime::helpable(ProcId self) {
  for (ProcId peer = 0; peer < nprocs_; ++peer) {
    if (peer != self &&
        proc(peer).owner.load(std::memory_order_relaxed) == kLent &&
        has_inbound(peer)) {
      return true;
    }
  }
  return false;
}

void RealRuntime::lend(ProcId uid) {
  proc(uid).owner.store(kLent, std::memory_order_release);
  // Closures that arrived while the owner held its flag would wait out the
  // body unless a waiter runs them, so one parked peer is woken to help.
  // Pairs with the fence in park(): a peer parking now finds this process
  // helpable in its rescan, or is seen waiting here.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!has_inbound(uid)) return;
  for (int i = 1; i < nprocs_; ++i) {
    if (wake_parked((uid + i) % nprocs_)) return;
  }
}

void RealRuntime::reclaim(ProcId uid) {
  std::atomic<std::uint8_t>& owner = proc(uid).owner;
  for (int round = 0;; ++round) {
    std::uint8_t seen = owner.load(std::memory_order_acquire);
    if (seen == kHanded) break;
    if (seen == kLent) {
      if (owner.compare_exchange_weak(seen, kHeld,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
      continue;
    }
    if (seen == kHeld) {
      // A helper runs one of this process's closures: ask for the flag.
      owner.compare_exchange_weak(seen, kWanted, std::memory_order_relaxed);
    }
    if (round < kReclaimSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  owner.store(kHeld, std::memory_order_relaxed);
}

void RealRuntime::park(ProcId uid, const char* tag) {
  Proc& p = proc(uid);
  const std::uint32_t epoch = p.epoch.load(std::memory_order_acquire);
  p.waiting.store(true, std::memory_order_relaxed);
  // Pairs with the fence in wake(): either this rescan sees the producer's
  // push, or the producer sees `waiting` and bumps the word past `epoch`,
  // so the futex wait below returns at once or is woken.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!has_inbound(uid) && !helpable(uid)) {
    const timespec ceiling{kParkCeilingS, 0};
    if (futex(p.epoch, FUTEX_WAIT_PRIVATE, epoch, &ceiling) == -1 &&
        errno == ETIMEDOUT && has_inbound(uid)) {
      *ctr_park_timeouts_ += 1;
      std::fprintf(stderr,
                   "exec: uid %d parked %lld s in wait(\"%s\") with inbound "
                   "work pending: a wakeup was lost\n",
                   uid, static_cast<long long>(kParkCeilingS), tag);
    }
  }
  p.waiting.store(false, std::memory_order_relaxed);
}

void RealRuntime::wake(ProcId dst) {
  // Pairs with the fence in park().
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_parked(dst);
}

bool RealRuntime::wake_parked(ProcId uid) {
  Proc& p = proc(uid);
  // One waker per park: a parker already woken but not yet running needs
  // no second bump or system call.
  if (!p.waiting.load(std::memory_order_relaxed) ||
      !p.waiting.exchange(false, std::memory_order_relaxed)) {
    return false;
  }
  p.epoch.fetch_add(1, std::memory_order_release);
  futex(p.epoch, FUTEX_WAKE_PRIVATE, 1, nullptr);
  return true;
}

void RealRuntime::signal(sim::WaitPoint& wp) {
  // Only ever called by a closure of the waiter's own process, which runs
  // on the waiter's thread (a process that waits holds its flag, so no
  // helper runs its closures), so a plain write is enough: the waiter's
  // wait() loop re-checks the flag after every closure.
  wp.signaled = true;
}

void RealRuntime::defer(sim::Time /*dt*/, std::function<void()> fn) {
  // The delay models virtual service latency; on real hardware that cost is
  // simply paid in wall-clock time, so deferred work runs immediately.
  fn();
}

void RealRuntime::sleep_for(sim::Time /*dt*/) {}

sim::Fiber* RealRuntime::start_process(ProcId uid, const std::string& /*name*/,
                                       std::function<void()> body) {
  ANOW_CHECK_MSG(uid >= 1 && uid < nprocs_,
                 "exec: dynamic process spawn (joins/forks of new processes) "
                 "is not supported under --backend real");
  ANOW_CHECK_MSG(!running_.load(std::memory_order_relaxed),
                 "exec: start_process after run() under --backend real");
  proc(uid).body = std::move(body);
  return nullptr;
}

sim::Time RealRuntime::post(ProcId src, ProcId dst, int /*src_host*/,
                            int /*dst_host*/, std::int64_t wire_bytes,
                            std::function<void()> deliver) {
  ANOW_CHECK(src >= 0 && src < nprocs_ && dst >= 0 && dst < nprocs_);
  ANOW_CHECK_MSG(tl_uid == src,
                 "exec: post() must run on the source process's thread");
  *ctr_messages_ += 1;
  *ctr_bytes_ += wire_bytes + header_bytes_;
  auto& q = ring(src, dst);
  // A full ring means the destination is deeply backlogged; spin-yield (the
  // protocol's request/reply pattern bounds in-flight depth far below the
  // ring capacity, so this is effectively never taken).
  std::int64_t spins = 0;
  while (!q.try_push(std::move(deliver))) {
    std::this_thread::yield();
    ANOW_CHECK_MSG(++spins < (1 << 26),
                   "exec: SPSC ring full for too long (deadlock?)");
  }
  wake(dst);
  return 0;
}

void RealRuntime::run(std::function<void()> master_body) {
  ANOW_CHECK(!running_.load(std::memory_order_relaxed));
  start_ = Clock::now();
  running_.store(true, std::memory_order_seq_cst);
  for (ProcId uid = 1; uid < nprocs_; ++uid) {
    Proc& p = proc(uid);
    ANOW_CHECK_MSG(p.body != nullptr, "exec: process never registered");
    p.thread = std::thread([uid, &p, body = std::move(p.body)]() {
      tl_uid = uid;
      p.preemptions = involuntary_switches();
      body();
      tl_uid = -1;
    });
  }
  tl_uid = 0;
  proc(0).preemptions = involuntary_switches();
  try {
    master_body();
  } catch (const std::exception& e) {
    // The slave threads are still running: unwinding would destroy the
    // DsmSystem under them and lose this message in the crash.
    std::fprintf(stderr, "exec: master process failed: %s\n", e.what());
    std::abort();
  }
  for (ProcId uid = 1; uid < nprocs_; ++uid) proc(uid).thread.join();
  running_.store(false, std::memory_order_seq_cst);
  tl_uid = -1;
}

bool RealRuntime::in_context_of(ProcId uid) const {
  // The running_ gate keeps post-run inspection (owner maps, checksums read
  // on the launching thread) off the in-context RPC paths.
  return running_.load(std::memory_order_relaxed) && tl_uid == uid;
}

}  // namespace anow::exec
