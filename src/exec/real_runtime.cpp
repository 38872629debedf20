#include "exec/real_runtime.hpp"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace anow::exec {

namespace {
// Which process's context this thread is: -1 outside run(), 0 for the thread
// that called run() (the master), 1..n-1 for slave threads.
thread_local ProcId tl_uid = -1;
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
      spin_budget_(usable_cpus() >= nprocs ? 4000 : 0),
      ctr_messages_(stats.handle("net.messages")),
      ctr_bytes_(stats.handle("net.bytes")),
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
  if (start_ == std::chrono::steady_clock::time_point{}) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

bool RealRuntime::drain_one(ProcId uid) {
  Proc& p = *procs_[static_cast<std::size_t>(uid)];
  for (int i = 0; i < nprocs_; ++i) {
    const int src = (p.rr_cursor + i) % nprocs_;
    std::function<void()> fn;
    if (!ring(src, uid).try_pop(fn)) continue;
    p.rr_cursor = (src + 1) % nprocs_;
    fn();
    if (p.after_handle) p.after_handle();
    return true;
  }
  return false;
}

void RealRuntime::wait(sim::WaitPoint& wp, const char* /*tag*/) {
  const ProcId self = tl_uid;
  ANOW_CHECK_MSG(self >= 0, "exec: wait() outside a process context");
  Proc& p = *procs_[static_cast<std::size_t>(self)];
  // Request/reply latency to a blocked peer is the backend's critical path
  // (a page or diff fetch is one full round trip), and waking a parked
  // thread costs a futex round trip per message.  So spin-poll the rings
  // for a while before parking: a waiter that is spinning answers in the
  // time of a cache miss.  The budget (~tens of µs of ring polling; zero
  // with fewer usable CPUs than processes — see spin_budget_) is reset by
  // any progress.
  int spins = 0;
  while (!wp.signaled) {
    if (drain_one(self)) {
      spins = 0;
      continue;
    }
    if (++spins < spin_budget_) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
      continue;
    }
    spins = 0;
    // Spin budget exhausted: park, but bounded — the 1 ms ceiling backstops
    // the (benign) race where a producer pushes between our scan and the
    // wait.
    std::unique_lock<std::mutex> lk(p.mu);
    p.waiting.store(true, std::memory_order_seq_cst);
    bool empty = !wp.signaled;
    if (empty) {
      for (int src = 0; src < nprocs_ && empty; ++src) {
        if (!ring(src, self).empty()) empty = false;
      }
    }
    if (empty) p.cv.wait_for(lk, std::chrono::milliseconds(1));
    p.waiting.store(false, std::memory_order_seq_cst);
  }
  wp.signaled = false;  // the simulator's consume-on-wake semantics
}

void RealRuntime::signal(sim::WaitPoint& wp) {
  // Only ever called from the waiter's own thread (handlers run in the
  // blocked process's context), so a plain write is enough: the waiter's
  // wait() loop re-checks the flag after every handler.
  wp.signaled = true;
}

void RealRuntime::defer(sim::Time /*dt*/, std::function<void()> fn) {
  // The delay models virtual service latency; on real hardware that cost is
  // simply paid in wall-clock time, so deferred work runs immediately.
  fn();
}

void RealRuntime::sleep_for(sim::Time /*dt*/) {}

sim::Fiber* RealRuntime::start_process(ProcId uid, const std::string& name,
                                       std::function<void()> body) {
  ANOW_CHECK_MSG(uid >= 1 && uid < nprocs_,
                 "exec: dynamic process spawn (joins/forks of new processes) "
                 "is not supported under --backend real");
  ANOW_CHECK_MSG(!running_.load(std::memory_order_relaxed),
                 "exec: start_process after run() under --backend real");
  Proc& p = *procs_[static_cast<std::size_t>(uid)];
  p.name = name;
  p.body = std::move(body);
  return nullptr;
}

void RealRuntime::set_delivery_hook(ProcId uid, std::function<void()> after) {
  procs_[static_cast<std::size_t>(uid)]->after_handle = std::move(after);
}

void RealRuntime::wake(ProcId dst) {
  Proc& p = *procs_[static_cast<std::size_t>(dst)];
  // The lock pairs with the waiter, which sets `waiting` and re-scans its
  // rings while holding it before parking: either this acquire happens
  // before the scan (the scan sees the enqueued work) or after the park
  // (`waiting` is true and the notify lands).  A lockless flag check here
  // would race with that scan and lose wakeups, stranding the waiter on
  // the backstop timeout.
  bool parked;
  {
    std::lock_guard<std::mutex> lk(p.mu);
    parked = p.waiting.load(std::memory_order_relaxed);
  }
  if (parked) p.cv.notify_all();
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
  start_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_seq_cst);
  for (ProcId uid = 1; uid < nprocs_; ++uid) {
    Proc& p = *procs_[static_cast<std::size_t>(uid)];
    ANOW_CHECK_MSG(p.body != nullptr, "exec: process never registered");
    p.thread = std::thread([uid, body = std::move(p.body)]() {
      tl_uid = uid;
      body();
      tl_uid = -1;
    });
  }
  tl_uid = 0;
  try {
    master_body();
  } catch (const std::exception& e) {
    // The slave threads are still running: unwinding would destroy the
    // DsmSystem under them and lose this message in the crash.
    std::fprintf(stderr, "exec: master process failed: %s\n", e.what());
    std::abort();
  }
  for (ProcId uid = 1; uid < nprocs_; ++uid) {
    procs_[static_cast<std::size_t>(uid)]->thread.join();
  }
  running_.store(false, std::memory_order_seq_cst);
  tl_uid = -1;
}

bool RealRuntime::in_context_of(ProcId uid) const {
  // The running_ gate keeps post-run inspection (owner maps, checksums read
  // on the launching thread) off the in-context RPC paths.
  return running_.load(std::memory_order_relaxed) && tl_uid == uid;
}

}  // namespace anow::exec
