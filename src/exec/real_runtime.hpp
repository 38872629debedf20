// Runtime implementation on real hardware (DESIGN.md §14).
//
// One std::thread per DSM process.  Inter-process "messages" are closures
// posted into a preallocated n×n matrix of SPSC rings; a process only ever
// executes inbound closures on its own thread, while it is blocked inside
// wait() — so protocol handlers run exactly as in the simulator (never
// concurrently with the process's own code) and no per-process locks are
// needed.  Per-(src,dst) FIFO order is preserved by the rings, matching the
// simulator's channel ordering guarantee.
//
// wait(wp) drains the process's inbound rings until wp.signaled, then
// consumes the flag (the simulator's semantics).  Between empty drains it
// spins on the rings for a bounded time, then parks on an eventcount: a
// futex word a producer bumps and wakes only if the parker flagged itself
// waiting.  Neither side locks.  signal() is a plain flag write: only a
// handler on the destination's own thread calls it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/runtime.hpp"
#include "exec/spsc_queue.hpp"
#include "util/stats.hpp"

namespace anow::exec {

/// CPUs the calling thread may run on: the size of its affinity mask, which
/// taskset, a cpuset cgroup or pthread_setaffinity_np may narrow below the
/// online count.  Falls back to std::thread::hardware_concurrency() when the
/// mask cannot be read.
int usable_cpus();

class RealRuntime final : public Runtime {
 public:
  /// `header_bytes` mirrors the simulator's per-message wire header cost so
  /// the net.bytes counter stays comparable across backends.
  RealRuntime(int nprocs, util::StatsRegistry& stats,
              std::int64_t header_bytes);
  ~RealRuntime() override;

  bool real() const override { return true; }
  sim::Time now() const override;
  void wait(sim::WaitPoint& wp, const char* tag) override;
  void signal(sim::WaitPoint& wp) override;
  void defer(sim::Time dt, std::function<void()> fn) override;
  void sleep_for(sim::Time dt) override;
  sim::Fiber* start_process(ProcId uid, const std::string& name,
                            std::function<void()> body) override;
  sim::Time post(ProcId src, ProcId dst, int src_host, int dst_host,
                 std::int64_t wire_bytes,
                 std::function<void()> deliver) override;
  void run(std::function<void()> master_body) override;
  bool in_context_of(ProcId uid) const override;

 private:
  using Clock = std::chrono::steady_clock;

  struct Proc {
    std::function<void()> body;
    std::thread thread;
    /// The eventcount's futex word: a producer that finds `waiting` set
    /// bumps it, so a park that read the old value returns at once.
    std::atomic<std::uint32_t> epoch{0};
    std::atomic<bool> waiting{false};
    int rr_cursor = 0;  // round-robin over source rings
    /// The owning thread's involuntary context switches when its last spin
    /// ran out (the preemption rule in spin()).
    std::int64_t preemptions = 0;
  };

  SpscQueue<std::function<void()>>& ring(ProcId src, ProcId dst) {
    return *rings_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(nprocs_) +
                   static_cast<std::size_t>(dst)];
  }
  Proc& proc(ProcId uid) { return *procs_[static_cast<std::size_t>(uid)]; }

  /// Runs at most one pending inbound closure for `uid`; false if every
  /// ring was empty.
  bool drain_one(ProcId uid);
  bool has_inbound(ProcId uid);
  /// Drains the rings for up to kSpin; false if the window closed with
  /// every ring empty.
  bool spin(ProcId uid);
  /// Sleeps on the eventcount until a producer bumps it.
  void park(ProcId uid, const char* tag);
  /// Wakes `dst` if it is parked or about to park.
  void wake(ProcId dst);

  int nprocs_;
  /// Whether a waiter spins before parking: only when the constructing
  /// thread may run on a CPU per process (usable_cpus()).  On an
  /// oversubscribed CPU set a spin burns the quantum the responder needs.
  bool spin_;
  /// Until this Clock count, no process spins: set by a spinner that finds
  /// it was preempted, i.e. that another task shares its CPUs.
  std::atomic<Clock::rep> shared_until_{0};
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<std::unique_ptr<SpscQueue<std::function<void()>>>> rings_;
  Clock::time_point start_{};
  std::atomic<bool> running_{false};
  util::StatsRegistry::Counter* ctr_messages_;
  util::StatsRegistry::Counter* ctr_bytes_;
  util::StatsRegistry::Counter* ctr_park_timeouts_;
  std::int64_t header_bytes_;
};

}  // namespace anow::exec
