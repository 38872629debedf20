// Runtime implementation on real hardware (DESIGN.md §14).
//
// One std::thread per DSM process.  Inter-process "messages" are closures
// posted into a preallocated n×n matrix of SPSC rings; per-(src,dst) FIFO
// order is preserved by the rings, matching the simulator's channel ordering
// guarantee.
//
// A process's closures run one at a time, under a per-process ownership
// flag: on its own thread while it waits, or on a waiting peer's thread
// while it runs task-body code (the peer runs them as that process:
// tl_uid is the process's, so post() and in_context_of() hold).  The
// process's own thread holds the flag except around its task body, and
// takes it back at every DSM call the body makes, so protocol handlers
// never run concurrently with the process's own protocol code and no DSM
// state grows a lock.
//
// wait(wp) drains the process's inbound rings until wp.signaled, then
// consumes the flag (the simulator's semantics).  With its own rings empty,
// a waiter serves a peer whose task body holds back work (help()).
// Between empty drains it spins on the rings for a bounded time, then
// parks on an eventcount: a futex word a producer bumps and wakes only if
// the parker flagged itself waiting.  Neither side locks.  signal() is a
// plain flag write: only a closure of the waiter's own process, run under
// its flag, calls it.
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

  /// Called by `uid`'s own thread around its task body: lend() lets waiting
  /// peers run its closures, reclaim() takes the flag back, waiting for a
  /// peer that is running one of them to finish it.
  void lend(ProcId uid);
  void reclaim(ProcId uid);

 private:
  using Clock = std::chrono::steady_clock;

  /// Values of Proc::owner.
  enum : std::uint8_t {
    kLent,    // the owner runs task-body code; a waiting peer may take it
    kHeld,    // the owner's thread or one helper runs protocol code
    kWanted,  // a helper holds it and the owner waits to take it back
    kHanded,  // the helper gave it back to the waiting owner
  };

  struct Proc {
    std::function<void()> body;
    /// Who may run this process's closures (the enum above).
    alignas(64) std::atomic<std::uint8_t> owner{kHeld};
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
  /// Runs the pending closures of one peer whose task body lent its flag,
  /// as that peer; false if no peer had work to take.
  bool help(ProcId self);
  /// Whether some peer other than `self` has lent its flag with closures
  /// pending.
  bool helpable(ProcId self);
  /// Drains the rings, and helps, for up to kSpin; false if the window
  /// closed with nothing to run.
  bool spin(ProcId uid);
  /// Sleeps on the eventcount until a producer bumps it.
  void park(ProcId uid, const char* tag);
  /// Wakes `dst` if it is parked or about to park.
  void wake(ProcId dst);
  /// The second half of wake(), for a caller that has fenced: true if
  /// `uid` was parked or about to park.
  bool wake_parked(ProcId uid);

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
  util::StatsRegistry::Counter* ctr_helped_;
  std::int64_t header_bytes_;
};

}  // namespace anow::exec
