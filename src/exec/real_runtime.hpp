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
// wait(wp) loops draining the process's inbound rings until wp.signaled,
// then consumes the flag (the simulator's consume semantics); between empty
// drains it parks on a bounded condition-variable sleep that producers cut
// short via a waiting flag.  signal() is a plain flag write: it is only ever
// invoked from a handler running on the destination's own thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

  /// Hook a DsmProcess attaches so the runtime resyncs its protections
  /// after every inbound envelope.
  void set_delivery_hook(ProcId uid, std::function<void()> after) override;

  /// Drains at most one pending inbound closure for the calling process.
  /// Returns false if all rings were empty.  Exposed for poll points
  /// outside wait() (e.g. compute loops); normal code never needs it.
  bool drain_one(ProcId uid);

 private:
  struct Proc {
    std::string name;
    std::function<void()> body;
    std::function<void()> after_handle;
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> waiting{false};
    int rr_cursor = 0;  // round-robin over source rings
  };

  SpscQueue<std::function<void()>>& ring(ProcId src, ProcId dst) {
    return *rings_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(nprocs_) +
                   static_cast<std::size_t>(dst)];
  }
  void wake(ProcId dst);

  int nprocs_;
  /// Ring-poll iterations before a waiter parks.  Positive only when the
  /// constructing thread may run on a CPU per process (usable_cpus()):
  /// spinning keeps request/reply latency at cache-miss scale, but on an
  /// oversubscribed CPU set it burns the quantum the responder needs, so
  /// there it is zero (park immediately).
  int spin_budget_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<std::unique_ptr<SpscQueue<std::function<void()>>>> rings_;
  std::chrono::steady_clock::time_point start_{};
  std::atomic<bool> running_{false};
  util::StatsRegistry::Counter* ctr_messages_;
  util::StatsRegistry::Counter* ctr_bytes_;
  std::int64_t header_bytes_;
};

}  // namespace anow::exec
