// Discrete-event simulator with cooperative fibers.
//
// Two execution contexts exist:
//  * scheduler/event context — event callbacks (message deliveries, protocol
//    request handlers, timers) run here; they must not block;
//  * fiber context — simulated DSM processes run here and may block via
//    WaitPoint / sleep_for.
//
// Events at equal timestamps run in schedule order (a monotonically
// increasing sequence number breaks ties), so runs are deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace anow::sim {

/// One-shot synchronization point between a fiber and an event handler.
/// The fiber calls Simulator::wait(); some event later calls signal().
/// Either order works (signal-then-wait returns immediately).
struct WaitPoint {
  bool signaled = false;
  Fiber* waiter = nullptr;
};

class Simulator {
 public:
  Simulator() { heap_.reserve(256); }
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedules fn at absolute time t (must be >= now()).
  void at(Time t, std::function<void()> fn);
  /// Schedules fn at now() + dt.
  void after(Time dt, std::function<void()> fn);

  /// Creates a fiber and schedules its first execution at now().
  Fiber& spawn(std::string name, Fiber::Body body);

  /// Runs events until the queue is empty.  Rethrows any exception raised in
  /// fiber bodies.  After run() returns, fibers may still be parked (that is
  /// a deadlock if they were expected to finish — see parked_fiber_report()).
  void run();

  /// Runs events with timestamp <= t, then sets now() = t.
  void run_until(Time t);

  // --- fiber-context operations ------------------------------------------

  /// Blocks the current fiber until wp is signaled. The tag describes what is
  /// being waited for (deadlock diagnostics).
  void wait(WaitPoint& wp, const char* tag = "wait");

  /// Blocks the current fiber for dt of virtual time.
  void sleep_for(Time dt);

  // --- any-context operations --------------------------------------------

  /// Signals a wait point exactly once.  If a fiber is waiting it is resumed
  /// via an immediate event; otherwise the next wait() returns at once.
  void signal(WaitPoint& wp);

  Fiber* current_fiber() const { return current_; }
  bool in_fiber() const { return current_ != nullptr; }

  bool all_fibers_done() const;
  std::size_t live_fiber_count() const;
  /// Multi-line description of parked fibers and their wait tags.
  std::string parked_fiber_report() const;

  /// Number of events executed so far (engine throughput metric).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Drops fibers that have finished (frees their stacks).
  void reap_done_fibers();

 private:
  struct Event {
    Time t;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void resume_fiber(Fiber& f);

  // --- event queue --------------------------------------------------------
  // Split queue (DESIGN.md §10): events scheduled for the current instant
  // (signal() resumes, spawn kickoffs — the bulk of all events) go to a
  // plain FIFO, which stays globally (t, seq)-sorted for free because now_
  // and seq are both monotone; only genuine timers pay for the binary heap.
  // The global minimum is whichever of {FIFO front, heap top} has the
  // smaller (t, seq), so execution order is identical to one big heap.
  bool queue_empty() const { return fifo_.empty() && heap_.empty(); }
  /// (t, seq) of the next event; queue must not be empty.
  const Event& peek_next() const;
  Event pop_next();
  void pop_heap_top();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::deque<Event> fifo_;    // events with t == now_ at scheduling time
  std::vector<Event> heap_;   // min-heap on (t, seq) for future events
  std::vector<std::unique_ptr<Fiber>> fibers_;
  Fiber* current_ = nullptr;
};

}  // namespace anow::sim
