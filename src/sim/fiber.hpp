// Cooperative fiber: a stack of its own, entered and left by a user-level
// context switch on the scheduler's thread.
//
// Exactly one fiber (or the scheduler) runs at any instant; the scheduler
// hands control to a fiber with resume() and regains it when the fiber parks
// or finishes.  This gives simulated DSM processes a natural blocking
// programming model (page faults, barriers, locks simply park the fiber)
// while keeping the whole simulation on one OS thread and therefore
// deterministic.
//
// Each fiber runs on an 8 MiB mmap'd stack (MAP_NORESERVE, so only touched
// pages cost memory) whose lowest page is PROT_NONE: a runaway recursion
// faults on it instead of running into a neighbour.  The switch is
// makecontext/swapcontext, which saves the callee-saved registers, the
// floating-point control state (so a fiber's rounding mode stays its own)
// and the signal mask, at one sigprocmask call per switch.  Every switch is
// annotated for ASan and TSan.
//
// One thread means one C++ exception-handling state.  A fiber must not park
// inside a catch block, or whatever runs next would see its caught exception
// as its own.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>

namespace anow::sim {

class Simulator;

class Fiber {
 public:
  using Body = std::function<void()>;

  Fiber(std::string name, Body body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  const std::string& name() const { return name_; }
  bool done() const { return done_; }
  bool parked() const { return parked_; }

  /// Free-form label describing what the fiber is blocked on; shown in
  /// deadlock diagnostics.
  void set_wait_tag(std::string tag) { wait_tag_ = std::move(tag); }
  const std::string& wait_tag() const { return wait_tag_; }

 private:
  friend class Simulator;

  /// Thrown inside a parked fiber when the simulator shuts down, so the
  /// fiber's stack unwinds cleanly (RAII) instead of being abandoned.
  struct Killed {};
  /// The stack and the saved state of both sides of the switch (fiber.cpp).
  struct Context;

  /// The first frame on the fiber's stack: runs the body, then leaves for
  /// good.  makecontext passes int arguments only, so `self` comes in
  /// halves.
  [[noreturn]] static void entry(unsigned self_hi, unsigned self_lo);
  /// Scheduler side: lets the fiber run; returns once it parks or finishes.
  void resume();
  /// Fiber side: yields control back to the scheduler; returns when resumed.
  void park();
  /// Scheduler side: unwinds a parked fiber with Killed and returns once it
  /// has finished.  A fiber that never ran just becomes done: its body
  /// never starts.
  void kill_and_join();
  /// The two directions of the switch, with their sanitizer annotations.
  void switch_in();
  void switch_out(bool final);

  std::string name_;
  Body body_;
  std::string wait_tag_;
  std::unique_ptr<Context> ctx_;

  bool parked_ = true;    // fiber is parked (or not yet started)
  bool started_ = false;  // resumed at least once
  bool killed_ = false;
  bool done_ = false;
  std::exception_ptr error_;
};

}  // namespace anow::sim
