#include "sim/simulator.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace anow::sim {

Simulator::~Simulator() {
  // Fibers are killed (stacks unwound) before the queue is dropped so that
  // RAII in fiber bodies sees a consistent world.
  fibers_.clear();
}

void Simulator::at(Time t, std::function<void()> fn) {
  ANOW_CHECK_MSG(t >= now_, "scheduling into the past");
  if (t == now_) {
    // Immediate event: the FIFO stays (t, seq)-sorted because now_ only
    // advances and seq only grows — no heap traffic on the hot path.
    fifo_.push_back(Event{t, next_seq_++, std::move(fn)});
    return;
  }
  heap_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

const Simulator::Event& Simulator::peek_next() const {
  if (fifo_.empty()) return heap_.front();
  if (heap_.empty()) return fifo_.front();
  const Event& f = fifo_.front();
  const Event& h = heap_.front();
  // EventLater(a, b) == a runs after b.
  return EventLater{}(f, h) ? h : f;
}

void Simulator::pop_heap_top() {
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  heap_.pop_back();
}

Simulator::Event Simulator::pop_next() {
  if (fifo_.empty() ||
      (!heap_.empty() && EventLater{}(fifo_.front(), heap_.front()))) {
    Event ev = std::move(heap_.front());
    pop_heap_top();
    return ev;
  }
  Event ev = std::move(fifo_.front());
  fifo_.pop_front();
  return ev;
}

void Simulator::after(Time dt, std::function<void()> fn) {
  ANOW_CHECK(dt >= 0);
  at(now_ + dt, std::move(fn));
}

Fiber& Simulator::spawn(std::string name, Fiber::Body body) {
  fibers_.push_back(std::make_unique<Fiber>(std::move(name), std::move(body)));
  Fiber* f = fibers_.back().get();
  at(now_, [this, f] { resume_fiber(*f); });
  return *f;
}

void Simulator::resume_fiber(Fiber& f) {
  ANOW_CHECK(current_ == nullptr);
  if (f.done()) return;
  current_ = &f;
  f.resume();
  current_ = nullptr;
  if (f.error_) {
    std::exception_ptr e = f.error_;
    f.error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Simulator::run() {
  ANOW_CHECK_MSG(!in_fiber(), "run() called from fiber context");
  while (!queue_empty()) {
    Event ev = pop_next();
    ANOW_CHECK(ev.t >= now_);
    now_ = ev.t;
    ++events_executed_;
    ev.fn();
  }
}

void Simulator::run_until(Time t) {
  ANOW_CHECK_MSG(!in_fiber(), "run_until() called from fiber context");
  while (!queue_empty() && peek_next().t <= t) {
    Event ev = pop_next();
    now_ = ev.t;
    ++events_executed_;
    ev.fn();
  }
  now_ = std::max(now_, t);
}

void Simulator::wait(WaitPoint& wp, const char* tag) {
  Fiber* f = current_;
  ANOW_CHECK_MSG(f != nullptr, "wait() outside fiber context");
  if (wp.signaled) {
    wp.signaled = false;  // consume
    return;
  }
  ANOW_CHECK_MSG(wp.waiter == nullptr, "WaitPoint already has a waiter");
  wp.waiter = f;
  f->set_wait_tag(tag);
  f->park();
  f->set_wait_tag("");
}

void Simulator::sleep_for(Time dt) {
  ANOW_CHECK(dt >= 0);
  WaitPoint wp;
  after(dt, [this, &wp] { signal(wp); });
  wait(wp, "sleep");
}

void Simulator::signal(WaitPoint& wp) {
  ANOW_CHECK_MSG(!wp.signaled, "double signal of WaitPoint");
  if (wp.waiter != nullptr) {
    Fiber* f = wp.waiter;
    wp.waiter = nullptr;
    at(now_, [this, f] { resume_fiber(*f); });
  } else {
    wp.signaled = true;
  }
}

bool Simulator::all_fibers_done() const {
  return std::all_of(fibers_.begin(), fibers_.end(),
                     [](const auto& f) { return f->done(); });
}

std::size_t Simulator::live_fiber_count() const {
  std::size_t n = 0;
  for (const auto& f : fibers_) {
    if (!f->done()) ++n;
  }
  return n;
}

std::string Simulator::parked_fiber_report() const {
  std::ostringstream os;
  for (const auto& f : fibers_) {
    if (!f->done()) {
      os << "  fiber '" << f->name() << "' parked on '" << f->wait_tag()
         << "'\n";
    }
  }
  return os.str();
}

void Simulator::reap_done_fibers() {
  fibers_.erase(std::remove_if(fibers_.begin(), fibers_.end(),
                               [](const auto& f) { return f->done(); }),
                fibers_.end());
}

}  // namespace anow::sim
