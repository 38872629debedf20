#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SIM_FIBER_ASAN 1
#elif defined(__SANITIZE_THREAD__)
#define SIM_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SIM_FIBER_ASAN 1
#elif __has_feature(thread_sanitizer)
#define SIM_FIBER_TSAN 1
#endif
#endif

#ifdef SIM_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef SIM_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace anow::sim {

namespace {

// glibc's default thread stack size: a process body may recurse as deeply
// as it could on a thread of its own.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

/// kStackBytes of mmap'd stack above one PROT_NONE guard page.
class Stack {
 public:
  Stack() : guard_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    void* p = mmap(nullptr, guard_ + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    ANOW_CHECK_MSG(p != MAP_FAILED,
                   "fiber stack mmap failed: " << std::strerror(errno));
    map_ = static_cast<std::byte*>(p);
    if (mprotect(map_, guard_, PROT_NONE) != 0) {
      munmap(map_, guard_ + kStackBytes);
      ANOW_CHECK_MSG(false, "fiber guard page: " << std::strerror(errno));
    }
    unpoison();
  }
  ~Stack() {
    unpoison();
    munmap(map_, guard_ + kStackBytes);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::byte* lo() const { return map_ + guard_; }

 private:
  // ASan's shadow outlives a mapping, and a fiber's frames never return,
  // so their redzones stay poisoned: clear them both ways, so neither this
  // stack nor a later mapping at the same addresses inherits stale ones.
  void unpoison() const {
#ifdef SIM_FIBER_ASAN
    ASAN_UNPOISON_MEMORY_REGION(lo(), kStackBytes);
#endif
  }

  std::size_t guard_;
  std::byte* map_ = nullptr;
};

}  // namespace

struct Fiber::Context {
  explicit Context(Fiber* self);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Fiber side, first thing after every switch in.
  void arrived();

  Stack stack;
  ucontext_t uc{};
  ucontext_t caller_uc{};
#ifdef SIM_FIBER_ASAN
  void* fake_stack = nullptr;  // the fiber's, while it is switched out
  const void* caller_stack = nullptr;
  std::size_t caller_stack_bytes = 0;
#endif
#ifdef SIM_FIBER_TSAN
  void* tsan_fiber = nullptr;
  void* tsan_caller = nullptr;
#endif
};

Fiber::Context::Context(Fiber* self) {
  ANOW_CHECK(getcontext(&uc) == 0);
  uc.uc_stack.ss_sp = stack.lo();
  uc.uc_stack.ss_size = kStackBytes;
  uc.uc_link = nullptr;
  const auto bits =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(self));
  makecontext(&uc, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
              static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xffffffffu));
#ifdef SIM_FIBER_TSAN
  tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::Context::~Context() {
#ifdef SIM_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber);
#endif
}

void Fiber::Context::arrived() {
#ifdef SIM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, &caller_stack,
                                  &caller_stack_bytes);
#endif
}

Fiber::Fiber(std::string name, Body body)
    : name_(std::move(name)),
      body_(std::move(body)),
      ctx_(std::make_unique<Context>(this)) {}

Fiber::~Fiber() { kill_and_join(); }

void Fiber::entry(unsigned self_hi, unsigned self_lo) {
  auto* self = reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(
      (std::uint64_t{self_hi} << 32) | self_lo));
  self->ctx_->arrived();
  try {
    self->body_();
  } catch (const Killed&) {
    // Normal teardown path: unwound by kill_and_join().
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->done_ = true;
  self->parked_ = true;
  self->switch_out(/*final=*/true);
  std::abort();  // a finished fiber is never switched back in
}

void Fiber::switch_in() {
  Context& c = *ctx_;
#ifdef SIM_FIBER_ASAN
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, c.stack.lo(), kStackBytes);
#endif
#ifdef SIM_FIBER_TSAN
  c.tsan_caller = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(c.tsan_fiber, 0);
#endif
  ANOW_CHECK(swapcontext(&c.caller_uc, &c.uc) == 0);
#ifdef SIM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Fiber::switch_out([[maybe_unused]] bool final) {
  Context& c = *ctx_;
#ifdef SIM_FIBER_ASAN
  // Leaving for good passes no save slot, so ASan frees the fake stack.
  __sanitizer_start_switch_fiber(final ? nullptr : &c.fake_stack,
                                 c.caller_stack, c.caller_stack_bytes);
#endif
#ifdef SIM_FIBER_TSAN
  __tsan_switch_to_fiber(c.tsan_caller, 0);
#endif
  ANOW_CHECK(swapcontext(&c.uc, &c.caller_uc) == 0);
  c.arrived();
}

void Fiber::resume() {
  ANOW_CHECK_MSG(parked_ && !done_, "resume of fiber '"
                                        << name_ << "' that is not parked");
  parked_ = false;
  started_ = true;
  switch_in();
}

void Fiber::park() {
  parked_ = true;
  switch_out(/*final=*/false);
  if (killed_) {
    throw Killed{};
  }
}

void Fiber::kill_and_join() {
  if (!started_) {
    done_ = true;
    return;
  }
  if (!done_) {
    killed_ = true;
    switch_in();
  }
}

}  // namespace anow::sim
