#include "exec/heap.hpp"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#include <mutex>

#include "util/check.hpp"

namespace anow::exec {

namespace {

// fault_handler.cpp mirrors these numerically; keep them in lockstep.
static_assert(static_cast<std::uint8_t>(PageAccess::kRead) == 1);
static_assert(static_cast<std::uint8_t>(PageAccess::kWrite) == 2);

int prot_for(PageAccess a) {
  switch (a) {
    case PageAccess::kNone:
      return PROT_NONE;
    case PageAccess::kRead:
      return PROT_READ;
    case PageAccess::kWrite:
      return PROT_READ | PROT_WRITE;
  }
  return PROT_NONE;
}

std::mutex& registry_mu() {
  static std::mutex mu;
  return mu;
}

void register_heap(detail::HeapDesc* d) {
  std::lock_guard<std::mutex> lk(registry_mu());
  detail::install_fault_handler();
  detail::HeapDesc** slots = detail::heap_slots();
  for (std::size_t i = 0; i < detail::kMaxHeaps; ++i) {
    if (slots[i] == nullptr) {
      slots[i] = d;
      return;
    }
  }
  ANOW_CHECK_MSG(false, "exec: more than kMaxHeaps live RealHeaps");
}

void unregister_heap(detail::HeapDesc* d) {
  std::lock_guard<std::mutex> lk(registry_mu());
  detail::HeapDesc** slots = detail::heap_slots();
  for (std::size_t i = 0; i < detail::kMaxHeaps; ++i) {
    if (slots[i] == d) slots[i] = nullptr;
  }
}

}  // namespace

ProcessHeap::~ProcessHeap() = default;

SimHeap::SimHeap(std::size_t bytes) : buf_(bytes, 0) {
  ANOW_CHECK(bytes % kPageBytes == 0);
  app_ = buf_.data();
  prot_ = buf_.data();
  bytes_ = bytes;
}

RealHeap::RealHeap(std::size_t bytes) {
  ANOW_CHECK(bytes % kPageBytes == 0);
  ANOW_CHECK_MSG(static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) == kPageBytes,
                 "real backend requires 4 KiB hardware pages");
  bytes_ = bytes;
  const std::size_t np = bytes / kPageBytes;

  // One memfd, mapped twice: the protocol view is always RW, the app view
  // starts PROT_NONE (every page invalid) and is opened per-page by
  // set_access / the fault handler.
  const int fd =
      static_cast<int>(syscall(SYS_memfd_create, "anow-heap", 0u));
  ANOW_CHECK_MSG(fd >= 0, "memfd_create failed");
  ANOW_CHECK(ftruncate(fd, static_cast<off_t>(bytes)) == 0);
  void* prot_map =
      mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ANOW_CHECK_MSG(prot_map != MAP_FAILED, "mmap(protocol view) failed");
  void* app_map = mmap(nullptr, bytes, PROT_NONE, MAP_SHARED, fd, 0);
  ANOW_CHECK_MSG(app_map != MAP_FAILED, "mmap(app view) failed");
  close(fd);  // mappings keep the pages alive
  prot_ = static_cast<std::uint8_t*>(prot_map);
  app_ = static_cast<std::uint8_t*>(app_map);
  std::memset(prot_, 0, bytes);

  access_ = std::make_unique<std::uint8_t[]>(np);
  std::memset(access_.get(), 0, np);  // all kNone
  twins_ = std::make_unique<std::uint8_t[]>(np * kPageBytes);
  trap_list_ = std::make_unique<std::int32_t[]>(np);

  desc_.app_base = app_;
  desc_.prot_base = prot_;
  desc_.bytes = bytes;
  desc_.npages = np;
  desc_.access = access_.get();
  desc_.twins = twins_.get();
  desc_.trap_list = trap_list_.get();
  desc_.trap_count = 0;
  register_heap(&desc_);
}

RealHeap::~RealHeap() {
  unregister_heap(&desc_);
  munmap(app_, bytes_);
  munmap(prot_, bytes_);
}

void RealHeap::set_access(std::int32_t first, std::int32_t count,
                          PageAccess a) {
  const auto want = static_cast<std::uint8_t>(a);
  auto p = static_cast<std::size_t>(first);
  const std::size_t end = p + static_cast<std::size_t>(count);
  while (p < end) {
    if (access_[p] == want) {
      ++p;
      continue;
    }
    const std::size_t run = p;
    while (p < end && access_[p] != want) access_[p++] = want;
    ANOW_CHECK(mprotect(app_ + run * kPageBytes, (p - run) * kPageBytes,
                        prot_for(a)) == 0);
    ++protect_calls_;
  }
}

std::size_t RealHeap::take_write_faults(std::int32_t* out) {
  const std::size_t n = desc_.trap_count;
  for (std::size_t i = 0; i < n; ++i) out[i] = trap_list_[i];
  desc_.trap_count = 0;
  return n;
}

}  // namespace anow::exec
