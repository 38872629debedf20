#include "exec/heap.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "util/check.hpp"

namespace anow::exec {

namespace {

/// Maps `fd` over the reserved view at `view` with protection `prot`.
bool map_view(std::uint8_t* view, std::size_t bytes, int prot, int fd) {
  return mmap(view, bytes, prot, MAP_SHARED | MAP_FIXED, fd, 0) == view;
}

}  // namespace

ProcessHeap::~ProcessHeap() = default;

GuardedReservation::GuardedReservation(std::size_t bytes) : bytes_(bytes) {
  ANOW_CHECK(bytes % kPageBytes == 0);
  void* p = mmap(nullptr, bytes + 2 * kPageBytes, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ANOW_CHECK_MSG(p != MAP_FAILED, "heap reservation failed");
  base_ = static_cast<std::uint8_t*>(p);
}

GuardedReservation::~GuardedReservation() {
  munmap(base_, bytes_ + 2 * kPageBytes);
}

SimHeap::SimHeap(std::size_t bytes) : view_(bytes) {
  app_ = view_.view();
  prot_ = app_;
  bytes_ = bytes;
  ANOW_CHECK(mprotect(app_, bytes, PROT_READ | PROT_WRITE) == 0);
}

void SimHeap::discard(std::int32_t first, std::int32_t count) {
  ANOW_CHECK(madvise(prot_ + static_cast<std::size_t>(first) * kPageBytes,
                     static_cast<std::size_t>(count) * kPageBytes,
                     MADV_DONTNEED) == 0);
}

RealHeap::RealHeap(std::size_t bytes) : prot_view_(bytes), app_view_(bytes) {
  ANOW_CHECK_MSG(static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) == kPageBytes,
                 "real backend requires 4 KiB hardware pages");
  prot_ = prot_view_.view();
  app_ = app_view_.view();
  bytes_ = bytes;

  // One memfd, mapped twice: the protocol view is always RW, the app view
  // starts PROT_NONE (every page invalid) and is opened per page by
  // set_access.  A fresh memfd reads as zeros and holds no page until one
  // is written.
  fd_ = static_cast<int>(syscall(SYS_memfd_create, "anow-heap", 0u));
  ANOW_CHECK_MSG(fd_ >= 0, "memfd_create failed");
  const bool mapped = ftruncate(fd_, static_cast<off_t>(bytes)) == 0 &&
                      map_view(prot_, bytes, PROT_READ | PROT_WRITE, fd_) &&
                      map_view(app_, bytes, PROT_NONE, fd_);
  if (!mapped) close(fd_);  // the destructor will not run
  ANOW_CHECK_MSG(mapped, "heap view mmap failed");

  // Value-initialized: every page kNone, matching the PROT_NONE mapping.
  access_ = std::make_unique<PageAccess[]>(bytes / kPageBytes);
}

RealHeap::~RealHeap() { close(fd_); }

void RealHeap::discard(std::int32_t first, std::int32_t count) {
  ANOW_CHECK(fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                       static_cast<off_t>(first) * kPageBytes,
                       static_cast<off_t>(count) * kPageBytes) == 0);
}

std::int64_t RealHeap::committed_bytes() const {
  struct stat st {};
  ANOW_CHECK(fstat(fd_, &st) == 0);
  return static_cast<std::int64_t>(st.st_blocks) * 512;
}

void RealHeap::set_access(std::int32_t first, std::int32_t count,
                          PageAccess a) {
  const int prot = a == PageAccess::kWrite ? PROT_READ | PROT_WRITE : PROT_NONE;
  auto p = static_cast<std::size_t>(first);
  const std::size_t end = p + static_cast<std::size_t>(count);
  while (p < end) {
    if (access_[p] == a) {
      ++p;
      continue;
    }
    const std::size_t run = p;
    while (p < end && access_[p] != a) access_[p++] = a;
    ANOW_CHECK(mprotect(app_ + run * kPageBytes, (p - run) * kPageBytes,
                        prot) == 0);
    ++protect_calls_;
  }
}

}  // namespace anow::exec
