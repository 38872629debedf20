#include "exec/heap.hpp"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>

#include "util/check.hpp"

namespace anow::exec {

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

  // One memfd, mapped twice: the protocol view is always RW, the app view
  // starts PROT_NONE (every page invalid) and is opened per page by
  // set_access.
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

  // Value-initialized: every page kNone, matching the PROT_NONE mapping.
  access_ = std::make_unique<PageAccess[]>(bytes / kPageBytes);
}

RealHeap::~RealHeap() {
  munmap(app_, bytes_);
  munmap(prot_, bytes_);
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
