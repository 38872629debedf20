// Per-process shared-heap storage behind the execution seam (DESIGN.md §14).
//
// A DsmProcess sees its copy of the shared region through two pointers:
//
//  * app_base()  — the view handed to application code via ptr<T>/cptr<T>.
//  * prot_base() — the view the protocol machinery (engine install/serve,
//    diff apply, region restore) reads and writes.
//
// SimHeap aliases both views onto one anonymous read-write mapping; every
// process gets one in Release builds, under either backend.  RealHeap maps
// the same memfd pages twice: the app view carries per-page mprotect state,
// while the protocol view stays PROT_READ|PROT_WRITE so protocol writes
// never fault.  Only checked builds (-DANOW_PROTOCOL_CHECKS) give it to a
// --backend real process, as the detector of accesses outside every
// declared range.  Either way a heap reserves address space only: a page is
// committed by its first write and reads as zero until then, so memory
// grows with the pages a process holds, not with the heap (DESIGN.md §10).
// The converse holds too: when a GC commit drops a process's copy of a
// page, the engine discards the page's frame, which reads as zero and
// stays uncommitted until a fetch installs a full copy again.
// Every view sits between two PROT_NONE guard pages, so a store just past
// either end dies at the faulting instruction.
//
// Writes are detected by their write_range declaration under both backends,
// so RealHeap's app-view protection follows page validity alone, re-derived
// from engine state for every page by the owning DsmProcess at each choke
// point (DsmProcess::heap_sync):
//
//    invalid (no copy / pending notices)  -> kNone   (touch = app bug)
//    valid                                -> kWrite
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace anow::exec {

constexpr std::size_t kPageBytes = 4096;

enum class PageAccess : std::uint8_t { kNone, kWrite };

class ProcessHeap {
 public:
  virtual ~ProcessHeap();

  std::uint8_t* app_base() const { return app_; }
  std::uint8_t* prot_base() const { return prot_; }
  std::size_t bytes() const { return bytes_; }
  std::int32_t npages() const {
    return static_cast<std::int32_t>(bytes_ / kPageBytes);
  }

  // Checked-build surface; no-ops on SimHeap, whose one view is read-write.
  /// Sets the app-view protection of pages [first, first + count) to `a`.
  /// RealHeap skips pages already recorded at `a` and issues one mprotect
  /// per maximal sub-run of the rest, so a caller that hands over whole
  /// runs of equal protection pays one system call (and one TLB shootdown)
  /// per run, not per page.
  virtual void set_access(std::int32_t /*first*/, std::int32_t /*count*/,
                          PageAccess /*a*/) {}

  /// Gives the frames of pages [first, first + count) back to the system:
  /// the pages read as zero and are uncommitted until their next write.
  /// The caller hands over whole runs, one call per run of pages.
  virtual void discard(std::int32_t first, std::int32_t count) = 0;

 protected:
  std::uint8_t* app_ = nullptr;
  std::uint8_t* prot_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Address space for one heap view: `bytes` (a multiple of kPageBytes)
/// between two PROT_NONE guard pages, reserved but not committed, and
/// unmapped, with whatever was mapped over it, on destruction.
class GuardedReservation {
 public:
  explicit GuardedReservation(std::size_t bytes);
  ~GuardedReservation();

  GuardedReservation(const GuardedReservation&) = delete;
  GuardedReservation& operator=(const GuardedReservation&) = delete;

  /// The first byte past the low guard page.
  std::uint8_t* view() const { return base_ + kPageBytes; }

 private:
  std::uint8_t* base_ = nullptr;
  std::size_t bytes_;  // the view's, guards excluded
};

/// One anonymous read-write mapping, both views alias it.
class SimHeap final : public ProcessHeap {
 public:
  explicit SimHeap(std::size_t bytes);

  /// madvise(MADV_DONTNEED) over the run.
  void discard(std::int32_t first, std::int32_t count) override;

 private:
  GuardedReservation view_;
};

/// Dual-mapped memfd pages, the app view protected per page: a real-backend
/// process's heap in checked builds.  Compiled in every build, so its tests
/// run in Release too.
class RealHeap final : public ProcessHeap {
 public:
  explicit RealHeap(std::size_t bytes);
  ~RealHeap() override;

  void set_access(std::int32_t first, std::int32_t count,
                  PageAccess a) override;
  /// Punches the run out of the memfd, which unmaps it from both views.
  void discard(std::int32_t first, std::int32_t count) override;
  PageAccess access(std::int32_t page) const {
    return access_[static_cast<std::size_t>(page)];
  }
  /// mprotect calls issued by set_access so far.
  std::int64_t protect_calls() const { return protect_calls_; }
  /// Bytes of storage the memfd holds: the pages touched through either
  /// view (a read commits a page too) and not discarded since.
  std::int64_t committed_bytes() const;

 private:
  GuardedReservation prot_view_;
  GuardedReservation app_view_;
  int fd_ = -1;  // kept open for discard()
  std::unique_ptr<PageAccess[]> access_;
  std::int64_t protect_calls_ = 0;
};

}  // namespace anow::exec
