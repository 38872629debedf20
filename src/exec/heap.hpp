// Per-process shared-heap storage behind the execution seam (DESIGN.md §14).
//
// A DsmProcess sees its copy of the shared region through two pointers:
//
//  * app_base()  — the view handed to application code via ptr<T>/cptr<T>.
//  * prot_base() — the view the protocol machinery (engine install/serve,
//    diff apply, region restore) reads and writes.
//
// SimHeap aliases both views onto one plain buffer — byte-identical to the
// old std::vector<std::uint8_t> region.  RealHeap maps the same memfd pages
// twice: the app view carries per-page mprotect state driving the SIGSEGV
// write barrier (fault_handler.cpp), while the protocol view stays
// PROT_READ|PROT_WRITE so protocol writes never trap.  Desired page
// protection is derived from engine state by the owning DsmProcess, for the
// pages the engine logged as changed (DsmProcess::heap_sync):
//
//    invalid (no copy / pending notices)  -> kNone   (touch = app bug)
//    valid, clean, tracked                -> kRead   (first write traps)
//    valid and dirty / exclusive-writable -> kWrite  (writes untracked;
//                                            diffs or exclusivity cover it)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/fault_support.hpp"

namespace anow::exec {

constexpr std::size_t kPageBytes = 4096;

enum class PageAccess : std::uint8_t { kNone = 0, kRead = 1, kWrite = 2 };

class ProcessHeap {
 public:
  virtual ~ProcessHeap();

  std::uint8_t* app_base() const { return app_; }
  std::uint8_t* prot_base() const { return prot_; }
  std::size_t bytes() const { return bytes_; }
  std::int32_t npages() const {
    return static_cast<std::int32_t>(bytes_ / kPageBytes);
  }
  virtual bool real() const { return false; }

  // Real-backend surface; no-ops on SimHeap so call sites stay branch-free.
  /// Sets the app-view protection of pages [first, first + count) to `a`.
  /// RealHeap skips pages already recorded at `a` and issues one mprotect
  /// per maximal sub-run of the rest, so a caller that hands over whole
  /// runs of equal protection pays one system call (and one TLB shootdown)
  /// per run, not per page.
  virtual void set_access(std::int32_t /*first*/, std::int32_t /*count*/,
                          PageAccess /*a*/) {}
  virtual PageAccess access(std::int32_t /*page*/) const {
    return PageAccess::kWrite;
  }
  /// Drains the write-fault trap list into `out` (fault order); returns the
  /// count.  `out` must hold npages() entries.
  virtual std::size_t take_write_faults(std::int32_t* /*out*/) { return 0; }
  /// Pre-write image of `page` captured by the handler at its last trap.
  /// Valid until the page traps again.
  virtual const std::uint8_t* fault_twin(std::int32_t /*page*/) const {
    return nullptr;
  }

 protected:
  std::uint8_t* app_ = nullptr;
  std::uint8_t* prot_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Simulator backend: one plain buffer, both views alias it.
class SimHeap final : public ProcessHeap {
 public:
  explicit SimHeap(std::size_t bytes);

 private:
  std::vector<std::uint8_t> buf_;
};

/// Real backend: dual-mapped memfd pages + mprotect write barriers.
class RealHeap final : public ProcessHeap {
 public:
  explicit RealHeap(std::size_t bytes);
  ~RealHeap() override;

  bool real() const override { return true; }
  void set_access(std::int32_t first, std::int32_t count,
                  PageAccess a) override;
  PageAccess access(std::int32_t page) const override {
    return static_cast<PageAccess>(access_[static_cast<std::size_t>(page)]);
  }
  std::size_t take_write_faults(std::int32_t* out) override;
  const std::uint8_t* fault_twin(std::int32_t page) const override {
    return twins_.get() + static_cast<std::size_t>(page) * kPageBytes;
  }
  /// mprotect calls issued by set_access so far (the fault handler's own
  /// are not counted).
  std::int64_t protect_calls() const { return protect_calls_; }

 private:
  std::unique_ptr<std::uint8_t[]> access_;
  std::unique_ptr<std::uint8_t[]> twins_;
  std::unique_ptr<std::int32_t[]> trap_list_;
  detail::HeapDesc desc_;
  std::int64_t protect_calls_ = 0;
};

}  // namespace anow::exec
