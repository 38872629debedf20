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
// twice: the app view carries per-page mprotect state, while the protocol
// view stays PROT_READ|PROT_WRITE so protocol writes never fault.  Writes
// are detected by their write_range declaration under both backends, so
// the app view's protection follows page validity alone, derived from
// engine state by the owning DsmProcess for the pages the engine logged as
// changed (DsmProcess::heap_sync):
//
//    invalid (no copy / pending notices)  -> kNone   (touch = app bug)
//    valid                                -> kWrite
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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

/// Real backend: dual-mapped memfd pages, the app view protected per page.
class RealHeap final : public ProcessHeap {
 public:
  explicit RealHeap(std::size_t bytes);
  ~RealHeap() override;

  void set_access(std::int32_t first, std::int32_t count,
                  PageAccess a) override;
  PageAccess access(std::int32_t page) const override {
    return access_[static_cast<std::size_t>(page)];
  }
  /// mprotect calls issued by set_access so far.
  std::int64_t protect_calls() const { return protect_calls_; }

 private:
  std::unique_ptr<PageAccess[]> access_;
  std::int64_t protect_calls_ = 0;
};

}  // namespace anow::exec
