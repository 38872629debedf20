// AccessMonitor — the measurement half of the adaptive placement subsystem
// (DESIGN.md §9).
//
// Aggregates, per monitoring *window* (one barrier epoch), the per-page
// write records the PlacementPolicy feeds on: the (page, writer) pairs of
// every interval the master logs.  It needs no extra message or handler.
//
// Every hook is an O(1) append gated on --placement adaptive under the
// home engine; otherwise the monitor is never called at all, which is part
// of the static-is-byte-identical guarantee.
//
// Window lifecycle: DsmSystem feeds records between barriers and calls
// end_window() at each barrier; the monitor then folds the window into the
// per-page dominance *streaks* (hysteresis state) the policy reads.
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/types.hpp"

namespace anow::dsm::placement {

/// Per-page hysteresis state, updated at each end_window().
struct PageStat {
  // --- current window --------------------------------------------------
  Uid window_writer = kNoUid;  ///< sole writer so far, kNoUid if none
  bool window_mixed = false;   ///< >1 distinct writer this window
  std::uint32_t window_writes = 0;
  // --- across windows ---------------------------------------------------
  /// The writer that solely dominated the page in the last `streak`
  /// consecutive windows.
  Uid streak_writer = kNoUid;
  std::uint16_t streak = 0;
  /// The window that just ended had a sole writer: the policy only acts on
  /// streaks whose evidence is current.
  bool fresh = false;
};

class AccessMonitor {
 public:
  /// Sizes the per-page table; called once from the DsmSystem ctor.
  void attach(PageId num_pages);

  // --- recording (adaptive mode only; event/handler context) -------------
  /// One write record: a logged interval's write notice (page, creator).
  void record_write(PageId page, Uid writer);

  /// Folds the current window into the streaks (a page keeps its streak
  /// while sole-written by the same writer; mixed windows reset it;
  /// unwritten pages keep their streak — idleness is not evidence of a new
  /// owner).
  void end_window();

  // --- policy-side queries ------------------------------------------------
  /// Pages touched by write records in the window that just ended (valid
  /// until the next record_write; the streak fields are up to date).
  const std::vector<PageId>& last_window_pages() const {
    return last_window_pages_;
  }
  const PageStat& page(PageId p) const {
    return pages_[static_cast<std::size_t>(p)];
  }

  /// Checkpoint restore / directory collapse: drop all state.
  void reset();

 private:
  std::vector<PageStat> pages_;
  std::vector<PageId> touched_;            // pages written this window
  std::vector<PageId> last_window_pages_;  // snapshot taken at end_window
};

}  // namespace anow::dsm::placement
