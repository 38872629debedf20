#include "dsm/placement/access_monitor.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace anow::dsm::placement {

void AccessMonitor::attach(PageId num_pages) {
  ANOW_CHECK(pages_.empty());
  pages_.assign(static_cast<std::size_t>(num_pages), PageStat{});
}

void AccessMonitor::record_write(PageId page, Uid writer) {
  PageStat& ps = pages_[static_cast<std::size_t>(page)];
  if (ps.window_writes == 0) {
    // First record of the window: the page joins the touched list once,
    // so end_window() can fold and reset in O(touched).
    touched_.push_back(page);
    ps.window_writer = writer;
  } else if (ps.window_writer != writer) {
    ps.window_mixed = true;
  }
  ++ps.window_writes;
}

void AccessMonitor::end_window() {
  for (const PageId p : touched_) {
    PageStat& ps = pages_[static_cast<std::size_t>(p)];
    if (ps.window_mixed) {
      // Contended page: no single writer dominates, so there is no home
      // that would absorb its traffic.  Reset the streak hard.
      ps.streak_writer = kNoUid;
      ps.streak = 0;
      ps.fresh = false;
    } else {
      if (ps.window_writer == ps.streak_writer) {
        if (ps.streak < UINT16_MAX) ++ps.streak;
      } else {
        ps.streak_writer = ps.window_writer;
        ps.streak = 1;
      }
      ps.fresh = true;
    }
    ps.window_writer = kNoUid;
    ps.window_mixed = false;
    ps.window_writes = 0;
  }
  last_window_pages_ = std::move(touched_);
  touched_.clear();
}

void AccessMonitor::reset() {
  std::fill(pages_.begin(), pages_.end(), PageStat{});
  touched_.clear();
  last_window_pages_.clear();
}

}  // namespace anow::dsm::placement
