// Intervals and write notices — the lazy-release-consistency metadata.
//
// A process's execution between two release points (barrier arrival, lock
// release) forms an *interval*; the set of pages it dirtied in that interval
// is announced to others as *write notices*.  A receiver invalidates noticed
// pages and, on the next access fault, pulls either the diffs (multi-writer)
// or a fresh copy from the last writer (single-writer).
//
// Simplification vs. TreadMarks (documented in DESIGN.md §5): interval
// ordering uses a Lamport stamp assigned by the consistency manager (the
// master logs every interval, since barrier arrivals and lock releases all
// pass through it).  Concurrent intervals in one barrier epoch share a stamp;
// their diffs touch disjoint words (data-race-free program), so application
// order among them is irrelevant.
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/types.hpp"

namespace anow::dsm {

/// One dirtied page inside an interval.
struct WriteNotice {
  PageId page = -1;
  Protocol protocol = Protocol::kSingleWriter;
};

struct Interval {
  Uid creator = kNoUid;
  /// Per-creator sequence number, 1-based, dense.
  std::int32_t iseq = 0;
  /// Causal order stamp (barrier epoch / lock transfer count).
  std::int64_t lamport = 0;
  std::vector<WriteNotice> notices;

  /// Approximate wire size used for message cost accounting.
  std::int64_t wire_bytes() const {
    return 16 + static_cast<std::int64_t>(notices.size()) * 6;
  }
};

/// A pending (not yet resolved) invalidation at one process for one page:
/// four 32-bit fields.  Where one fetched full copy resolves the page, one
/// record stands for `count` notices of its creator and holds the newest
/// of them (protocol/pending_notices.hpp); elsewhere `count` is 1.  The
/// page's write-sharing protocol is not stored: it is the engine's
/// protocol_of(page).
struct PendingNotice {
  Uid creator = kNoUid;
  std::int32_t iseq = 0;
  /// Interval::lamport, narrowed where the record is made (checked).
  std::int32_t lamport = 0;
  std::int32_t count = 1;
};
static_assert(sizeof(PendingNotice) == 16);

}  // namespace anow::dsm
