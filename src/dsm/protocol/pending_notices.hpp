// Pending write notices: the invalidations a node has received for a page
// and not yet resolved (DESIGN.md §5).
//
// Where each notice is resolved on its own — a multi-writer page under
// `lrc`, whose diffs are fetched by interval — a page's PendingList keeps
// one record per notice.  Where one fetched full copy resolves the page —
// every page under `home`, a single-writer page under `lrc` — it keeps one
// record per writer: the writer's newest notice and the count of notices it
// stands for.  That is exact because AppliedMap::covers is monotone in iseq
// per creator and a writer's lamport stamp rises with its iseq, so the
// newest notice decides every prune, must-cover check, emptiness test and
// newest-writer pick that an older one would.  Its count stays exact too:
// under `home` every install must cover the page, and under `lrc` a
// single-writer page's copy comes from its newest writer, whose copy
// reflects every earlier interval on the page, so a prune covers all of a
// writer's notices or none of them.
//
// PendingNotices is the one place that changes a list, and it keeps the
// node's count of the notices its lists stand for: the count the GC model
// charges (ConsistencyEngine::consistency_bytes).  A list it empties hands
// its storage back, so a GC commit, which empties every list, leaves the
// node holding no record storage at all.
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/interval.hpp"
#include "dsm/protocol/applied_map.hpp"
#include "dsm/types.hpp"

namespace anow::dsm::protocol {

/// One page's pending write notices (PageMeta::pending).  Engines read it;
/// PendingNotices changes it.
class PendingList {
 public:
  bool empty() const { return records_.empty(); }
  /// Records stored: one per notice or one per writer (see above).
  std::size_t records() const { return records_.size(); }
  /// Records the list has room for; 0 whenever the list is empty.
  std::size_t capacity() const { return records_.capacity(); }
  /// Notices the records stand for.
  std::int64_t notices() const;
  auto begin() const { return records_.begin(); }
  auto end() const { return records_.end(); }
  /// Creator of the newest notice: the highest lamport stamp, ties to the
  /// higher creator.  kNoUid when the list is empty.
  Uid newest_writer() const;

 private:
  friend class PendingNotices;
  std::vector<PendingNotice> records_;
};

/// Every change to a node's pending lists, and the count of notices they
/// stand for.
class PendingNotices {
 public:
  /// Records the notice of interval (creator, iseq, lamport).  With
  /// `per_writer`, a record the creator already holds takes the newer
  /// notice and counts one more; its iseq must rise.
  void add(PendingList& list, Uid creator, std::int32_t iseq,
           std::int64_t lamport, bool per_writer);
  /// Drops the records a full copy with `applied` covers.
  void prune(PendingList& list, const AppliedMap& applied);
  /// Whether a full copy with `applied` covers every record (a fetch that
  /// must resolve the page).  The list is cleared either way; the caller
  /// fails the protocol check on false.
  bool cover_all(PendingList& list, const AppliedMap& applied);
  /// Drops every record and hands the list's storage back.
  void clear(PendingList& list);
  /// Notices held across every list of the node.
  std::int64_t count() const { return pending_count_; }

 private:
  std::int64_t pending_count_ = 0;
};

}  // namespace anow::dsm::protocol
