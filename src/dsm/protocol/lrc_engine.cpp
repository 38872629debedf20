#include "dsm/protocol/lrc_engine.hpp"

#include <algorithm>
#include <cstring>

#include "analysis/protocol_checker.hpp"
#include "dsm/debug.hpp"
#include "dsm/diff.hpp"
#include "util/check.hpp"

namespace anow::dsm::protocol {

namespace {

/// Application order for pending diffs: causal (lamport) first; concurrent
/// intervals (same lamport) touch disjoint words, so any deterministic
/// tiebreak is correct.
bool notice_order(const PendingNotice& a, const PendingNotice& b) {
  if (a.lamport != b.lamport) return a.lamport < b.lamport;
  if (a.creator != b.creator) return a.creator < b.creator;
  return a.iseq < b.iseq;
}

}  // namespace

void LrcEngine::on_attach_node() {
  own_diffs_.resize(pages_.size());
  ctr_diffs_created_ = &stats_->counter("dsm.diffs_created");
  ctr_intervals_ = &stats_->counter("dsm.intervals");
  ctr_diff_fetches_ = &stats_->counter("dsm.diff_fetches");
}

void LrcEngine::on_attach_master() {}

// ---------------------------------------------------------------------------
// Node side: twins + diff archive
// ---------------------------------------------------------------------------

void LrcEngine::materialize_diff(PageId p) {
  PageMeta& pm = page(p);
  ANOW_CHECK(pm.twin != nullptr && !pm.dirty && pm.twin_iseq > 0);
  // Encoded straight into the per-generation arena: no vector round trip,
  // and GC frees the whole archive with one release (DESIGN.md §10).
  // Creation cost is a handler-side scan; charged as elapsed time by the
  // caller because materialization happens in both fiber and handler
  // contexts.
  const DiffView diff =
      make_diff_arena(pm.twin.get(), region_ + page_base(p), diff_arena_);
  archive_bytes_ += static_cast<std::int64_t>(diff.size);
  own_diffs_[static_cast<std::size_t>(p)].push_back({pm.twin_iseq, diff});
  pm.twin.reset();
  pm.twin_iseq = 0;
  twin_bytes_ -= static_cast<std::int64_t>(kPageSize);
  (*ctr_diffs_created_)++;
}

DiffView LrcEngine::archived_diff(PageId p, std::int32_t iseq) const {
  const auto& archive = own_diffs_[static_cast<std::size_t>(p)];
  const auto it = std::lower_bound(
      archive.begin(), archive.end(), iseq,
      [](const ArchivedDiff& d, std::int32_t want) { return d.iseq < want; });
  ANOW_CHECK_MSG(it != archive.end() && it->iseq == iseq,
                 "diff request for unknown interval " << iseq);
  return it->bytes;
}

bool LrcEngine::flush_lazy_twin(PageId p) {
  PageMeta& pm = page(p);
  if (pm.twin == nullptr || pm.dirty) return false;
  materialize_diff(p);
  return true;
}

void LrcEngine::declare_write(PageId p) {
  PageMeta& pm = page(p);
  // A repeat write no one read in between: the trap, twin and notice buy
  // nothing a sole copy would not have had for free.
  if (pm.written_unserved) ++avoidable_writes_;
  pm.written_unserved = true;
  if (protocol_of(p) == Protocol::kMultiWriter) {
    ANOW_CHECK(pm.twin == nullptr);
    pm.twin = std::make_unique_for_overwrite<std::uint8_t[]>(kPageSize);
    std::memcpy(pm.twin.get(), region_ + page_base(p), kPageSize);
    twin_bytes_ += static_cast<std::int64_t>(kPageSize);
  }
  pm.dirty = true;
  dirty_pages_.push_back(p);
}

// ---------------------------------------------------------------------------
// Node side: read fault path
// ---------------------------------------------------------------------------

Uid LrcEngine::pick_page_source(PageId p) const {
  const PageMeta& pm = page(p);
  // Fetch from the most recent writer; its copy reflects everything it had
  // applied before writing.
  if (!pm.pending.empty()) return pm.pending.newest_writer();
  return pm.owner_hint;
}

void LrcEngine::install_copy(PageId p, const std::uint8_t* data,
                             const AppliedMap& applied,
                             bool must_cover_pending) {
  PageMeta& pm = page(p);
  // LRC never refetches a page it still holds writes in: a dirty page stays
  // valid until its notices arrive, and those are merged as diffs.
  ANOW_CHECK_MSG(!pm.dirty && pm.twin == nullptr,
                 "full-copy install over local writes on page " << p);
  std::memcpy(region_ + page_base(p), data, kPageSize);
  settle_pending(p, applied, must_cover_pending);
}

std::vector<DiffFetchPlan> LrcEngine::plan_diff_fetches(const PageId* pages,
                                                        std::size_t count) {
  struct Want {
    Uid creator;
    PageId page;
    std::int32_t iseq;
  };
  std::vector<Want> wants;
  for (std::size_t i = 0; i < count; ++i) {
    // Diffs are fetched by interval, so the page must keep every notice.
    ANOW_CHECK(!one_copy_resolves(pages[i]));
    for (const auto& n : page(pages[i]).pending) {
      wants.push_back({n.creator, pages[i], n.iseq});
    }
  }
  std::sort(wants.begin(), wants.end(), [](const Want& a, const Want& b) {
    if (a.creator != b.creator) return a.creator < b.creator;
    if (a.page != b.page) return a.page < b.page;
    return a.iseq < b.iseq;
  });
  std::vector<DiffFetchPlan> plans;
  for (const auto& w : wants) {
    if (plans.empty() || plans.back().creator != w.creator) {
      plans.push_back({w.creator, {}});
    }
    auto& pages_of_plan = plans.back().pages;
    if (pages_of_plan.empty() || pages_of_plan.back().page != w.page) {
      pages_of_plan.push_back({w.page, {}});
    }
    pages_of_plan.back().iseqs.push_back(w.iseq);
  }
  return plans;
}

std::int64_t LrcEngine::apply_fetched_diffs(
    PageId p, const std::vector<DiffReply>& replies) {
  PageMeta& pm = page(p);
  // Apply in causal order.
  std::vector<PendingNotice> order(pm.pending.begin(), pm.pending.end());
  std::sort(order.begin(), order.end(), notice_order);
  std::int64_t applied_bytes = 0;
  for (const auto& n : order) {
    const DiffBytes* found = nullptr;
    for (const auto& reply : replies) {
      if (reply.creator != n.creator) continue;
      // reply.pages is sorted by page id (plan_diff_fetches sorts), so a
      // batched GC validation round stays O(pages log pages) overall.
      const auto it = std::lower_bound(
          reply.pages.begin(), reply.pages.end(), p,
          [](const DiffPageReply& pg, PageId want) { return pg.page < want; });
      if (it != reply.pages.end() && it->page == p) {
        for (const auto& [iseq, bytes] : it->diffs) {
          if (iseq == n.iseq) {
            found = &bytes;
            break;
          }
        }
      }
      break;
    }
    ANOW_CHECK_MSG(found != nullptr, "diff for interval missing in reply");
    apply_diff(region_ + page_base(p), *found);
    applied_bytes += static_cast<std::int64_t>(found->size());
    pm.applied.bump(n.creator, n.iseq);
  }
  pending_.clear(pm.pending);
  ANOW_ETRACE(p, "applied diffs");
  return applied_bytes;
}

// ---------------------------------------------------------------------------
// Node side: serving
// ---------------------------------------------------------------------------

bool LrcEngine::prepare_serve(PageId p) {
  PageMeta& pm = page(p);
  if (pm.exclusive && pm.have_copy) {
    // Serving the page ends exclusivity.  If the page was write-declared in
    // the *current* interval the owner may still be writing through raw
    // pointers, so conservatively treat it as dirty from here: snapshot a
    // twin now (multi-writer) and let the next release point announce a
    // write notice — any words written after this serve then propagate as a
    // diff.  Pages only written in finished intervals are served clean.
    const bool maybe_mid_write =
        pm.exclusive_rw && pm.exclusive_epoch == epoch_;
    pm.exclusive = false;
    pm.exclusive_rw = false;
    if (!pm.dirty && maybe_mid_write) {
      if (protocol_of(p) == Protocol::kMultiWriter) {
        ANOW_CHECK(pm.twin == nullptr);
        pm.twin = std::make_unique_for_overwrite<std::uint8_t[]>(kPageSize);
        std::memcpy(pm.twin.get(), region_ + page_base(p), kPageSize);
        twin_bytes_ += static_cast<std::int64_t>(kPageSize);
      }
      pm.dirty = true;
      dirty_pages_.push_back(p);
    }
  }
  return pm.have_copy;
}

int LrcEngine::collect_diffs(const std::vector<DiffPageRequest>& pages,
                             std::vector<DiffPageReply>& out) {
  int materialized = 0;
  for (const auto& req : pages) {
    // Materialize the lazy twin's diff on demand (TreadMarks semantics).
    if (flush_lazy_twin(req.page)) ++materialized;
    ANOW_CHECK_MSG(!own_diffs_[static_cast<std::size_t>(req.page)].empty(),
                   "diff request for page " << req.page
                                            << " with no archived diffs");
    page(req.page).written_unserved = false;  // the writes were read
    DiffPageReply pg;
    pg.page = req.page;
    for (std::int32_t iseq : req.iseqs) {
      // The reply needs owned bytes (it outlives any GC of this archive);
      // copy out of the arena-backed view.
      const DiffView d = archived_diff(req.page, iseq);
      pg.diffs.emplace_back(iseq, DiffBytes(d.data, d.data + d.size));
    }
    *ctr_diff_fetches_ += static_cast<std::int64_t>(pg.diffs.size());
    out.push_back(std::move(pg));
  }
  return materialized;
}

// ---------------------------------------------------------------------------
// Node side: intervals
// ---------------------------------------------------------------------------

Interval LrcEngine::finish_interval() {
  Interval iv;
  iv.creator = self_;
  if (dirty_pages_.empty()) {
    iv.iseq = 0;  // empty interval: not logged, consumes no sequence number
    ++epoch_;
    return iv;
  }
  iv.iseq = next_iseq_++;
  for (PageId p : dirty_pages_) {
    PageMeta& pm = page(p);
    ANOW_CHECK(pm.dirty);
    pm.dirty = false;
    if (protocol_of(p) == Protocol::kMultiWriter) {
      // Lazy diffing: keep the twin; the diff is materialized only if
      // someone requests it or the page is written again.  The notice goes
      // out regardless (a real system cannot know whether the writes
      // changed anything).
      ANOW_CHECK(pm.twin != nullptr);
      pm.twin_iseq = iv.iseq;
      iv.notices.push_back({p, Protocol::kMultiWriter});
    } else {
      iv.notices.push_back({p, Protocol::kSingleWriter});
    }
    pm.applied.bump(self_, iv.iseq);
  }
  dirty_pages_.clear();
  ++epoch_;
  (*ctr_intervals_)++;
  return iv;
}

// ---------------------------------------------------------------------------
// Node side: garbage collection
// ---------------------------------------------------------------------------

std::vector<PageId> LrcEngine::gc_pages_to_validate(const OwnerDelta& owners) {
  // Effective post-GC owner = delta entry if present, else the current hint
  // (a page owned continuously since the previous GC keeps hint == self at
  // its owner).  Both kinds must be made fully valid: an owner can hold
  // pending notices from a concurrent same-epoch writer even when its
  // ownership does not change.
  std::vector<std::uint8_t> overridden(pages_.size(), 0);
  std::vector<Uid> new_owner(pages_.size(), kNoUid);
  for (const auto& [p, owner] : owners) {
    overridden[static_cast<std::size_t>(p)] = 1;
    new_owner[static_cast<std::size_t>(p)] = owner;
  }
  std::vector<PageId> need;
  for (PageId p = 0; p < num_pages(); ++p) {
    const PageMeta& pm = page(p);
    const Uid owner = overridden[static_cast<std::size_t>(p)]
                          ? new_owner[static_cast<std::size_t>(p)]
                          : pm.owner_hint;
    if (owner != self_) continue;
    ANOW_CHECK_MSG(pm.have_copy, "GC made uid " << self_ << " owner of page "
                                                << p << " it never wrote");
    if (!pm.pending.empty()) need.push_back(p);
  }
  return need;
}

void LrcEngine::on_gc_commit() {
  // No stale copy survives the commit, so no diff can be requested again.
  for (auto& archive : own_diffs_) archive.clear();
  // Use-after-release guard (DESIGN.md §13): every arena-backed DiffView
  // is archive-held, so none may remain once the archives clear.  Count
  // what is still held at the release and let the checker assert it is
  // zero.
  if (checker_ != nullptr) {
    std::int64_t outstanding = 0;
    for (const auto& archive : own_diffs_) {
      outstanding += static_cast<std::int64_t>(archive.size());
    }
    checker_->note_arena_reset(outstanding);
  }
  diff_arena_.release();  // every archived diff's bytes go back at once
  archive_bytes_ = 0;
}

// ---------------------------------------------------------------------------
// Master side: interval log + delivery matrix
// ---------------------------------------------------------------------------

void LrcEngine::note_uid(Uid uid) { directory_.note_uid(uid); }

void LrcEngine::forget_uid(Uid uid) { directory_.forget_uid(uid); }

void LrcEngine::log_interval(Interval interval) {
  if (interval.iseq == 0) return;  // empty interval
  for (const auto& wn : interval.notices) {
    dir_.record_write(wn.page, interval.creator, interval.lamport,
                      wn.protocol);
  }
  directory_.log(std::move(interval));
}

void LrcEngine::log_epoch(std::vector<Interval> intervals) {
  // All intervals of one barrier epoch are concurrent: same lamport stamp.
  const std::int64_t stamp = directory_.next_stamp();
  for (auto& iv : intervals) {
    iv.lamport = stamp;
    log_interval(std::move(iv));
  }
}

void LrcEngine::log_release(Interval interval) {
  interval.lamport = directory_.next_stamp();
  log_interval(std::move(interval));
}

std::vector<Interval> LrcEngine::collect_undelivered(Uid target) {
  return directory_.collect_undelivered(target);
}

// ---------------------------------------------------------------------------
// Master side: garbage collection
// ---------------------------------------------------------------------------

OwnerDelta LrcEngine::gc_begin() {
  gc_requested_ = false;
  // The last-writer-vs-owner scan over the pages written since the last GC.
  return dir_.take_gc_delta();
}

void LrcEngine::gc_finish(const OwnerDelta& delta) {
  dir_.apply_delta(delta);
  directory_.clear();
  // The processes commit when the next fork/release delivers
  // gc_commit=true; until then the delta stays pending.
  pending_commit_ = true;
  pending_delta_ = delta;
}

}  // namespace anow::dsm::protocol
