#include "dsm/protocol/home_lrc_engine.hpp"

#include <algorithm>
#include <cstring>

#include "dsm/debug.hpp"
#include "dsm/diff.hpp"
#include "util/check.hpp"

namespace anow::dsm::protocol {

void HomeLrcEngine::on_attach_node() {
  ctr_intervals_ = &stats_->counter("dsm.intervals");
  ctr_diffs_created_ = &stats_->counter("dsm.diffs_created");
  ctr_flush_diffs_applied_ = &stats_->counter("dsm.home_flush_diffs_applied");
}

// ---------------------------------------------------------------------------
// Node side: write path
// ---------------------------------------------------------------------------

bool HomeLrcEngine::flush_lazy_twin(PageId /*p*/) { return false; }

void HomeLrcEngine::declare_write(PageId p) {
  PageMeta& pm = page(p);
  if (pm.owner_hint != self_) {
    // The diff for the eager flush needs a twin regardless of the page's
    // write-sharing protocol; writes at the home itself need nothing (the
    // data already lives where readers fetch from).  Hints are stable
    // within an interval — home changes only ride fork/release boundaries
    // — so this decision cannot be invalidated before the flush.
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

Uid HomeLrcEngine::pick_page_source(PageId p) const {
  // Always the home; its copy covers every notice that can exist.
  return page(p).owner_hint;
}

void HomeLrcEngine::install_copy(PageId p, const std::uint8_t* data,
                                 const AppliedMap& applied,
                                 bool must_cover_pending) {
  PageMeta& pm = page(p);
  if (pm.dirty || pm.twin != nullptr) {
    // Refetch over local uncommitted writes (a notice arrived mid-interval
    // for a page we are writing): the home copy lacks our words, so merge —
    // capture our writes as a diff, install the home copy as the new base
    // (region *and* twin, so the eventual flush diff is exactly our words
    // against the home's merged state), and re-apply our writes.
    ANOW_CHECK_MSG(pm.twin != nullptr,
                   "dirty page " << p << " refetched without a twin");
    const DiffBytes mine = make_diff(pm.twin.get(), region_ + page_base(p));
    std::memcpy(region_ + page_base(p), data, kPageSize);
    std::memcpy(pm.twin.get(), data, kPageSize);
    apply_diff(region_ + page_base(p), mine);
    ANOW_ETRACE(p, "merged home copy under local writes");
  } else {
    std::memcpy(region_ + page_base(p), data, kPageSize);
  }
  settle_pending(p, applied, must_cover_pending);
}

std::vector<DiffFetchPlan> HomeLrcEngine::plan_diff_fetches(
    const PageId* /*pages*/, std::size_t /*count*/) {
  return {};  // pending notices are resolved by full fetches from the home
}

std::int64_t HomeLrcEngine::apply_fetched_diffs(
    PageId /*p*/, const std::vector<DiffReply>& /*replies*/) {
  ANOW_CHECK_MSG(false, "home engine never fetches diffs");
}

// ---------------------------------------------------------------------------
// Node side: the eager release flush
// ---------------------------------------------------------------------------

std::vector<HomeFlushPlan> HomeLrcEngine::plan_home_flush() {
  if (flush_pages_.empty()) return {};
  struct Out {
    Uid home;
    PageId page;
  };
  std::vector<Out> outs;
  outs.reserve(flush_pages_.size());
  for (PageId p : flush_pages_) {
    outs.push_back({page(p).owner_hint, p});
  }
  std::sort(outs.begin(), outs.end(), [](const Out& a, const Out& b) {
    if (a.home != b.home) return a.home < b.home;
    return a.page < b.page;
  });
  std::vector<HomeFlushPlan> plans;
  for (const Out& o : outs) {
    PageMeta& pm = page(o.page);
    ANOW_CHECK(pm.twin != nullptr && !pm.dirty && pm.twin_iseq > 0);
    ANOW_CHECK_MSG(pm.owner_hint != self_,
                   "flush planned for self-homed page " << o.page);
    HomeFlushPage fp;
    fp.page = o.page;
    fp.iseq = pm.twin_iseq;
    // An empty diff still travels: the home's applied map must cover the
    // interval so readers' coverage checks pass.
    fp.diff = make_diff(pm.twin.get(), region_ + page_base(o.page));
    pm.twin.reset();
    pm.twin_iseq = 0;
    twin_bytes_ -= static_cast<std::int64_t>(kPageSize);
    (*ctr_diffs_created_)++;
    if (plans.empty() || plans.back().home != o.home) {
      plans.push_back({o.home, {}});
    }
    plans.back().pages.push_back(std::move(fp));
    ANOW_ETRACE(o.page, "flush to home " << o.home);
  }
  flush_pages_.clear();
  return plans;
}

std::int64_t HomeLrcEngine::apply_home_flush(
    Uid writer, const std::vector<HomeFlushPage>& pages) {
  std::int64_t applied_bytes = 0;
  for (const auto& fp : pages) {
    PageMeta& pm = page(fp.page);
    ANOW_CHECK_MSG(pm.owner_hint == self_ && pm.have_copy,
                   "home flush for page " << fp.page
                                          << " reached a non-home node");
    ANOW_CHECK_MSG(!pm.exclusive,
                   "home flush for exclusively-held page " << fp.page);
    apply_diff(region_ + page_base(fp.page), fp.diff);
    applied_bytes += static_cast<std::int64_t>(fp.diff.size());
    pm.applied.bump(writer, fp.iseq);
    ANOW_ETRACE(fp.page, "flush applied from " << writer << " iseq "
                                               << fp.iseq);
    (*ctr_flush_diffs_applied_)++;
  }
  return applied_bytes;
}

// ---------------------------------------------------------------------------
// Node side: serving
// ---------------------------------------------------------------------------

bool HomeLrcEngine::prepare_serve(PageId p) {
  PageMeta& pm = page(p);
  if (!pm.have_copy) return false;
  // A stale copy (pending notices) must never be served: home readers do
  // not fetch diffs to fill gaps.  Forward toward the home instead — this
  // is an ex-home whose page moved on.
  if (!pm.pending.empty()) return false;
  if (pm.exclusive) {
    // Exclusivity implies we are the page's home (it is only granted to
    // homes), so ending it needs no twin: served words that change later
    // are announced at the next release and refetched from here.
    const bool maybe_mid_write =
        pm.exclusive_rw && pm.exclusive_epoch == epoch_;
    pm.exclusive = false;
    pm.exclusive_rw = false;
    if (!pm.dirty && maybe_mid_write) {
      pm.dirty = true;
      dirty_pages_.push_back(p);
    }
  }
  return true;
}

int HomeLrcEngine::collect_diffs(const std::vector<DiffPageRequest>& /*pages*/,
                                 std::vector<DiffPageReply>& /*out*/) {
  ANOW_CHECK_MSG(false, "home engine keeps no diff archive to serve");
}

// ---------------------------------------------------------------------------
// Node side: intervals
// ---------------------------------------------------------------------------

Interval HomeLrcEngine::finish_interval() {
  Interval iv;
  iv.creator = self_;
  if (dirty_pages_.empty()) {
    iv.iseq = 0;
    ++epoch_;
    return iv;
  }
  iv.iseq = next_iseq_++;
  for (PageId p : dirty_pages_) {
    PageMeta& pm = page(p);
    ANOW_CHECK(pm.dirty);
    pm.dirty = false;
    if (pm.twin != nullptr) {
      // Not home: the diff flushes eagerly before the interval is
      // announced (plan_home_flush consumes flush_pages_).
      pm.twin_iseq = iv.iseq;
      flush_pages_.push_back(p);
    }
    iv.notices.push_back({p, protocol_of(p)});
    pm.applied.bump(self_, iv.iseq);
  }
  dirty_pages_.clear();
  ++epoch_;
  (*ctr_intervals_)++;
  return iv;
}

// ---------------------------------------------------------------------------
// Node side: owner-delta validation + garbage collection
// ---------------------------------------------------------------------------

std::vector<PageId> HomeLrcEngine::pages_to_validate_before_delta(
    const OwnerDelta& delta) {
  // A newly-assigned home whose copy misses a concurrent first writer's
  // words (pending notices were integrated just before this) re-validates
  // with one full fetch from the old home — reachable because its own hint
  // still points there until the delta is applied.  Assignments arrive via
  // the GC prepare phase, so in steady state this is a safety net that
  // returns nothing.
  std::vector<PageId> need;
  for (const auto& [p, owner] : delta) {
    if (owner != self_) continue;
    const PageMeta& pm = page(p);
    if (!pm.have_copy || !pm.pending.empty()) need.push_back(p);
  }
  return need;
}

std::vector<PageId> HomeLrcEngine::gc_pages_to_validate(
    const OwnerDelta& owners) {
  // The flush-before-notice invariant keeps every home complete, so a GC
  // validates nothing beyond pending home *assignments* riding the delta
  // (the near-no-op GC: no diff archives exist anywhere).
  return pages_to_validate_before_delta(owners);
}

void HomeLrcEngine::on_gc_commit() {
  // A non-home twin lives from its interval's end to the release flush,
  // which every GC commit follows.
  ANOW_CHECK_MSG(flush_pages_.empty(),
                 "unflushed twins at GC commit at uid " << self_);
}

// ---------------------------------------------------------------------------
// Master side: interval directory + home assignment
// ---------------------------------------------------------------------------

void HomeLrcEngine::note_uid(Uid uid) { directory_.note_uid(uid); }

void HomeLrcEngine::forget_uid(Uid uid) { directory_.forget_uid(uid); }

void HomeLrcEngine::assign_homes(
    std::vector<std::pair<PageId, Uid>>& touched) {
  if (touched.empty()) return;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::size_t i = 0;
  while (i < touched.size()) {
    std::size_t j = i;
    while (j < touched.size() && touched[j].first == touched[i].first) ++j;
    const PageId p = touched[i].first;
    // First touch: a sole writer takes the page home; concurrent first
    // writers are broken round-robin (each holds its own words only, so the
    // chosen one re-validates when the assignment is applied).
    const std::size_t n = j - i;
    const Uid home =
        n == 1 ? touched[i].second
               : touched[i + (rr_cursor_++ % n)].second;
    pending_delta_.emplace_back(p, home);
    stats_->counter("dsm.home_assignments")++;
    i = j;
  }
}

OwnerDelta HomeLrcEngine::stage_owner_moves(const OwnerDelta& moves) {
  OwnerDelta staged;
  if (moves.empty()) return staged;
  // A whole hotspot rotation can re-home hundreds of pages in one round:
  // the already-staged check must not rescan pending_delta_ per entry.
  std::vector<std::uint8_t> pending_page(
      static_cast<std::size_t>(dir_.map().num_pages), 0);
  for (const auto& [q, owner] : pending_delta_) {
    (void)owner;
    pending_page[static_cast<std::size_t>(q)] = 1;
  }
  for (const auto& [p, home] : moves) {
    // First-touch territory (still at its default home) belongs to
    // assign_homes — the policy only migrates established homes.
    if (home_assignable(p)) continue;
    if (pending_page[static_cast<std::size_t>(p)]) continue;
    if (owner_of(p) == home) continue;
    pending_delta_.emplace_back(p, home);
    pending_page[static_cast<std::size_t>(p)] = 1;
    stats_->counter("dsm.placement.home_moves")++;
    staged.emplace_back(p, home);
  }
  return staged;
}

void HomeLrcEngine::log_epoch(std::vector<Interval> intervals) {
  const std::int64_t stamp = directory_.next_stamp();
  std::vector<std::pair<PageId, Uid>> touched;
  for (auto& iv : intervals) {
    iv.lamport = stamp;
    if (iv.iseq != 0) {
      for (const auto& wn : iv.notices) {
        // First touch: the page's home is still its initial default (the
        // master, or the page's shard holder) and the writer is not that
        // default itself.  The master is a legitimate assignee for pages
        // defaulted at other shard holders; with one shard every default
        // is the master, so it can never self-assign — the
        // historical creator != master rule falls out of this check.
        if (home_assignable(wn.page) &&
            iv.creator != dir_.map().default_holder_of_page(wn.page)) {
          touched.emplace_back(wn.page, iv.creator);
        }
      }
    }
    directory_.log(std::move(iv));
  }
  assign_homes(touched);
}

void HomeLrcEngine::log_release(Interval interval) {
  // No assignment here: lock grants carry no owner deltas, so a home picked
  // at a lock release could be flushed to under a stale hint.  Lock-only
  // pages simply keep the master as home.
  interval.lamport = directory_.next_stamp();
  directory_.log(std::move(interval));
}

std::vector<Interval> HomeLrcEngine::collect_undelivered(Uid target) {
  return directory_.collect_undelivered(target);
}

// ---------------------------------------------------------------------------
// Master side: garbage collection (near-no-op)
// ---------------------------------------------------------------------------

bool HomeLrcEngine::gc_should_run(std::int64_t max_consistency_bytes) const {
  // Staged home assignments force the two-phase round: the chosen homes
  // validate while every process is parked at the barrier, and the commit
  // (with the assignment delta) rides the release.  Committing assignments
  // as bare hints instead would leave a validation RPC in flight after the
  // release, racing the first post-release flush to the new home.
  return !pending_delta_.empty() ||
         ConsistencyEngine::gc_should_run(max_consistency_bytes);
}

OwnerDelta HomeLrcEngine::gc_begin() {
  gc_requested_ = false;
  // The delta is just the staged home assignments; there is no last-writer
  // recomputation because homes *are* the owners.
  OwnerDelta delta = std::move(pending_delta_);
  pending_delta_.clear();
  return delta;
}

void HomeLrcEngine::gc_finish(const OwnerDelta& delta) {
  dir_.apply_delta(delta);
  directory_.clear();
  pending_commit_ = true;
  pending_delta_ = delta;
}

}  // namespace anow::dsm::protocol
