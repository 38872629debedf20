#include "dsm/protocol/engine.hpp"

#include "dsm/debug.hpp"
#include "dsm/protocol/home_lrc_engine.hpp"
#include "dsm/protocol/lrc_engine.hpp"
#include "exec/heap.hpp"
#include "util/check.hpp"

namespace anow::dsm::protocol {

void ConsistencyEngine::attach_node(Uid self, exec::ProcessHeap& heap,
                                    PageId num_pages,
                                    const std::vector<Protocol>& protocol,
                                    util::StatsRegistry& stats,
                                    const NodeDirInit& dir) {
  ANOW_CHECK_MSG(pages_.empty() && dir_.map().num_pages == 0,
                 "engine already attached");
  ANOW_CHECK(heap.npages() >= num_pages);
  self_ = self;
  heap_ = &heap;
  region_ = heap.prot_base();
  protocol_ = &protocol;
  stats_ = &stats;
  pages_ = std::vector<PageMeta>(static_cast<std::size_t>(num_pages));
  if (dir.hint_map != nullptr) {
    // Sharded directory: every process can compute the default holder of
    // every page from the config alone, so hints start there instead of at
    // the master — first-touch fetches spread across the holders.
    for (PageId p = 0; p < num_pages; ++p) {
      pages_[static_cast<std::size_t>(p)].owner_hint =
          dir.hint_map->default_holder_of_page(p);
    }
  }
  // The seeded pages start with a valid, exclusive copy of their (zeroed)
  // contents: the whole heap at the master when unsharded, a holder's own
  // page set when sharded — the initial data distribution.  Exclusivity
  // keeps initialization writes free of twins and write notices.
  auto seed = [&](PageId p) {
    PageMeta& pm = pages_[static_cast<std::size_t>(p)];
    pm.have_copy = true;
    pm.exclusive = true;
  };
  if (dir.seed_shard == NodeDirInit::kSeedAll) {
    for (PageId p = 0; p < num_pages; ++p) seed(p);
  } else if (dir.seed_shard >= 0) {
    ANOW_CHECK(dir.hint_map != nullptr);
    dir.hint_map->for_each_page(dir.seed_shard, seed);
  }
  on_attach_node();
}

OwnerDelta ConsistencyEngine::stage_owner_moves(const OwnerDelta& moves) {
  ANOW_CHECK_MSG(moves.empty(),
                 "engine " << name() << " has no homes to move");
  return {};
}

void ConsistencyEngine::attach_master(PageId num_pages,
                                      util::StatsRegistry& stats) {
  ANOW_CHECK_MSG(pages_.empty() && dir_.map().num_pages == 0,
                 "engine already attached");
  stats_ = &stats;
  dir_.init(num_pages);
  on_attach_master();
}

void ConsistencyEngine::configure_directory(const ShardMap& map) {
  dir_.configure(map);
}

void ConsistencyEngine::reset_directory_node_state() {
  for (PageId p = 0; p < num_pages(); ++p) {
    PageMeta& pm = page(p);
    // Pre-fork there can be no twins or pending notices anywhere (no
    // interval ever finished); anything else means the restore came too
    // late and the caller's forks==0 check should have fired.
    ANOW_CHECK(pm.twin == nullptr && pm.pending.empty());
    pm.owner_hint = kMasterUid;
    pm.dirty = false;
    const bool master = self_ == kMasterUid;
    pm.have_copy = master;
    pm.exclusive = master;
    pm.exclusive_rw = false;
  }
  dirty_pages_.clear();
}

std::int64_t ConsistencyEngine::resident_pages() const {
  std::int64_t n = 0;
  for (const auto& pm : pages_) {
    if (pm.have_copy) ++n;
  }
  return n;
}

bool ConsistencyEngine::note_exclusive_write(PageId p) {
  PageMeta& pm = page(p);
  if (!pm.exclusive) return false;
  pm.exclusive_rw = true;
  pm.exclusive_epoch = epoch_;
  return true;
}

void ConsistencyEngine::gc_commit_node(const OwnerDelta& delta) {
  on_gc_commit();
  for (const auto& [p, owner] : delta) {
    page(p).owner_hint = owner;
  }
  // Dropped frames go back to the heap one run of consecutive pages at a
  // time: [drop_first, drop_end).
  PageId drop_first = 0;
  PageId drop_end = 0;
  auto discard_run = [&] {
    if (drop_end > drop_first) {
      heap_->discard(drop_first, drop_end - drop_first);
    }
  };
  for (PageId p = 0; p < num_pages(); ++p) {
    PageMeta& pm = page(p);
    pm.written_unserved = false;
    if (pm.dirty) {
      // Only possible via a serve of an exclusive page while the fiber is
      // parked at the barrier (the conservative twin path); exclusivity
      // is only granted to the owner.  Keep dirty (and any twin): the next
      // release point announces the notice.
      ANOW_CHECK_MSG(pm.owner_hint == self_,
                     "dirty non-owned page " << p << " at GC commit");
      pm.applied.clear();
      continue;
    }
    if (pm.twin != nullptr) {
      // Lazy twin whose diff was never requested; after the commit nobody
      // can ever need it (all stale copies are dropped below).
      pm.twin.reset();
      pm.twin_iseq = 0;
      twin_bytes_ -= static_cast<std::int64_t>(kPageSize);
    }
    if (pm.owner_hint == self_) {
      ANOW_CHECK_MSG(pm.have_copy && pm.pending.empty(),
                     "owned page " << p << " not valid at GC commit");
      // Every other copy is dropped (on its holder), so the owner's copy is
      // provably sole — unless it was served after the GC prepare, in
      // which case the requester may already have committed and kept the
      // copy: no exclusivity then.
      if (pm.last_served <= gc_prepare_serve_seq_) {
        ANOW_ETRACE(p, "gc: granted exclusivity");
        pm.exclusive = true;
        pm.exclusive_rw = false;
        pm.exclusive_epoch = -1;
      }
    } else {
      // Drop non-owned copies even when valid; this makes exclusivity
      // sound and is why a join needs only the page->owner map (§4.1).
      if (pm.have_copy) {
        ANOW_ETRACE(p, "gc: dropped copy, owner now " << pm.owner_hint);
        if (p != drop_end) {
          discard_run();
          drop_first = p;
        }
        drop_end = p + 1;
      }
      pm.have_copy = false;
      pending_.clear(pm.pending);
      pm.exclusive = false;
      pm.exclusive_rw = false;
    }
    pm.applied.clear();
  }
  discard_run();
  avoidable_writes_ = 0;
  ANOW_CHECK_MSG(pending_.count() == 0,
                 "pending notices survived the GC commit at uid " << self_);
}

void ConsistencyEngine::settle_pending(PageId p, const AppliedMap& applied,
                                       bool must_cover_pending) {
  PageMeta& pm = page(p);
  pm.have_copy = true;
  pm.applied = applied;
  if (!must_cover_pending) {
    pending_.prune(pm.pending, pm.applied);
    return;
  }
  // A single-writer fetch from the last writer, or a fetch from the home:
  // the copy must cover every pending notice for the page.
  const bool covered = pending_.cover_all(pm.pending, pm.applied);
  ANOW_CHECK_MSG(covered, "full copy does not cover a pending notice for page "
                              << p);
}

void ConsistencyEngine::integrate(const std::vector<Interval>& intervals) {
  for (const auto& iv : intervals) {
    ANOW_CHECK(iv.creator != self_);
    for (const auto& wn : iv.notices) {
      PageMeta& pm = page(wn.page);
      if (pm.applied.covers(iv.creator, iv.iseq)) continue;
      if (wn.protocol == Protocol::kSingleWriter) {
        ANOW_CHECK_MSG(!pm.dirty,
                       "single-writer page " << wn.page
                                             << " written concurrently");
      }
      pending_.add(pm.pending, iv.creator, iv.iseq, iv.lamport,
                   one_copy_resolves(wn.page));
      ANOW_ETRACE(wn.page, "notice from " << iv.creator << " iseq "
                                          << iv.iseq);
    }
  }
}

std::int64_t ConsistencyEngine::apply_home_flush(
    Uid /*writer*/, const std::vector<HomeFlushPage>& /*pages*/) {
  ANOW_CHECK_MSG(false, "engine " << name() << " does not accept home "
                                  << "flushes");
}

std::int64_t ConsistencyEngine::apply_home_flushes(
    const std::vector<HomeFlush>& flushes) {
  std::int64_t applied = 0;
  for (const auto& flush : flushes) {
    applied += apply_home_flush(flush.writer, flush.pages);
  }
  return applied;
}

std::vector<PageId> ConsistencyEngine::pages_owned_by(Uid uid) const {
  return owned_pages(dir_.owners(), uid);
}

std::vector<std::vector<PageId>> ConsistencyEngine::pages_owned_by_all()
    const {
  return owned_pages_by_all(dir_.owners());
}

void ConsistencyEngine::queue_owner_update(PageId p, Uid owner) {
  queued_owner_updates_.emplace_back(p, owner);
  dir_.set_owner(p, owner);
}

PendingOwnerCommit ConsistencyEngine::take_pending_commit(
    bool include_queued_updates) {
  PendingOwnerCommit out;
  out.gc_commit = pending_commit_;
  out.delta = std::move(pending_delta_);
  pending_commit_ = false;
  pending_delta_.clear();
  if (include_queued_updates) {
    out.delta.insert(out.delta.end(), queued_owner_updates_.begin(),
                     queued_owner_updates_.end());
    queued_owner_updates_.clear();
  }
  return out;
}

std::unique_ptr<ConsistencyEngine> make_engine(const DsmConfig& config) {
  switch (config.engine) {
    case EngineKind::kLrc:
      return std::make_unique<LrcEngine>(config);
    case EngineKind::kHomeLrc:
      return std::make_unique<HomeLrcEngine>(config);
  }
  ANOW_CHECK_MSG(false, "unknown engine kind");
}

}  // namespace anow::dsm::protocol
