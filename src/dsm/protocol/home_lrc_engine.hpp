// Home-based lazy release consistency as a ConsistencyEngine.
//
// Every page has a *home* whose copy is always complete: at each release
// point (barrier arrival, lock release) writers diff their dirty pages
// against the twin and eagerly push the diffs to the home (one batched
// HomeFlush per home), blocking on the ack before announcing the interval
// to the master.  That ordering is the engine's core invariant — *no write
// notice exists anywhere before its data is applied at the home* — and it
// makes a faulting reader's life trivial: one full-page fetch from the home
// covers every pending notice, so every page keeps one pending record per
// writer (pending_notices.hpp).  Writers keep no diff archives, so the
// interval-log GC degenerates to a local drop of non-home copies with
// nothing to validate (DESIGN.md §5a).
//
// Home assignment is first-touch: when the master logs a barrier epoch, a
// still-master-homed page written by exactly one process moves to that
// writer; concurrent first writers are broken round-robin among them.
// Assignments take effect only through the two-phase GC round at that same
// barrier (gc_should_run fires whenever assignments are staged): during the
// prepare phase — everyone parked — each chosen home re-validates with one
// full fetch from the old home, and the commit rides the release, so every
// team member's hint refreshes before anyone can write or flush again.  A
// flush can therefore never chase a stale home and no validation RPC is
// ever in flight after a release.  Lock-only pages keep the master as home
// (lock grants carry no owner deltas).
#pragma once

#include "dsm/protocol/engine.hpp"
#include "dsm/protocol/interval_directory.hpp"

namespace anow::dsm::protocol {

class HomeLrcEngine final : public ConsistencyEngine {
 public:
  explicit HomeLrcEngine(const DsmConfig& config)
      : ConsistencyEngine(config) {}

  const char* name() const override { return "home"; }

  // --- node side -----------------------------------------------------------
  bool flush_lazy_twin(PageId p) override;  // no lazy twins: always false
  void declare_write(PageId p) override;

  Uid pick_page_source(PageId p) const override;
  void install_copy(PageId p, const std::uint8_t* data,
                    const AppliedMap& applied,
                    bool must_cover_pending) override;
  bool full_copy_covers_pending() const override { return true; }
  std::vector<DiffFetchPlan> plan_diff_fetches(const PageId* pages,
                                               std::size_t count) override;
  std::int64_t apply_fetched_diffs(
      PageId p, const std::vector<DiffReply>& replies) override;

  std::vector<HomeFlushPlan> plan_home_flush() override;
  std::int64_t apply_home_flush(
      Uid writer, const std::vector<HomeFlushPage>& pages) override;

  bool prepare_serve(PageId p) override;
  int collect_diffs(const std::vector<DiffPageRequest>& pages,
                    std::vector<DiffPageReply>& out) override;

  Interval finish_interval() override;

  std::vector<PageId> gc_pages_to_validate(const OwnerDelta& owners) override;
  std::vector<PageId> pages_to_validate_before_delta(
      const OwnerDelta& delta) override;

  // --- master side ---------------------------------------------------------
  void note_uid(Uid uid) override;
  void forget_uid(Uid uid) override;
  void log_epoch(std::vector<Interval> intervals) override;
  void log_release(Interval interval) override;
  std::vector<Interval> collect_undelivered(Uid target) override;

  /// Also fires whenever home assignments are staged: they commit through
  /// the validated two-phase round, never as bare hints.
  bool gc_should_run(std::int64_t max_consistency_bytes) const override;
  /// Adaptive placement re-homes (DESIGN.md §9): staged into the same
  /// pending delta first-touch assignments use, so they ride the next GC
  /// round's atomic commit with prepare-phase validation (the chosen home
  /// fetches a full copy from the old home before any hint flips).
  OwnerDelta stage_owner_moves(const OwnerDelta& moves) override;
  OwnerDelta gc_begin() override;
  void gc_finish(const OwnerDelta& delta) override;

 protected:
  void on_attach_node() override;
  void on_gc_commit() override;

 private:
  /// First-touch assignment over one epoch's (page, writer) touches of
  /// still-default-homed pages; new homes are staged into pending_delta_ so
  /// they ride the next barrier release or fork.
  void assign_homes(std::vector<std::pair<PageId, Uid>>& touched);

  /// A page is first-touch assignable while its home is still the initial
  /// default (the master, or its shard's default holder under
  /// --dir-shards).  A staged home reaches the owner map at gc_finish,
  /// which the barrier that staged it runs before its release.
  bool home_assignable(PageId p) const {
    return owner_of(p) == dir_.map().default_holder_of_page(p);
  }

  // Node side.
  std::vector<PageId> flush_pages_;  // last interval's twinned pages
  util::StatsRegistry::Counter* ctr_intervals_ = nullptr;
  util::StatsRegistry::Counter* ctr_diffs_created_ = nullptr;
  util::StatsRegistry::Counter* ctr_flush_diffs_applied_ = nullptr;

  // Master side.
  IntervalDirectory directory_;
  std::size_t rr_cursor_ = 0;  // round-robin tiebreak for concurrent
                               // first writers
};

}  // namespace anow::dsm::protocol
