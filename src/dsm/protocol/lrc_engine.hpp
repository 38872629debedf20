// TreadMarks-style lazy release consistency as a ConsistencyEngine.
//
// Node side: twin-and-diff multi-writer pages with lazy (on-demand) diff
// materialization, full-copy single-writer pages, and the sole-copy
// exclusivity shortcut.  A multi-writer page keeps a pending record per
// write notice, since its diffs are fetched by interval; a single-writer
// page, resolved by one copy from its last writer, keeps one per writer
// (pending_notices.hpp).  Master side: the lamport-stamped interval log,
// the dense delivery matrix, the last-writer map driving GC ownership, and
// the interval-log garbage collection (DESIGN.md §5).
#pragma once

#include "dsm/protocol/engine.hpp"
#include "dsm/protocol/interval_directory.hpp"
#include "util/arena.hpp"

namespace anow::dsm::protocol {

class LrcEngine final : public ConsistencyEngine {
 public:
  explicit LrcEngine(const DsmConfig& config) : ConsistencyEngine(config) {}

  const char* name() const override { return "lrc"; }

  void set_checker(analysis::ProtocolChecker* checker) override {
    checker_ = checker;
  }

  // --- node side -----------------------------------------------------------
  bool flush_lazy_twin(PageId p) override;
  void declare_write(PageId p) override;

  Uid pick_page_source(PageId p) const override;
  void install_copy(PageId p, const std::uint8_t* data,
                    const AppliedMap& applied,
                    bool must_cover_pending) override;
  std::vector<DiffFetchPlan> plan_diff_fetches(const PageId* pages,
                                               std::size_t count) override;
  std::int64_t apply_fetched_diffs(
      PageId p, const std::vector<DiffReply>& replies) override;

  bool prepare_serve(PageId p) override;
  int collect_diffs(const std::vector<DiffPageRequest>& pages,
                    std::vector<DiffPageReply>& out) override;

  Interval finish_interval() override;

  std::vector<PageId> gc_pages_to_validate(const OwnerDelta& owners) override;

  /// Chunk storage the diff archive's arena holds (0 after a GC commit).
  std::size_t diff_arena_reserved() const {
    return diff_arena_.bytes_reserved();
  }

  // --- master side ---------------------------------------------------------
  void note_uid(Uid uid) override;
  void forget_uid(Uid uid) override;
  void log_epoch(std::vector<Interval> intervals) override;
  void log_release(Interval interval) override;
  std::vector<Interval> collect_undelivered(Uid target) override;

  OwnerDelta gc_begin() override;
  void gc_finish(const OwnerDelta& delta) override;

 protected:
  void on_attach_node() override;
  void on_attach_master() override;
  void on_gc_commit() override;

 private:
  /// Per-page archive of this node's own diffs, appended in iseq order
  /// (a page has at most one lazy twin at a time, so materialization order
  /// follows interval order).  The encoded bytes live in diff_arena_ — one
  /// bump allocation per diff, freed wholesale when GC clears the archive
  /// (DESIGN.md §10).
  struct ArchivedDiff {
    std::int32_t iseq = 0;
    DiffView bytes;
  };

  /// Converts the page's lazy twin into an archived diff.
  void materialize_diff(PageId p);
  DiffView archived_diff(PageId p, std::int32_t iseq) const;
  /// Records the interval's write notices in the directory's last-writer
  /// buffer and logs the interval under its stamp.
  void log_interval(Interval interval);

  // Node side.
  std::vector<std::vector<ArchivedDiff>> own_diffs_;
  /// Backs every archived diff of the current GC generation; released
  /// (every chunk freed at once) at the GC commit that clears the archives.
  util::Arena diff_arena_;
  analysis::ProtocolChecker* checker_ = nullptr;
  util::StatsRegistry::Counter* ctr_diffs_created_ = nullptr;
  util::StatsRegistry::Counter* ctr_intervals_ = nullptr;
  util::StatsRegistry::Counter* ctr_diff_fetches_ = nullptr;

  // Master side.  Last-writer tracking lives in the base directory
  // (DirectoryShards::record_write), beside the owner map it is compared
  // with.
  IntervalDirectory directory_;
};

}  // namespace anow::dsm::protocol
