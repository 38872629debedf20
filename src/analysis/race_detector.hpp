// LRC data-race detector (DESIGN.md §13).
//
// Lazy release consistency only promises sequentially consistent results to
// data-race-free programs, so a racy application surfaces as a wrong
// checksum with no diagnosis.  This detector certifies (or refutes) DRF-ness
// by riding the synchronization structure the protocol already exposes: it
// keeps one vector clock per process, draws happens-before edges exactly
// where the protocol draws them — fork publishes, barrier arrivals/releases,
// lock release→grant chains — and summarizes every process's shared accesses
// between two synchronization points into per-page word bitmasks captured at
// the read_range/write_range front door (the same declarations the fault
// machinery itself trusts).  When a summary closes it is checked against
// every retained summary that is concurrent with it (neither vector clock
// dominates); overlapping words with at least one writer are a race, DJIT+
// style.
//
// The detector is a *pure observer*: it is only constructed when
// DsmConfig::race_check != kOff, processes cache a raw pointer exactly like
// the TraceRecorder, and no hook ever sends a message, charges virtual time,
// or touches page data — so an enabled run is byte-identical on the wire to
// a disabled one (the zero-perturbation gate of DESIGN.md §11 applies
// verbatim, and bench_protocols pins it).
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "dsm/types.hpp"
#include "util/stats.hpp"

namespace anow::analysis {

/// One confirmed race: two concurrent segments touched overlapping words of
/// one page and at least one side wrote.
struct RaceReport {
  dsm::PageId page = 0;
  /// Conflicting word range within the page, inclusive (word = 8 bytes).
  int word_first = 0;
  int word_last = 0;
  /// The two racing processes and the per-process interval epochs (the
  /// vector-clock components — 1-based release counts) their accesses
  /// belong to.
  dsm::Uid uid_a = dsm::kNoUid;
  dsm::Uid uid_b = dsm::kNoUid;
  std::int64_t epoch_a = 0;
  std::int64_t epoch_b = 0;
  /// "ww", "rw", or "wr" (a's role first).
  const char* kind = "ww";
};

class RaceDetector {
 public:
  RaceDetector() = default;

  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  // --- access capture (process fiber context) ----------------------------
  void record_read(dsm::Uid uid, dsm::GAddr addr, std::size_t len) {
    record(uid, addr, len, /*is_write=*/false);
  }
  void record_write(dsm::Uid uid, dsm::GAddr addr, std::size_t len) {
    record(uid, addr, len, /*is_write=*/true);
  }

  // --- happens-before edges (one hook per protocol sync point) -----------
  /// Process announces a barrier arrival: closes its open segment, adds its
  /// clock to the in-flight barrier accumulator, and counts a release.
  void on_barrier_arrive(dsm::Uid uid);
  /// Master saw the last arrival of the epoch (DsmSystem::barrier_complete):
  /// seals the accumulator as the epoch's release clock.  Every arrival of
  /// the next epoch is causally after this point, so one sealed clock at a
  /// time suffices.
  void on_barrier_sealed();
  /// Process returns from the barrier: joins the sealed epoch clock.
  void on_barrier_release(dsm::Uid uid);
  /// Lock release: close + publish this process's clock into the lock's
  /// accumulated clock + count a release.
  void on_lock_release(dsm::Uid uid, std::int64_t lock_id);
  /// Lock granted: close the open segment (its accesses precede the join),
  /// then join the lock's accumulated clock.
  void on_lock_acquire(dsm::Uid uid, std::int64_t lock_id);
  /// Master publishes a fork: close + snapshot the master clock as the
  /// construct's fork clock + count a release.
  void on_fork_publish(dsm::Uid master);
  /// Slave enters the construct body: joins the fork clock.
  void on_fork_join(dsm::Uid uid);
  /// A process left the team: its retained summaries can no longer gain
  /// happens-before edges, but they stay checkable; only pruning changes.
  void on_expel(dsm::Uid uid);

  // --- wrap-up ------------------------------------------------------------
  /// Closes every open segment (final checks fire) and publishes obs.race.*
  /// stats.  Stats only exist in the registry when a detector ran, keeping
  /// the "untraced runs carry zero obs.* counters" bench gate intact.
  void finalize(util::StatsRegistry& stats);

  const std::vector<RaceReport>& reports() const { return reports_; }
  /// Total races found (reports_ is capped; this never is).
  std::int64_t race_count() const { return race_count_; }

  /// The structured trace-JSON section: a JSON array of report objects
  /// (embedded as a "races" key next to traceEvents; DESIGN.md §13).
  std::string races_json() const;

 private:
  using WordMask = std::array<std::uint64_t, dsm::kWordsPerPage / 64>;

  struct PageAccess {
    WordMask read{};
    WordMask write{};
  };

  /// A closed access summary: every page the segment touched, tagged with
  /// the owning process and its clock component at close time.  Another
  /// process q is ordered after it iff vc_[q][uid] >= epoch.
  struct Segment {
    dsm::Uid uid = dsm::kNoUid;
    std::int64_t epoch = 0;
    std::unordered_map<dsm::PageId, PageAccess> pages;
  };

  using VectorClock = std::vector<std::int64_t>;

  void record(dsm::Uid uid, dsm::GAddr addr, std::size_t len, bool is_write);
  /// Checks the open summary against every retained concurrent segment,
  /// retains it, and starts a fresh one.  Called before any clock change.
  void close_segment(dsm::Uid uid);
  /// Close + publish own component (barrier arrive, lock release, fork).
  void release_point(dsm::Uid uid);
  void join(dsm::Uid uid, const VectorClock& vc);
  void grow_to(dsm::Uid uid);
  void check_against_retained(dsm::Uid uid,
                              std::unordered_map<dsm::PageId, PageAccess>& open);
  void report(const Segment& old_seg, dsm::Uid uid, std::int64_t epoch,
              dsm::PageId page, const WordMask& overlap, const char* kind);
  /// Drops retained segments every live process is already ordered after.
  void prune_retained();

  /// Per-uid vector clocks; vc_[p][p] is p's current epoch (1-based).
  std::vector<VectorClock> vc_;
  std::vector<bool> live_;
  std::vector<std::unordered_map<dsm::PageId, PageAccess>> open_;
  std::vector<Segment> retained_;

  VectorClock barrier_accum_;
  VectorClock barrier_sealed_;
  VectorClock fork_vc_;
  std::unordered_map<std::int64_t, VectorClock> lock_vc_;

  std::vector<RaceReport> reports_;
  /// Dedupe key: (page, uid_a, uid_b, kind).
  std::set<std::tuple<dsm::PageId, dsm::Uid, dsm::Uid, std::string>>
      seen_keys_;
  std::int64_t race_count_ = 0;
  std::int64_t segments_closed_ = 0;
  std::int64_t pair_checks_ = 0;
  bool finalized_ = false;

  static constexpr std::size_t kMaxStoredReports = 256;
};

}  // namespace anow::analysis
