// Unit tests for the flat consistency-engine building blocks:
// the per-page AppliedMap, the master's dense DeliveryMatrix, its
// IntervalDirectory (against the full log scan it replaced), the
// pending write notices (PendingNotices against the uncollapsed list it
// replaced) and a node-side engine's count of avoidable writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "dsm/config.hpp"
#include "dsm/protocol/applied_map.hpp"
#include "dsm/protocol/delivery_matrix.hpp"
#include "dsm/protocol/engine.hpp"
#include "dsm/protocol/interval_directory.hpp"
#include "dsm/protocol/pending_notices.hpp"
#include "exec/heap.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace anow::dsm {
namespace {

TEST(AppliedMap, EmptyCoversNothing) {
  AppliedMap m;
  EXPECT_EQ(m.get(0), 0);
  EXPECT_FALSE(m.covers(3, 1));
  EXPECT_EQ(m.size(), 0u);
}

TEST(AppliedMap, BumpInsertsAndRaises) {
  AppliedMap m;
  m.bump(5, 3);
  EXPECT_EQ(m.get(5), 3);
  EXPECT_TRUE(m.covers(5, 3));
  EXPECT_FALSE(m.covers(5, 4));
  m.bump(5, 7);
  EXPECT_EQ(m.get(5), 7);
  m.bump(5, 2);  // never lowers
  EXPECT_EQ(m.get(5), 7);
}

TEST(AppliedMap, StaysSortedUnderRandomBumps) {
  util::Rng rng(42);
  AppliedMap m;
  std::map<Uid, std::int32_t> oracle;
  for (int i = 0; i < 500; ++i) {
    const Uid uid = static_cast<Uid>(rng.next_below(16));
    const auto iseq = static_cast<std::int32_t>(1 + rng.next_below(100));
    m.bump(uid, iseq);
    auto& o = oracle[uid];
    o = std::max(o, iseq);
  }
  EXPECT_EQ(m.size(), oracle.size());
  Uid prev = -1;
  for (const auto& [uid, iseq] : m) {
    EXPECT_GT(uid, prev);  // strictly ascending: sorted, no duplicates
    prev = uid;
    EXPECT_EQ(iseq, oracle.at(uid));
  }
}

TEST(DeliveryMatrix, GrowsPreservingCells) {
  protocol::DeliveryMatrix dm;
  dm.ensure(2);
  dm.raise(1, 2, 9);
  dm.raise(0, 1, 4);
  dm.ensure(40);  // forces a re-stride
  EXPECT_EQ(dm.get(1, 2), 9);
  EXPECT_EQ(dm.get(0, 1), 4);
  EXPECT_EQ(dm.get(40, 40), 0);
  dm.raise(40, 3, 2);
  EXPECT_EQ(dm.get(40, 3), 2);
}

TEST(DeliveryMatrix, RaiseIsMonotonic) {
  protocol::DeliveryMatrix dm;
  dm.ensure(4);
  dm.raise(3, 1, 5);
  dm.raise(3, 1, 2);  // lower value ignored
  EXPECT_EQ(dm.get(3, 1), 5);
}

TEST(DeliveryMatrix, ForgetClearsOneTargetRow) {
  protocol::DeliveryMatrix dm;
  dm.ensure(4);
  dm.raise(2, 1, 7);
  dm.raise(1, 2, 3);
  dm.forget(2);
  EXPECT_EQ(dm.get(2, 1), 0);
  EXPECT_EQ(dm.get(1, 2), 3);  // other rows untouched
}

TEST(DeliveryMatrix, ClearResetsEverything) {
  protocol::DeliveryMatrix dm;
  dm.ensure(8);
  for (Uid t = 0; t < 8; ++t) {
    for (Uid c = 0; c < 8; ++c) dm.raise(t, c, 1 + t + c);
  }
  dm.clear();
  for (Uid t = 0; t < 8; ++t) {
    for (Uid c = 0; c < 8; ++c) EXPECT_EQ(dm.get(t, c), 0);
  }
}

// --- interval directory ----------------------------------------------------

// The oracle: the directory's log and delivery state in ordered maps, with
// the collect loop that scanned every logged interval of every creator.
struct OracleDirectory {
  std::map<Uid, std::vector<Interval>> log;
  std::map<std::pair<Uid, Uid>, std::int32_t> delivered;  // (target, creator)

  void log_interval(const Interval& iv) {
    auto& mine = delivered[{iv.creator, iv.creator}];
    mine = std::max(mine, iv.iseq);
    log[iv.creator].push_back(iv);
  }
  std::vector<Interval> collect(Uid target) {
    std::vector<Interval> out;
    for (const auto& [creator, ivs] : log) {
      if (creator == target || ivs.empty()) continue;
      auto& high = delivered[{target, creator}];
      for (const auto& iv : ivs) {
        if (iv.iseq > high) out.push_back(iv);
      }
      high = std::max(high, ivs.back().iseq);
    }
    std::sort(out.begin(), out.end(), [](const Interval& a, const Interval& b) {
      if (a.lamport != b.lamport) return a.lamport < b.lamport;
      if (a.creator != b.creator) return a.creator < b.creator;
      return a.iseq < b.iseq;
    });
    return out;
  }
  void forget(Uid target) {
    for (auto it = delivered.begin(); it != delivered.end();) {
      it = it->first.first == target ? delivered.erase(it) : std::next(it);
    }
  }
  void clear() {
    log.clear();
    delivered.clear();
  }
};

/// Drives IntervalDirectory and the oracle through one seeded sequence of
/// barrier epochs, lock releases, collects, departures, joins and GC
/// clears, and compares every collect.  Returns the intervals collected.
std::int64_t run_directory_property(std::uint64_t seed, int steps) {
  util::Rng rng(seed);
  protocol::IntervalDirectory dir;
  OracleDirectory oracle;
  std::vector<Uid> alive;
  std::map<Uid, std::int32_t> next_iseq;
  auto join = [&] {
    const Uid uid = static_cast<Uid>(next_iseq.size());
    dir.note_uid(uid);
    alive.push_back(uid);
    next_iseq[uid] = 1;
  };
  for (int i = 0; i < 4; ++i) join();
  auto make = [&](Uid creator, std::int64_t stamp) {
    Interval iv;
    iv.creator = creator;
    iv.iseq = next_iseq[creator]++;
    iv.lamport = stamp;
    iv.notices.push_back({static_cast<PageId>(rng.next_below(64)),
                          Protocol::kMultiWriter});
    return iv;
  };
  std::int64_t collected = 0;
  for (int step = 0; step < steps; ++step) {
    const auto action = rng.next_below(100);
    if (action < 40) {  // a barrier epoch: concurrent intervals, one stamp
      const std::int64_t stamp = dir.next_stamp();
      for (Uid uid : alive) {
        if (rng.next_below(3) == 0) continue;  // an empty interval
        const Interval iv = make(uid, stamp);
        oracle.log_interval(iv);
        dir.log(iv);
      }
    } else if (action < 55) {  // a lock release under its own stamp
      const Interval iv =
          make(alive[rng.next_below(alive.size())], dir.next_stamp());
      oracle.log_interval(iv);
      dir.log(iv);
    } else if (action < 92) {
      const Uid target = alive[rng.next_below(alive.size())];
      const auto got = dir.collect_undelivered(target);
      const auto want = oracle.collect(target);
      EXPECT_EQ(got.size(), want.size()) << "step " << step;
      if (got.size() != want.size()) return collected;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].creator, want[k].creator) << "step " << step;
        EXPECT_EQ(got[k].iseq, want[k].iseq) << "step " << step;
        EXPECT_EQ(got[k].lamport, want[k].lamport) << "step " << step;
      }
      collected += static_cast<std::int64_t>(got.size());
    } else if (action < 95 && alive.size() > 2) {  // a leave
      const auto at = rng.next_below(alive.size());
      const Uid gone = alive[at];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(at));
      dir.forget_uid(gone);
      oracle.forget(gone);
    } else if (action < 97 && next_iseq.size() < 12) {
      join();
    } else {  // GC: the log and delivery state go; iseqs keep rising
      dir.clear();
      oracle.clear();
    }
  }
  return collected;
}

TEST(IntervalDirectory, CollectMatchesTheFullScanOracle) {
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    EXPECT_GT(run_directory_property(seed, 4000), 0);
  }
}

TEST(IntervalDirectory, LogRejectsAnIseqThatDoesNotRise) {
  protocol::IntervalDirectory dir;
  dir.note_uid(1);
  Interval iv;
  iv.creator = 1;
  iv.iseq = 5;
  iv.lamport = dir.next_stamp();
  iv.notices.push_back({0, Protocol::kMultiWriter});
  dir.log(iv);
  EXPECT_THROW(dir.log(iv), util::CheckError);
  iv.iseq = 4;
  EXPECT_THROW(dir.log(iv), util::CheckError);
}

// --- pending write notices -------------------------------------------------

// The oracle: one record per notice with the loops the engines ran on it
// before PendingNotices (integrate's push, install_copy's prune and
// must-cover, the GC's clear, LrcEngine::pick_page_source).
struct OracleNotice {
  Uid creator = kNoUid;
  std::int32_t iseq = 0;
  std::int64_t lamport = 0;
};

struct OracleList {
  std::vector<OracleNotice> notices;

  Uid source() const {
    if (notices.empty()) return kNoUid;
    const OracleNotice* best = &notices.front();
    for (const auto& n : notices) {
      if (n.lamport > best->lamport ||
          (n.lamport == best->lamport && n.creator > best->creator)) {
        best = &n;
      }
    }
    return best->creator;
  }
  std::int64_t prune(const AppliedMap& applied) {
    const auto before = notices.size();
    notices.erase(std::remove_if(notices.begin(), notices.end(),
                                 [&](const OracleNotice& n) {
                                   return applied.covers(n.creator, n.iseq);
                                 }),
                  notices.end());
    return static_cast<std::int64_t>(before - notices.size());
  }
  bool must_cover(const AppliedMap& applied) {
    bool all = true;
    for (const auto& n : notices) {
      all = all && applied.covers(n.creator, n.iseq);
    }
    notices.clear();
    return all;
  }
  /// Lowest and highest pending iseq of `creator` (0, 0 when it has none).
  std::pair<std::int32_t, std::int32_t> span(Uid creator) const {
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    for (const auto& n : notices) {
      if (n.creator != creator) continue;
      lo = lo == 0 ? n.iseq : std::min(lo, n.iseq);
      hi = std::max(hi, n.iseq);
    }
    return {lo, hi};
  }
};

/// Drives PendingNotices and the oracle through one seeded sequence of
/// integrate batches, prunes, must-cover installs and clears over a few
/// pages, and compares them after every step.  `per_writer` selects the
/// collapse policy for every page.
void run_pending_property(bool per_writer, std::uint64_t seed, int steps) {
  constexpr int kPages = 4;
  constexpr Uid kCreators = 6;
  util::Rng rng(seed);
  protocol::PendingNotices ledger;
  std::vector<protocol::PendingList> lists(kPages);
  std::vector<OracleList> oracle(kPages);
  std::int64_t oracle_count = 0;
  std::vector<std::int32_t> last_iseq(kCreators, 0);
  std::int64_t clock = 0;

  // An applied map whose entry for a creator with pending notices on `o`
  // covers all of them with probability `p_all`.  Otherwise the entry is
  // random; on a per-writer list it then covers none of them, the only
  // other map a full copy can carry there (pending_notices.hpp).
  auto draw_map = [&](const OracleList& o, double p_all) {
    AppliedMap m;
    for (Uid c = 0; c < kCreators; ++c) {
      const auto [lo, hi] = o.span(c);
      std::int64_t v = rng.next_in(0, last_iseq[c] + 1);
      if (hi > 0 && rng.next_bool(p_all)) {
        v = rng.next_in(hi, last_iseq[c] + 1);
      } else if (hi > 0 && per_writer) {
        v = rng.next_in(0, lo - 1);
      }
      if (v > 0) m.bump(c, static_cast<std::int32_t>(v));
    }
    return m;
  };

  for (int step = 0; step < steps; ++step) {
    const auto page = static_cast<std::size_t>(rng.next_below(kPages));
    const auto op = rng.next_below(100);
    bool covered = true;
    bool oracle_covered = true;
    if (op < 50) {
      // One barrier epoch (creators share a stamp) or one lock release:
      // each creator's interval takes its next iseq and notices a random
      // subset of the pages.
      const std::int64_t stamp = ++clock;
      const int writers = rng.next_bool(0.7) ? 1 + static_cast<int>(
                                                       rng.next_below(3))
                                             : 1;
      std::set<Uid> chosen;
      while (static_cast<int>(chosen.size()) < writers) {
        chosen.insert(static_cast<Uid>(rng.next_below(kCreators)));
      }
      for (Uid c : chosen) {
        const std::int32_t iseq = ++last_iseq[c];
        for (std::size_t p = 0; p < kPages; ++p) {
          if (p != page && !rng.next_bool(0.3)) continue;
          ledger.add(lists[p], c, iseq, stamp, per_writer);
          oracle[p].notices.push_back({c, iseq, stamp});
          ++oracle_count;
        }
      }
    } else if (op < 75) {
      const AppliedMap m = draw_map(oracle[page], 0.5);
      ledger.prune(lists[page], m);
      oracle_count -= oracle[page].prune(m);
    } else if (op < 95) {
      const AppliedMap m = draw_map(oracle[page], 0.8);
      oracle_count -= static_cast<std::int64_t>(oracle[page].notices.size());
      oracle_covered = oracle[page].must_cover(m);
      covered = ledger.cover_all(lists[page], m);
    } else {
      oracle_count -= static_cast<std::int64_t>(oracle[page].notices.size());
      oracle[page].notices.clear();
      ledger.clear(lists[page]);
    }
    ASSERT_EQ(covered, oracle_covered) << "step " << step;
    ASSERT_EQ(ledger.count(), oracle_count) << "step " << step;
    for (std::size_t p = 0; p < kPages; ++p) {
      const auto& list = lists[p];
      const auto& want = oracle[p].notices;
      ASSERT_EQ(list.empty(), want.empty()) << "step " << step;
      // A list the ledger empties hands its storage back.
      if (list.empty()) {
        ASSERT_EQ(list.capacity(), 0u) << "step " << step;
      }
      ASSERT_EQ(list.newest_writer(), oracle[p].source()) << "step " << step;
      ASSERT_EQ(list.notices(), static_cast<std::int64_t>(want.size()))
          << "step " << step << " page " << p;
      std::set<Uid> writers;
      for (const auto& n : want) writers.insert(n.creator);
      ASSERT_EQ(list.records(), per_writer ? writers.size() : want.size())
          << "step " << step << " page " << p;
    }
  }
}

TEST(PendingNotices, PerNoticeListsMatchTheUncollapsedList) {
  for (std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    run_pending_property(/*per_writer=*/false, seed, 10000);
  }
}

TEST(PendingNotices, PerWriterListsMatchTheUncollapsedList) {
  for (std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    run_pending_property(/*per_writer=*/true, seed, 10000);
  }
}

TEST(PendingNotices, PerWriterRecordKeepsTheNewestNoticeAndCountsAll) {
  protocol::PendingNotices ledger;
  protocol::PendingList list;
  ledger.add(list, 3, 1, 10, true);
  ledger.add(list, 5, 1, 11, true);
  ledger.add(list, 3, 4, 12, true);
  EXPECT_EQ(list.records(), 2u);
  EXPECT_EQ(list.notices(), 3);
  EXPECT_EQ(ledger.count(), 3);
  EXPECT_EQ(list.newest_writer(), 3);
  // A copy that reflects creator 3's newest notice reflects the older one.
  AppliedMap applied;
  applied.bump(3, 4);
  ledger.prune(list, applied);
  EXPECT_EQ(list.records(), 1u);
  EXPECT_EQ(ledger.count(), 1);
  EXPECT_EQ(list.newest_writer(), 5);
  // Outside the contract, a copy that reflects only an older notice of a
  // writer keeps the writer's record and its whole count: on such a page
  // the fault that pruned goes on to a must-cover refetch, which clears it.
  ledger.add(list, 5, 2, 13, true);
  applied.bump(5, 1);
  ledger.prune(list, applied);
  EXPECT_EQ(list.notices(), 2);
  EXPECT_EQ(ledger.count(), 2);
  applied.bump(5, 2);
  EXPECT_TRUE(ledger.cover_all(list, applied));
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(ledger.count(), 0);
}

TEST(PendingNotices, RecordsAreCheckedWhereTheyNarrowOrCollapse) {
  protocol::PendingNotices ledger;
  protocol::PendingList list;
  ledger.add(list, 1, 7, 20, true);
  // A writer's newer notice must carry a higher iseq.
  EXPECT_THROW(ledger.add(list, 1, 7, 21, true), util::CheckError);
  EXPECT_THROW(ledger.add(list, 1, 6, 21, true), util::CheckError);
  // The lamport stamp is stored in 32 bits.
  EXPECT_THROW(ledger.add(list, 2, 1, std::int64_t{1} << 31, false),
               util::CheckError);
  EXPECT_EQ(ledger.count(), 1);
}

// ---------------------------------------------------------------------------
// Avoidable writes: a write declaration on a page the node already wrote
// with no serve of it in between (ConsistencyEngine::gc_report_bytes).
// ---------------------------------------------------------------------------

/// One node-side engine at uid 1 outside any DsmSystem, holding a copy of
/// each page of a small multi-writer heap whose owner hints point at the
/// master, as after first-touch fetches.
struct NodeEngine {
  static constexpr Uid kSelf = 1;
  static constexpr PageId kPages = 4;

  explicit NodeEngine(EngineKind kind) {
    config.engine = kind;
    engine = protocol::make_engine(config);
    engine->attach_node(kSelf, heap, kPages, protocols, stats, {});
    const std::vector<std::uint8_t> zeros(kPageSize, 0);
    for (PageId p = 0; p < kPages; ++p) {
      engine->install_copy(p, zeros.data(), {}, false);
    }
  }

  /// One write declaration in an interval of its own, the way the write
  /// fault path and the next release point make it.  Returns the iseq.
  std::int32_t write(PageId p) {
    engine->flush_lazy_twin(p);
    engine->declare_write(p);
    const std::int32_t iseq = engine->finish_interval().iseq;
    engine->plan_home_flush();
    return iseq;
  }

  const protocol::PageMeta& page(PageId p) const { return engine->page(p); }

  DsmConfig config;
  exec::SimHeap heap{static_cast<std::size_t>(kPages) * kPageSize};
  std::vector<Protocol> protocols =
      std::vector<Protocol>(kPages, Protocol::kMultiWriter);
  util::StatsRegistry stats;
  std::unique_ptr<protocol::ConsistencyEngine> engine;
};

TEST(AvoidableWrites, EachUnservedRepeatWriteCountsOnce) {
  NodeEngine n(EngineKind::kLrc);
  n.write(0);
  EXPECT_TRUE(n.page(0).written_unserved);
  EXPECT_EQ(n.engine->avoidable_writes(), 0);  // a first write is needed
  n.write(0);
  n.write(0);
  n.write(1);
  EXPECT_EQ(n.engine->avoidable_writes(), 2);
  // The charge rides the reported figure; the footprint stays memory.
  EXPECT_EQ(n.engine->gc_report_bytes(),
            n.engine->consistency_bytes() + 2 * std::int64_t{kPageSize});
}

TEST(AvoidableWrites, APageOrDiffServeBetweenTheWritesClearsIt) {
  NodeEngine n(EngineKind::kLrc);
  n.write(0);
  const std::int32_t page1_iseq = n.write(1);
  // A full copy of page 0 and the diff of page 1 go to a reader.
  ASSERT_TRUE(n.engine->prepare_serve(0));
  n.engine->record_serve(0);
  std::vector<DiffPageReply> replies;
  n.engine->collect_diffs({{1, {page1_iseq}}}, replies);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(n.page(0).written_unserved);
  EXPECT_FALSE(n.page(1).written_unserved);
  n.write(0);
  n.write(1);
  EXPECT_EQ(n.engine->avoidable_writes(), 0);
  n.write(1);  // nothing served since the last write
  EXPECT_EQ(n.engine->avoidable_writes(), 1);
}

TEST(AvoidableWrites, AGcCommitZeroesTheCounterAndTheBits) {
  NodeEngine n(EngineKind::kLrc);
  for (PageId p = 0; p < NodeEngine::kPages; ++p) {
    n.write(p);
    n.write(p);
  }
  EXPECT_EQ(n.engine->avoidable_writes(), NodeEngine::kPages);
  // The node becomes owner of pages 0 and 1; the master keeps 2 and 3.
  n.engine->note_gc_prepare();
  n.engine->gc_commit_node({{0, NodeEngine::kSelf}, {1, NodeEngine::kSelf}});
  EXPECT_EQ(n.engine->avoidable_writes(), 0);
  EXPECT_EQ(n.engine->gc_report_bytes(), n.engine->consistency_bytes());
  for (PageId p = 0; p < NodeEngine::kPages; ++p) {
    EXPECT_FALSE(n.page(p).written_unserved) << "page " << p;
    // The owned copies are sole copies again: their writes skip the trap,
    // the twin and the notice.
    EXPECT_EQ(n.page(p).exclusive, p < 2) << "page " << p;
  }
}

TEST(AvoidableWrites, TheHomeEngineNeverCounts) {
  NodeEngine n(EngineKind::kHomeLrc);
  for (int i = 0; i < 3; ++i) n.write(0);
  EXPECT_FALSE(n.page(0).written_unserved);
  EXPECT_EQ(n.engine->avoidable_writes(), 0);
  EXPECT_EQ(n.engine->gc_report_bytes(), n.engine->consistency_bytes());
}

}  // namespace
}  // namespace anow::dsm
