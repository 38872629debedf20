// Envelope/Channel property tests (DESIGN.md §7): randomized segment mixes
// round-trip through stage/flush/deliver unchanged and in order, a send
// drains its destination's stage ahead of the sent segment, and the
// envelope wire-size bound holds for every mix, with single-segment
// envelopes reproducing the flat per-message accounting exactly.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dsm/channel.hpp"
#include "dsm/msg.hpp"
#include "util/rng.hpp"

namespace anow::dsm {
namespace {

// ---------------------------------------------------------------------------
// Structural segment equality (test-only; the runtime never compares).
// ---------------------------------------------------------------------------

bool equal(const Interval& a, const Interval& b) {
  if (a.creator != b.creator || a.iseq != b.iseq || a.lamport != b.lamport ||
      a.notices.size() != b.notices.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.notices.size(); ++i) {
    if (a.notices[i].page != b.notices[i].page ||
        a.notices[i].protocol != b.notices[i].protocol) {
      return false;
    }
  }
  return true;
}

bool equal(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!equal(a[i], b[i])) return false;
  }
  return true;
}

struct SegmentEq {
  const Segment& rhs;
  template <typename T>
  bool operator()(const T& a) const {
    const T* b = std::get_if<T>(&rhs);
    return b != nullptr && eq(a, *b);
  }

  static bool eq(const PageRequest& a, const PageRequest& b) {
    return a.requester == b.requester && a.page == b.page &&
           a.forward_hops == b.forward_hops && a.cookie == b.cookie;
  }
  static bool eq(const PageReply& a, const PageReply& b) {
    return a.page == b.page && a.data == b.data && a.applied == b.applied &&
           a.cookie == b.cookie;
  }
  static bool eq(const DiffRequest& a, const DiffRequest& b) {
    if (a.requester != b.requester || a.cookie != b.cookie ||
        a.pages.size() != b.pages.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.pages.size(); ++i) {
      if (a.pages[i].page != b.pages[i].page ||
          a.pages[i].iseqs != b.pages[i].iseqs) {
        return false;
      }
    }
    return true;
  }
  static bool eq(const DiffReply& a, const DiffReply& b) {
    if (a.creator != b.creator || a.cookie != b.cookie ||
        a.pages.size() != b.pages.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.pages.size(); ++i) {
      if (a.pages[i].page != b.pages[i].page ||
          a.pages[i].diffs != b.pages[i].diffs) {
        return false;
      }
    }
    return true;
  }
  static bool eq(const HomeFlush& a, const HomeFlush& b) {
    if (a.writer != b.writer || a.cookie != b.cookie ||
        a.pages.size() != b.pages.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.pages.size(); ++i) {
      if (a.pages[i].page != b.pages[i].page ||
          a.pages[i].iseq != b.pages[i].iseq ||
          a.pages[i].diff != b.pages[i].diff) {
        return false;
      }
    }
    return true;
  }
  static bool eq(const HomeFlushAck& a, const HomeFlushAck& b) {
    return a.applied_bytes == b.applied_bytes && a.cookie == b.cookie;
  }
  static bool eq(const BarrierArrive& a, const BarrierArrive& b) {
    return a.uid == b.uid && a.barrier_id == b.barrier_id &&
           equal(a.interval, b.interval) &&
           a.consistency_bytes == b.consistency_bytes;
  }
  static bool eq(const BarrierRelease& a, const BarrierRelease& b) {
    return a.barrier_id == b.barrier_id && equal(a.intervals, b.intervals) &&
           a.gc_commit == b.gc_commit && a.owner_delta == b.owner_delta;
  }
  static bool eq(const GcPrepare& a, const GcPrepare& b) {
    return a.owners == b.owners && equal(a.intervals, b.intervals);
  }
  static bool eq(const GcAck& a, const GcAck& b) { return a.uid == b.uid; }
  static bool eq(const LockAcquireReq& a, const LockAcquireReq& b) {
    return a.requester == b.requester && a.lock_id == b.lock_id;
  }
  static bool eq(const LockGrant& a, const LockGrant& b) {
    return a.lock_id == b.lock_id && equal(a.intervals, b.intervals);
  }
  static bool eq(const LockReleaseMsg& a, const LockReleaseMsg& b) {
    return a.releaser == b.releaser && a.lock_id == b.lock_id &&
           equal(a.interval, b.interval);
  }
  static bool eq(const ForkMsg& a, const ForkMsg& b) {
    return a.task_id == b.task_id && a.args == b.args && a.team == b.team &&
           equal(a.intervals, b.intervals) && a.gc_commit == b.gc_commit &&
           a.owner_delta == b.owner_delta;
  }
  static bool eq(const TerminateMsg&, const TerminateMsg&) { return true; }
  static bool eq(const JoinReady& a, const JoinReady& b) {
    return a.uid == b.uid;
  }
  static bool eq(const PageMapMsg& a, const PageMapMsg& b) {
    return a.owner_by_page == b.owner_by_page;
  }
  static bool eq(const HomeMove& a, const HomeMove& b) {
    return a.entries == b.entries;
  }
  static bool eq(const TreeArrive& a, const TreeArrive& b) {
    if (a.barrier_id != b.barrier_id ||
        a.flushes.size() != b.flushes.size() ||
        a.arrivals.size() != b.arrivals.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.flushes.size(); ++i) {
      if (!eq(a.flushes[i], b.flushes[i])) return false;
    }
    for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
      if (!eq(a.arrivals[i], b.arrivals[i])) return false;
    }
    return true;
  }
  static bool eq(const TreeAck& a, const TreeAck& b) {
    return a.count == b.count;
  }
  static bool eq(const TreeMulticast& a, const TreeMulticast& b) {
    if (a.routes.size() != b.routes.size()) return false;
    for (std::size_t i = 0; i < a.routes.size(); ++i) {
      if (a.routes[i].dest != b.routes[i].dest ||
          a.routes[i].segments.size() != b.routes[i].segments.size()) {
        return false;
      }
      for (std::size_t j = 0; j < a.routes[i].segments.size(); ++j) {
        if (!std::visit(SegmentEq{b.routes[i].segments[j]},
                        a.routes[i].segments[j])) {
          return false;
        }
      }
    }
    return true;
  }
};

bool segments_equal(const Segment& a, const Segment& b) {
  return std::visit(SegmentEq{b}, a);
}

// ---------------------------------------------------------------------------
// Randomized segment generation.
// ---------------------------------------------------------------------------

Interval random_interval(util::Rng& rng) {
  Interval iv;
  iv.creator = static_cast<Uid>(rng.next_below(8));
  iv.iseq = static_cast<std::int32_t>(rng.next_in(1, 100));
  iv.lamport = rng.next_in(0, 1000);
  const auto n = rng.next_below(5);
  for (std::uint64_t i = 0; i < n; ++i) {
    iv.notices.push_back({static_cast<PageId>(rng.next_below(256)),
                          rng.next_bool(0.5) ? Protocol::kMultiWriter
                                             : Protocol::kSingleWriter});
  }
  return iv;
}

std::vector<Interval> random_intervals(util::Rng& rng) {
  std::vector<Interval> out;
  const auto n = rng.next_below(4);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(random_interval(rng));
  return out;
}

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::uint64_t max) {
  std::vector<std::uint8_t> out(rng.next_below(max + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

OwnerDelta random_delta(util::Rng& rng) {
  OwnerDelta delta;
  const auto n = rng.next_below(6);
  for (std::uint64_t i = 0; i < n; ++i) {
    delta.emplace_back(static_cast<PageId>(rng.next_below(256)),
                       static_cast<Uid>(rng.next_below(8)));
  }
  return delta;
}

Segment random_segment(util::Rng& rng) {
  switch (rng.next_below(kNumSegmentKinds)) {
    case 0:
      return PageRequest{static_cast<Uid>(rng.next_below(8)),
                         static_cast<PageId>(rng.next_below(256)),
                         static_cast<std::int32_t>(rng.next_below(4)),
                         rng.next_u64()};
    case 1: {
      PageReply r;
      r.page = static_cast<PageId>(rng.next_below(256));
      r.data = random_bytes(rng, 512);
      r.applied.bump(static_cast<Uid>(rng.next_below(8)),
                     static_cast<std::int32_t>(rng.next_in(1, 50)));
      r.cookie = rng.next_u64();
      return r;
    }
    case 2: {
      DiffRequest r;
      r.requester = static_cast<Uid>(rng.next_below(8));
      const auto n = rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        DiffPageRequest pg;
        pg.page = static_cast<PageId>(rng.next_below(256));
        const auto k = rng.next_below(4);
        for (std::uint64_t j = 0; j < k; ++j) {
          pg.iseqs.push_back(static_cast<std::int32_t>(rng.next_in(1, 50)));
        }
        r.pages.push_back(std::move(pg));
      }
      r.cookie = rng.next_u64();
      return r;
    }
    case 3: {
      DiffReply r;
      r.creator = static_cast<Uid>(rng.next_below(8));
      const auto n = rng.next_below(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        DiffPageReply pg;
        pg.page = static_cast<PageId>(rng.next_below(256));
        pg.diffs.emplace_back(static_cast<std::int32_t>(rng.next_in(1, 50)),
                              random_bytes(rng, 128));
        r.pages.push_back(std::move(pg));
      }
      r.cookie = rng.next_u64();
      return r;
    }
    case 4: {
      HomeFlush f;
      f.writer = static_cast<Uid>(rng.next_below(8));
      const auto n = rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        f.pages.push_back({static_cast<PageId>(rng.next_below(256)),
                           static_cast<std::int32_t>(rng.next_in(1, 50)),
                           random_bytes(rng, 128)});
      }
      f.cookie = rng.next_u64();
      return f;
    }
    case 5:
      return HomeFlushAck{rng.next_in(0, 4096), rng.next_u64()};
    case 6:
      return BarrierArrive{static_cast<Uid>(rng.next_below(8)),
                           static_cast<std::int32_t>(rng.next_below(16)),
                           random_interval(rng), rng.next_in(0, 1 << 20)};
    case 7: {
      BarrierRelease r;
      r.barrier_id = static_cast<std::int32_t>(rng.next_below(16));
      r.intervals = random_intervals(rng);
      r.gc_commit = rng.next_bool(0.3);
      r.owner_delta = random_delta(rng);
      return r;
    }
    case 8:
      return GcPrepare{random_delta(rng), random_intervals(rng)};
    case 9:
      return GcAck{static_cast<Uid>(rng.next_below(8))};
    case 10:
      return LockAcquireReq{static_cast<Uid>(rng.next_below(8)),
                            static_cast<std::int32_t>(rng.next_below(32))};
    case 11:
      return LockGrant{static_cast<std::int32_t>(rng.next_below(32)),
                       random_intervals(rng)};
    case 12:
      return LockReleaseMsg{static_cast<Uid>(rng.next_below(8)),
                            static_cast<std::int32_t>(rng.next_below(32)),
                            random_interval(rng)};
    case 13: {
      ForkMsg f;
      f.task_id = static_cast<std::int32_t>(rng.next_below(8));
      f.args = random_bytes(rng, 64);
      f.team = {{0, 0}, {1, 1}};
      f.intervals = random_intervals(rng);
      f.gc_commit = rng.next_bool(0.3);
      f.owner_delta = random_delta(rng);
      return f;
    }
    case 14:
      return TerminateMsg{};
    case 15:
      return JoinReady{static_cast<Uid>(rng.next_below(8))};
    case 16: {
      PageMapMsg m;
      const auto n = rng.next_below(64);
      for (std::uint64_t i = 0; i < n; ++i) {
        m.owner_by_page.push_back(static_cast<Uid>(rng.next_below(8)));
      }
      return m;
    }
    case 17:
      return HomeMove{random_delta(rng)};
    case 18: {
      TreeArrive t;
      t.barrier_id = static_cast<std::int32_t>(rng.next_below(16));
      const auto nf = rng.next_below(3);
      for (std::uint64_t i = 0; i < nf; ++i) {
        HomeFlush f;
        f.writer = static_cast<Uid>(rng.next_below(8));
        f.pages.push_back({static_cast<PageId>(rng.next_below(256)),
                           static_cast<std::int32_t>(rng.next_in(1, 50)),
                           random_bytes(rng, 128)});
        t.flushes.push_back(std::move(f));
      }
      const auto na = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < na; ++i) {
        t.arrivals.push_back(
            BarrierArrive{static_cast<Uid>(rng.next_below(8)), t.barrier_id,
                          random_interval(rng), rng.next_in(0, 1 << 20)});
      }
      return t;
    }
    case 19:
      return TreeAck{static_cast<std::int32_t>(1 + rng.next_below(8))};
    default: {
      // TreeMulticast: shallow routes of non-tree segments (the runtime
      // never nests multicasts either — routes hold staged instruction
      // segments).
      TreeMulticast mc;
      const auto nr = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < nr; ++i) {
        TreeRoute route;
        route.dest = static_cast<Uid>(1 + rng.next_below(8));
        const auto ns = 1 + rng.next_below(3);
        for (std::uint64_t j = 0; j < ns; ++j) {
          Segment seg = random_segment(rng);
          while (segment_kind(seg) == SegmentKind::kTreeMulticast) {
            seg = random_segment(rng);
          }
          route.segments.push_back(std::move(seg));
        }
        mc.routes.push_back(std::move(route));
      }
      return mc;
    }
  }
}

// ---------------------------------------------------------------------------
// Stage/flush/deliver round-trip.
// ---------------------------------------------------------------------------

TEST(Envelope, RandomMixesRoundTripThroughStageFlushDeliver) {
  util::Rng rng(20260728);
  for (int round = 0; round < 50; ++round) {
    std::vector<Envelope> delivered;
    Channel ch(/*self=*/0, [&](Uid /*to*/, Envelope env) {
      delivered.push_back(std::move(env));
    });
    // Stage a random mix for a handful of destinations, then flush each.
    std::map<Uid, std::vector<Segment>> staged;
    const auto count = 1 + rng.next_below(12);
    for (std::uint64_t i = 0; i < count; ++i) {
      const Uid to = static_cast<Uid>(1 + rng.next_below(3));
      Segment seg = random_segment(rng);
      staged[to].push_back(seg);
      ch.stage(to, std::move(seg));
    }
    for (const auto& [to, segs] : staged) {
      ASSERT_TRUE(ch.has_staged(to));
      (void)segs;
    }
    ch.flush_all();

    // Deliver: walking every envelope's segments in order must reproduce
    // each destination's staged sequence exactly (content and order).
    ASSERT_EQ(delivered.size(), staged.size());
    for (const auto& env : delivered) {
      ASSERT_FALSE(env.segments.empty());
      EXPECT_EQ(env.src, 0);
    }
    std::size_t di = 0;
    for (auto& [to, segs] : staged) {
      (void)to;
      // flush_all emits per destination in first-stage order; match by
      // content since map iteration reorders.
      bool matched = false;
      for (const auto& env : delivered) {
        if (env.segments.size() != segs.size()) continue;
        bool all = true;
        for (std::size_t i = 0; i < segs.size(); ++i) {
          if (!segments_equal(env.segments[i], segs[i])) {
            all = false;
            break;
          }
        }
        if (all) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "round " << round << " destination " << di;
      ++di;
    }
  }
}

TEST(Envelope, SendDrainsStagedSegmentsAheadOfTheSentOne) {
  util::Rng rng(99);
  std::vector<Envelope> delivered;
  Channel ch(/*self=*/0,
             [&](Uid, Envelope env) { delivered.push_back(std::move(env)); });
  Segment first = random_segment(rng);
  Segment second = random_segment(rng);
  Segment last = random_segment(rng);
  ch.stage(3, first);
  ch.stage(3, second);
  ch.send(3, last);
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(delivered[0].segments.size(), 3u);
  EXPECT_TRUE(segments_equal(delivered[0].segments[0], first));
  EXPECT_TRUE(segments_equal(delivered[0].segments[1], second));
  EXPECT_TRUE(segments_equal(delivered[0].segments[2], last));
  EXPECT_FALSE(ch.has_staged(3));
  // A staged segment for one destination never leaks into another's send.
  Segment other = random_segment(rng);
  ch.stage(4, other);
  Segment solo = random_segment(rng);
  ch.send(5, solo);
  ASSERT_EQ(delivered.size(), 2u);
  ASSERT_EQ(delivered[1].segments.size(), 1u);
  EXPECT_TRUE(segments_equal(delivered[1].segments[0], solo));
  EXPECT_TRUE(ch.has_staged(4));
}

TEST(Envelope, WireBytesBoundedBySumOfSoloEnvelopes) {
  util::Rng rng(20260729);
  for (int round = 0; round < 200; ++round) {
    Envelope env;
    env.src = 0;
    const auto count = 1 + rng.next_below(8);
    std::int64_t solo_sum = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      Segment seg = random_segment(rng);
      solo_sum += kEnvelopeHeaderBytes + segment_wire_bytes(seg);
      env.segments.push_back(std::move(seg));
    }
    // One header for the whole envelope vs one per segment.
    EXPECT_LE(env.wire_bytes(), solo_sum);
    EXPECT_EQ(env.wire_bytes(),
              solo_sum - static_cast<std::int64_t>(count - 1) *
                             kEnvelopeHeaderBytes);
    if (count == 1) {
      EXPECT_EQ(env.wire_bytes(), solo_sum);
    }
  }
}

}  // namespace
}  // namespace anow::dsm
