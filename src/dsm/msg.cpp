#include "dsm/msg.hpp"

namespace anow::dsm {

namespace {

std::int64_t intervals_bytes(const std::vector<Interval>& intervals) {
  std::int64_t total = 4;
  for (const auto& iv : intervals) total += iv.wire_bytes();
  return total;
}

/// Encoded payload size per segment kind: the flat per-message sizes minus
/// the 8 bytes charged once per envelope (kEnvelopeHeaderBytes), so a
/// single-segment envelope weighs exactly one flat message.
struct WireSize {
  std::int64_t operator()(const PageRequest&) const { return 8; }
  std::int64_t operator()(const PageReply& m) const {
    return 8 + static_cast<std::int64_t>(m.data.size()) +
           static_cast<std::int64_t>(m.applied.size()) * 8;
  }
  std::int64_t operator()(const DiffRequest& m) const {
    std::int64_t total = 8;
    for (const auto& pg : m.pages) {
      total += 8 + static_cast<std::int64_t>(pg.iseqs.size()) * 4;
    }
    return total;
  }
  std::int64_t operator()(const DiffReply& m) const {
    std::int64_t total = 8;
    for (const auto& pg : m.pages) {
      total += 8;
      for (const auto& [iseq, bytes] : pg.diffs) {
        (void)iseq;
        total += 8 + static_cast<std::int64_t>(bytes.size());
      }
    }
    return total;
  }
  std::int64_t operator()(const HomeFlush& m) const {
    std::int64_t total = 8;
    for (const auto& pg : m.pages) {
      total += 8 + static_cast<std::int64_t>(pg.diff.size());
    }
    return total;
  }
  std::int64_t operator()(const HomeFlushAck&) const { return 8; }
  std::int64_t operator()(const BarrierArrive& m) const {
    return 8 + m.interval.wire_bytes();
  }
  std::int64_t operator()(const BarrierRelease& m) const {
    return intervals_bytes(m.intervals) +
           static_cast<std::int64_t>(m.owner_delta.size()) * 6;
  }
  std::int64_t operator()(const GcPrepare& m) const {
    return static_cast<std::int64_t>(m.owners.size()) * 6 +
           intervals_bytes(m.intervals);
  }
  std::int64_t operator()(const GcAck&) const { return 0; }
  std::int64_t operator()(const LockAcquireReq&) const { return 4; }
  std::int64_t operator()(const LockGrant& m) const {
    return intervals_bytes(m.intervals);
  }
  std::int64_t operator()(const LockReleaseMsg& m) const {
    return 4 + m.interval.wire_bytes();
  }
  std::int64_t operator()(const ForkMsg& m) const {
    return 8 + static_cast<std::int64_t>(m.args.size()) +
           static_cast<std::int64_t>(m.team.size()) * 6 +
           intervals_bytes(m.intervals) +
           static_cast<std::int64_t>(m.owner_delta.size()) * 6;
  }
  std::int64_t operator()(const TerminateMsg&) const { return 0; }
  std::int64_t operator()(const JoinReady&) const { return 0; }
  std::int64_t operator()(const PageMapMsg& m) const {
    return static_cast<std::int64_t>(m.owner_by_page.size()) * 2;
  }
  std::int64_t operator()(const HomeMove& m) const {
    return 4 + static_cast<std::int64_t>(m.entries.size()) * 6;
  }
  std::int64_t operator()(const TreeArrive& m) const {
    std::int64_t total = 4;
    for (const auto& f : m.flushes) total += (*this)(f);
    for (const auto& a : m.arrivals) total += (*this)(a);
    return total;
  }
  std::int64_t operator()(const TreeAck&) const { return 4; }
  std::int64_t operator()(const TreeMulticast& m) const {
    std::int64_t total = 4;
    for (const auto& route : m.routes) {
      total += 6;
      for (const auto& seg : route.segments) total += segment_wire_bytes(seg);
    }
    return total;
  }
};

constexpr const char* kSegmentKindNames[kNumSegmentKinds] = {
    "page_request",    "page_reply",     "diff_request", "diff_reply",
    "home_flush",      "home_flush_ack", "barrier_arrive",
    "barrier_release", "gc_prepare",     "gc_ack",       "lock_acquire",
    "lock_grant",      "lock_release",   "fork",         "terminate",
    "join_ready",      "page_map",       "home_move",    "tree_arrive",
    "tree_ack",        "tree_multicast",
};

static_assert(std::variant_size_v<Segment> == kNumSegmentKinds,
              "SegmentKind must mirror the Segment variant alternatives");

}  // namespace

const char* segment_kind_name(SegmentKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kNumSegmentKinds ? kSegmentKindNames[i] : "?";
}

std::int64_t segment_wire_bytes(const Segment& seg) {
  return std::visit(WireSize{}, seg);
}

bool segment_is_consistency_traffic(const Segment& seg) {
  switch (segment_kind(seg)) {
    case SegmentKind::kDiffRequest:
    case SegmentKind::kDiffReply:
    case SegmentKind::kHomeFlush:
    case SegmentKind::kHomeFlushAck:
      return true;
    default:
      return false;
  }
}

bool segment_is_control(const Segment& seg) {
  switch (segment_kind(seg)) {
    case SegmentKind::kBarrierArrive:
    case SegmentKind::kBarrierRelease:
    case SegmentKind::kGcPrepare:
    case SegmentKind::kGcAck:
    case SegmentKind::kFork:
    case SegmentKind::kTerminate:
    case SegmentKind::kJoinReady:
    case SegmentKind::kPageMap:
    case SegmentKind::kTreeArrive:
    case SegmentKind::kTreeAck:
    case SegmentKind::kTreeMulticast:
      return true;
    default:
      return false;
  }
}

std::int64_t Envelope::wire_bytes() const {
  std::int64_t total = kEnvelopeHeaderBytes;
  for (const auto& seg : segments) total += segment_wire_bytes(seg);
  return total;
}

}  // namespace anow::dsm
