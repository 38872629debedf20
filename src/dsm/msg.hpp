// DSM wire protocol: typed segments and the envelope that carries them.
//
// Segments carry rich C++ payloads (the simulation shares one address
// space); their *wire size* for network cost accounting is computed by
// segment_wire_bytes() from the logical on-the-wire encoding TreadMarks
// would use.  An Envelope is the unit the network moves: an ordered list of
// segments from one sender, charged one envelope header plus the sum of its
// segments' payload bytes.  A single-segment envelope therefore costs
// exactly one flat per-message send (the §5.1 calibration); every
// additional segment piggybacked on the same envelope saves one header and
// one per-message network overhead (DESIGN.md §7).
//
// The staging and coalescing policy lives in dsm/channel.hpp; nothing here
// knows when segments merge, only what each one weighs.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "dsm/diff.hpp"
#include "dsm/interval.hpp"
#include "dsm/protocol/applied_map.hpp"
#include "dsm/types.hpp"

namespace anow::dsm {

struct PageRequest {
  Uid requester = kNoUid;
  PageId page = -1;
  std::int32_t forward_hops = 0;
  std::uint64_t cookie = 0;  // reply rendezvous at the requester
};

struct PageReply {
  PageId page = -1;
  std::vector<std::uint8_t> data;  // kPageSize bytes
  AppliedMap applied;
  std::uint64_t cookie = 0;
};

/// Intervals of one page wanted from the serving creator.
struct DiffPageRequest {
  PageId page = -1;
  std::vector<std::int32_t> iseqs;  // intervals of the server to fetch
};

/// Batched diff fetch: all wanted diffs of one creator, possibly spanning
/// several pages.  The fault path coalesces the multi-writer pages of one
/// fault — a range, or every owned page a GC validates — into a single
/// request per creator (one message round instead of one per page).
struct DiffRequest {
  Uid requester = kNoUid;
  std::vector<DiffPageRequest> pages;
  std::uint64_t cookie = 0;
};

struct DiffPageReply {
  PageId page = -1;
  // (iseq, encoded diff) pairs, in the order requested.
  std::vector<std::pair<std::int32_t, DiffBytes>> diffs;
};

struct DiffReply {
  Uid creator = kNoUid;
  std::vector<DiffPageReply> pages;
  std::uint64_t cookie = 0;
};

/// One page's encoded diff of one finished interval, eagerly pushed to the
/// page's home at a release point (home-based LRC).  An empty diff still
/// carries the (writer, iseq) so the home's applied map covers the interval
/// even when no word changed.
struct HomeFlushPage {
  PageId page = -1;
  std::int32_t iseq = 0;
  DiffBytes diff;
};

/// Batched eager flush: every dirty page of one release interval that shares
/// a home travels in one message (one round per home per release).  The
/// writer blocks on the ack before announcing the interval to the master, so
/// a write notice can never exist anywhere before its data is at the home.
/// cookie == 0 marks a flush piggybacked on the release announcement itself
/// (same envelope, ordered before it): no ack is wanted because the home
/// applies the segment before it can even see the announcement.
struct HomeFlush {
  Uid writer = kNoUid;
  std::vector<HomeFlushPage> pages;
  std::uint64_t cookie = 0;
};

struct HomeFlushAck {
  std::int64_t applied_bytes = 0;
  std::uint64_t cookie = 0;
};

struct BarrierArrive {
  Uid uid = kNoUid;
  std::int32_t barrier_id = 0;
  Interval interval;  // empty notices if nothing was written
  /// Footprint of the sender's consistency metadata plus one page per
  /// avoidable write (ConsistencyEngine::gc_report_bytes); the master
  /// triggers a GC when the maximum across processes exceeds the configured
  /// threshold ("when the memory allocated for these data structures
  /// becomes exhausted", §4.1).
  std::int64_t consistency_bytes = 0;
};

/// Owner-map delta broadcast with a GC commit (page -> new owner uid).
using OwnerDelta = std::vector<std::pair<PageId, Uid>>;

struct BarrierRelease {
  std::int32_t barrier_id = 0;
  std::vector<Interval> intervals;  // undelivered intervals, all creators
  bool gc_commit = false;
  OwnerDelta owner_delta;
};

/// Master asks everyone to validate the pages they will own after GC.
/// Carries all not-yet-delivered intervals so validation sees every write
/// notice that exists at this point (otherwise an owner could "validate"
/// while missing a concurrent writer's diff and the commit would then drop
/// that diff's archive).
struct GcPrepare {
  OwnerDelta owners;  // full assignment of pages that changed owner
  std::vector<Interval> intervals;
};

struct GcAck {
  Uid uid = kNoUid;
};

struct LockAcquireReq {
  Uid requester = kNoUid;
  std::int32_t lock_id = 0;
};

struct LockGrant {
  std::int32_t lock_id = 0;
  std::vector<Interval> intervals;  // consistency info piggybacked
};

struct LockReleaseMsg {
  Uid releaser = kNoUid;
  std::int32_t lock_id = 0;
  Interval interval;
};

/// Instructions delivered to a process parked in Tmk_wait.
struct ForkMsg {
  std::int32_t task_id = -1;
  std::vector<std::uint8_t> args;
  // World view: uid -> pid for the new team, dense pids.
  std::vector<std::pair<Uid, Pid>> team;
  std::vector<Interval> intervals;  // pending consistency info
  bool gc_commit = false;
  OwnerDelta owner_delta;
};

struct TerminateMsg {};

/// Sent by a joiner once its connections are up (paper §4.1: the master
/// learns the new process "has set up all its other connections").
struct JoinReady {
  Uid uid = kNoUid;
};

/// Full page-location map sent to a joining process after GC (§4.1).
struct PageMapMsg {
  std::vector<Uid> owner_by_page;
};

// --- adaptive placement (DESIGN.md §9) -------------------------------------
// With --placement adaptive under the home engine, DsmSystem executes the
// policy's re-homes by riding the GC commit round: the notice is *staged*
// on the master's channel ahead of the GcPrepare fan-out, so it travels in
// the prepare envelope and needs no ack round of its own: the existing
// GcAck already gates the commit.  It never exists with --placement static.

/// Announces to a process the pages whose home the placement policy is
/// moving *to it* this GC round (the re-homes themselves ride the commit's
/// OwnerDelta, where prepare-phase validation covers them; this is the
/// explicit adoption notice the new home counts and checks against).
struct HomeMove {
  OwnerDelta entries;  // (page, new home == receiver)
};

// --- hierarchical control plane (DESIGN.md §12) ----------------------------
// Collectives run over a K-ary tree over the live team: inbound collective
// segments are *combined* at interior nodes, outbound instruction fan-outs
// are *multicast* down it.  A hop between the master and a leaf child of
// the master carries the plain segments instead, so none of these exist
// under the unbounded default fanout, where the tree is the star.

/// Combined barrier arrival: one envelope per subtree.  Each non-master
/// process below an interior node, and each interior node, sends exactly
/// one TreeArrive to its tree parent covering its whole subtree — its own
/// arrival merged with its children's.  Flushes are
/// the subtree's master-homed piggybacked HomeFlush segments; they are kept
/// ordered *before* the arrivals and applied first at the master, so the
/// ack-before-announce invariant survives routing through interior nodes
/// that are not the flushes' home.
struct TreeArrive {
  std::int32_t barrier_id = 0;
  std::vector<HomeFlush> flushes;
  std::vector<BarrierArrive> arrivals;
};

/// Combined GC ack: count = number of GcAcks folded in (own + children's
/// counts).  The master decrements its outstanding-ack counter by count, so
/// the GcAck-as-adoption-barrier semantics are unchanged.
struct TreeAck {
  std::int32_t count = 0;
};

/// Multicast fan-out: one route per final destination, each an ordered
/// segment list (the destination's staged channel contents — e.g. a
/// join-barrier release — followed by the instruction).  Interior nodes
/// forward descendant routes to the responsible child *before* processing
/// their own route, so a terminate in the own route cannot strand the
/// subtree.  Routes only ever originate at the master.
struct TreeMulticast;

/// One typed unit of the wire protocol.  Alternative order must match
/// SegmentKind (segment_kind() is the variant index).
using Segment =
    std::variant<PageRequest, PageReply, DiffRequest, DiffReply, HomeFlush,
                 HomeFlushAck, BarrierArrive, BarrierRelease, GcPrepare,
                 GcAck, LockAcquireReq, LockGrant, LockReleaseMsg, ForkMsg,
                 TerminateMsg, JoinReady, PageMapMsg, HomeMove, TreeArrive,
                 TreeAck, TreeMulticast>;

struct TreeRoute {
  Uid dest = kNoUid;
  std::vector<Segment> segments;
};

struct TreeMulticast {
  std::vector<TreeRoute> routes;
};

enum class SegmentKind : std::uint8_t {
  kPageRequest,
  kPageReply,
  kDiffRequest,
  kDiffReply,
  kHomeFlush,
  kHomeFlushAck,
  kBarrierArrive,
  kBarrierRelease,
  kGcPrepare,
  kGcAck,
  kLockAcquireReq,
  kLockGrant,
  kLockRelease,
  kFork,
  kTerminate,
  kJoinReady,
  kPageMap,
  kHomeMove,
  kTreeArrive,
  kTreeAck,
  kTreeMulticast,
};
constexpr int kNumSegmentKinds = 21;

inline SegmentKind segment_kind(const Segment& seg) {
  return static_cast<SegmentKind>(seg.index());
}
/// Short stable name ("page_request", "barrier_arrive", ...) used for the
/// per-segment-kind traffic histogram (stats counters, bench JSON).
const char* segment_kind_name(SegmentKind kind);

/// Logical encoded payload size of one segment, excluding the envelope
/// header (the header is charged once per envelope, not per segment).
std::int64_t segment_wire_bytes(const Segment& seg);

/// Segment kinds that exist purely to move modifications (diff fetch
/// rounds, home flushes).  Together with full-page refetches that resolve
/// pending notices (counted at the fetch site, where the intent is known),
/// this forms the engine-comparison consistency-traffic metric.
bool segment_is_consistency_traffic(const Segment& seg);

/// Control-plane segment kinds: the collective machinery (barrier
/// arrive/release, fork/join, GC rounds, owner-delta broadcast, terminate,
/// tree combining/multicast).  Drives the dsm.ctrl.master_inbound/outbound
/// counters — "messages through the master per collective" — which the tree
/// topology must drop from O(N) to O(K·log_K N).  Lock traffic and data
/// traffic (page/diff fetches, home flushes) are excluded.  A combined tree
/// segment counts once, not once per folded child segment: that is exactly
/// the serialization relief the metric measures.
bool segment_is_control(const Segment& seg);

/// Per-envelope framing charge (type/count/length fields).  Chosen so that
/// a single-segment envelope weighs exactly one flat per-message send, the
/// accounting the §5.1 primitive costs are calibrated on.
constexpr std::int64_t kEnvelopeHeaderBytes = 8;

/// The unit the network moves: an ordered list of segments from one sender.
/// Delivery processes segments strictly in order, which is what lets a
/// HomeFlush ride in front of the BarrierArrive announcing its interval
/// without an ack round (the home applies the data before it can see the
/// announcement).
struct Envelope {
  Uid src = kNoUid;
  std::vector<Segment> segments;

  std::int64_t wire_bytes() const;
};

}  // namespace anow::dsm
