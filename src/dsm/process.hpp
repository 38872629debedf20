// A DSM process: one simulated TreadMarks process running on some host.
//
// The process owns a full local copy of the shared region plus its
// consistency engine (dsm/protocol/), which holds all per-page protocol
// state.  What remains here is fiber plumbing — the reply rendezvous, the
// instruction queue, CPU-cost coalescing — and the range-touch fault
// front-end (read_range/write_range), which drives the same page-fault
// state machine mprotect would by calling into the engine: invalid -> fetch
// (full page or diffs), first-write -> twin + dirty.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/protocol_checker.hpp"
#include "analysis/race_detector.hpp"
#include "dsm/channel.hpp"
#include "dsm/config.hpp"
#include "dsm/msg.hpp"
#include "dsm/protocol/engine.hpp"
#include "dsm/types.hpp"
#include "exec/heap.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"

namespace anow::exec {
class RealRuntime;
}  // namespace anow::exec

namespace anow::dsm {

class DsmSystem;

/// Barrier id used for the implicit Tmk_join barrier at the end of a
/// parallel construct.
constexpr std::int32_t kJoinBarrierId = 0;

class DsmProcess {
 public:
  DsmProcess(DsmSystem& system, Uid uid, sim::HostId host);
  ~DsmProcess();

  DsmProcess(const DsmProcess&) = delete;
  DsmProcess& operator=(const DsmProcess&) = delete;

  // --- identity ------------------------------------------------------------
  Uid uid() const { return uid_; }
  Pid pid() const { return pid_; }
  int nprocs() const;
  bool is_master() const { return uid_ == kMasterUid; }
  bool alive() const { return alive_; }
  /// No tree-combining state in flight (DESIGN.md §12).  Collectives never
  /// span an adaptation point, so this holds between constructs by
  /// construction; expel() asserts it before the leaver departs.
  bool tree_combine_idle() const {
    return !tree_arrive_open_ && !tree_ack_open_ &&
           tree_flushes_pending_.empty();
  }
  sim::HostId host() const { return host_; }
  DsmSystem& system() { return system_; }
  protocol::ConsistencyEngine& engine() { return *engine_; }
  const protocol::ConsistencyEngine& engine() const { return *engine_; }

  // --- shared memory (fiber context) ----------------------------------------
  /// Ensures [addr, addr+len) is readable, faulting pages in as needed.
  void read_range(GAddr addr, std::size_t len);
  /// Ensures [addr, addr+len) is writable (read fault if needed, then twin
  /// and dirty marking per page).
  void write_range(GAddr addr, std::size_t len);

  /// Raw pointer into the local copy of the shared region.  Only valid for
  /// ranges previously touched via read_range/write_range in this interval:
  /// a store is tracked by its write_range declaration alone, under both
  /// backends.  In checked builds under --backend real this is the
  /// mprotect'd app view, whose valid pages are read-write and whose
  /// invalid pages are PROT_NONE, so touching a page no declaration faulted
  /// in dies at the faulting instruction.
  template <typename T>
  T* ptr(GAddr addr) {
    return reinterpret_cast<T*>(heap_->app_base() + addr);
  }
  template <typename T>
  const T* cptr(GAddr addr) const {
    return reinterpret_cast<const T*>(heap_->app_base() + addr);
  }
  /// The protocol view (always readable/writable): checkpoint snapshots and
  /// region restores go through here, never through the protected app view.
  std::uint8_t* region_data() { return heap_->prot_base(); }
  const exec::ProcessHeap& heap() const { return *heap_; }

  // --- synchronization (fiber context) ---------------------------------------
  void barrier(std::int32_t barrier_id);
  void lock_acquire(std::int32_t lock_id);
  void lock_release(std::int32_t lock_id);

  /// Charges cpu_seconds of application compute on this process's host.
  /// Small charges (fault handling) are coalesced and flushed before the
  /// next blocking operation — exact, because nothing can observe this
  /// process between two of its own blocking points, and far cheaper than a
  /// fiber switch per 30 us trap.
  void compute(double cpu_seconds);
  void flush_cpu();

  sim::Time now() const;

  // --- adaptation support -----------------------------------------------------
  /// Bytes of the process image for migration/checkpoint purposes: the
  /// mapped shared region plus the private part (libckpt writes heap+stack).
  std::int64_t image_bytes() const;

  /// Number of pages this process currently has a (possibly stale) copy of.
  std::int64_t resident_pages() const { return engine_->resident_pages(); }
  /// Pages accessed (faulted or written) since the last fork.
  std::int64_t accessed_pages_since_fork() const { return accessed_since_fork_; }

 private:
  friend class DsmSystem;

  // --- task bodies under --backend real (DESIGN.md §14) -------------------
  /// Around a task body this process's protocol state is lent to waiting
  /// peers, which run its closures while the body computes (a request to a
  /// computing process is then answered at once, as a TreadMarks signal
  /// handler would).  run_task_body lends and reclaims; no-ops under sim.
  void lend();
  void reclaim();
  /// Takes the protocol state back for one DSM call a task body makes
  /// (read_range, write_range, barrier, lock_acquire, lock_release), and
  /// lends it again when the call returns.  Outside a task body, and under
  /// sim, it does nothing.
  class BodyCall {
   public:
    explicit BodyCall(DsmProcess& p) : p_(p.lent_ ? &p : nullptr) {
      if (p_ != nullptr) p_->reclaim();
    }
    ~BodyCall() {
      if (p_ != nullptr) p_->lend();
    }
    BodyCall(const BodyCall&) = delete;
    BodyCall& operator=(const BodyCall&) = delete;

   private:
    DsmProcess* p_;
  };

  // --- message plumbing -------------------------------------------------------
  /// Delivers one envelope: its segments are dispatched strictly in order,
  /// which is what piggybacked segments rely on (a HomeFlush staged before
  /// a BarrierArrive is applied before the arrival is processed).  Page
  /// replies produced while the envelope is processed are batched per
  /// requester and depart as one envelope (reply-side coalescing, the
  /// mirror of the batched multi-page fetch request).
  void handle(Envelope env);
  /// A segment that applies home flushes at this process.
  bool applies_home_flush(const Segment& seg) const;
  void handle_segment(Segment seg, Uid src, bool shared_envelope);
  void handle_page_request(const PageRequest& req, Uid src);
  void handle_diff_request(const DiffRequest& req, Uid src);
  void handle_home_flush(const HomeFlush& msg);
  // Adaptive placement (DESIGN.md §9), node side.
  void handle_home_move(const HomeMove& msg);

  // --- hierarchical control plane (DESIGN.md §12) ----------------------------
  /// The vehicle rule at the master's edge: this process's barrier arrival
  /// and GC ack reach the master as the star's plain segments — true for
  /// the master itself (a self-send) and for a leaf child of the master.
  /// Everyone else's arrival and ack climb the tree in TreeArrive /
  /// TreeAck.  A fact about the process's position, not a routing mode.
  bool arrives_plain() const;
  /// Fiber side: contributes this process's own barrier arrival (plus the
  /// master-homed flushes flush_homes held for the TreeArrive) to the
  /// subtree combine and forwards the merged arrival to the parent once
  /// every child subtree has reported.
  void tree_post_arrive(std::int32_t barrier_id, BarrierArrive arrival);
  /// Fiber side: contributes this process's own GcAck to the subtree's
  /// combined TreeAck.
  void tree_post_ack();
  /// Event side: a child subtree's combined arrival / ack landed here.
  void on_tree_arrive(TreeArrive msg);
  void on_child_tree_ack(const TreeAck& msg);
  /// Event side: a multicast from above.  Descendant routes are re-grouped
  /// by child and forwarded (after the constant interior combining charge)
  /// *before* the own route's segments are processed, so a terminate in the
  /// own route cannot strand the subtree.
  void handle_tree_multicast(TreeMulticast msg);
  /// Forwards the combined TreeArrive / TreeAck to the parent once complete
  /// (self contributed and every child subtree reported).  Leaves send
  /// immediately — their "combine" is just their own segment, and a leaf
  /// child of the master sends it as the plain BarrierArrive / GcAck;
  /// interior nodes charge cost().tree_combine first.
  void maybe_forward_tree_arrive();
  void maybe_forward_tree_ack();
  void deliver_reply(std::uint64_t cookie, Segment seg,
                     bool shared_envelope);
  /// Schedules the current envelope's batched page replies: one envelope
  /// per requester after the summed per-page service time.
  void flush_reply_batches();
  std::uint64_t new_cookie() { return next_cookie_++; }

  /// Instruction-queue plumbing for the wait/barrier loops.
  void push_instruction(Segment seg);
  Segment next_instruction(const char* tag);

  // --- fault machinery ---------------------------------------------------------
  /// The one fault path (DESIGN.md §7 rule 3), for a range of any length,
  /// GC validation, the home engine's pre-delta validation and the
  /// checkpoint sweep alike.  Charges one trap per page of `pages` that is
  /// invalid, bumping `faults` (null: no counter), then makes them all
  /// valid.  Every page one full copy resolves — no copy yet, or a stale
  /// copy under a home-based engine or on a single-writer page — joins one
  /// request envelope per source, and its copy must cover every pending
  /// notice; only multi-writer pages with a copy fetch diffs, one round per
  /// creator across all pages.  Returns the number of diff rounds.
  std::int64_t fault_in_pages(std::span<const PageId> pages,
                              util::StatsRegistry::Counter* faults);
  /// [first, last) as a page list, in a scratch vector reused across calls
  /// (valid until the next call).
  std::span<const PageId> page_run(PageId first, PageId last);
  /// Issues every fetch plan in parallel and collects the replies
  /// (TreadMarks overlaps these fetches).
  std::vector<DiffReply> fetch_diffs(
      const std::vector<protocol::DiffFetchPlan>& plans);
  /// Resolves the pending notices of multi-writer pages (all holding
  /// copies) with batched per-creator diff rounds: lazy twins captured
  /// first, one parallel fetch round, diffs applied in causal order.
  /// Returns the number of fetch rounds (one batched request per creator).
  std::int64_t resolve_multi_writer_pending(const std::vector<PageId>& pages);
  /// Home-based engines: pushes the finished interval's diffs to their
  /// homes (one batched message per home, issued in parallel) and blocks on
  /// the acks.  Must run after finish_interval and before the interval is
  /// announced to the master.  No-op for archive-based engines.  The
  /// master-homed batch is piggybacked instead: staged on the master
  /// channel with cookie 0, ahead of the announcement, and never acked —
  /// except at a barrier whose arrival climbs the tree (!arrives_plain()):
  /// it is then held in tree_flushes_pending_ and rides inside the
  /// TreeArrive (ordered before the arrivals, applied first at the master),
  /// so ack-before-announce survives routing through interior nodes.
  void flush_homes(bool at_barrier = false);
  /// Validates pages the engine requires (new homes), then applies the
  /// delta as owner hints.
  void apply_owner_hints(const OwnerDelta& delta);

  // --- GC ------------------------------------------------------------------------
  /// Applies a GC commit (the release or fork carrying it), then the
  /// segments held since the prepare.
  void commit_gc(const OwnerDelta& delta);

  /// Validates the pages this process will own after GC through
  /// fault_in_pages.
  void gc_validate(const OwnerDelta& owners);
  /// The GcPrepare instruction, in barrier() or Tmk_wait: integrates,
  /// validates, and acks (the master with a self-send, everyone else
  /// through the ack combine).
  void handle_gc_prepare(const GcPrepare& gp);

  // --- checked-build protection sync (DESIGN.md §14) -----------------------
  /// Brings the protected app view up to date with engine state at a choke
  /// point: kNone for an invalid page, kWrite for a valid one.  Every page
  /// is re-derived, with one set_access per run of consecutive pages
  /// wanting the same protection; set_access skips the pages already
  /// there.  No-op unless the heap is guarded (guarded_).
  void heap_sync();
  /// First word of `page` through the protocol view, for ANOW_TRACE_PAGE
  /// lines: in a guarded heap a page the engine just made valid stays
  /// PROT_NONE in the app view until the next heap_sync.
  std::int64_t traced_word(PageId page) const;

  // --- slave main loop --------------------------------------------------------------
  void slave_main();
  void run_task(const ForkMsg& fork);
  void apply_team(const std::vector<std::pair<Uid, Pid>>& team);

  DsmSystem& system_;
  Uid uid_;
  Pid pid_ = -1;
  int team_size_ = 1;
  sim::HostId host_;
  sim::Fiber* fiber_ = nullptr;
  bool alive_ = true;
  bool announce_join_ = false;  // joiner: run connection setup + JoinReady

  /// The cluster's TraceRecorder, cached at construction (null = off).
  obs::TraceRecorder* tracer_ = nullptr;
  /// Correctness-analysis observers, cached at construction exactly like
  /// the recorder (null = off; every hook is a pointer test, DESIGN.md
  /// §13).
  analysis::RaceDetector* race_ = nullptr;
  analysis::ProtocolChecker* checker_ = nullptr;
  /// Hot-path counters, interned once here: the fault/barrier/lock/flush
  /// paths bump these per event and must not pay a map lookup each time.
  util::StatsRegistry::Counter* ctr_faults_read_ = nullptr;
  util::StatsRegistry::Counter* ctr_faults_write_ = nullptr;
  util::StatsRegistry::Counter* ctr_page_fetches_ = nullptr;
  util::StatsRegistry::Counter* ctr_page_forwards_ = nullptr;
  util::StatsRegistry::Counter* ctr_consistency_bytes_ = nullptr;
  util::StatsRegistry::Counter* ctr_barrier_waits_ = nullptr;
  util::StatsRegistry::Counter* ctr_lock_acquires_ = nullptr;
  util::StatsRegistry::Counter* ctr_home_flushes_ = nullptr;
  util::StatsRegistry::Counter* ctr_home_flushes_pb_ = nullptr;
  util::StatsRegistry::Counter* ctr_gc_validation_faults_ = nullptr;
  util::StatsRegistry::Counter* ctr_home_validation_faults_ = nullptr;

  /// The shared-region storage behind the execution seam (DESIGN.md §14):
  /// SimHeap (one read-write anonymous mapping) unless guarded_, then
  /// RealHeap (dual-mapped memfd pages whose app view is protected per
  /// page).
  std::unique_ptr<exec::ProcessHeap> heap_;
  /// True under --backend real; skips the virtual-time cost model.
  bool real_ = false;
  /// The pthread runtime under --backend real, null under sim.
  exec::RealRuntime* real_rt_ = nullptr;
  /// The task body runs with the protocol state lent (see lend()).  Written
  /// only while this process holds its flag, so a closure sees true exactly
  /// when it runs on a helper's thread.
  bool lent_ = false;
  /// Page requests a helper left for this process's own thread: the page
  /// was write-declared in the current interval, so the body may be
  /// storing to it.  Served when the body's next DSM call reclaims.
  std::vector<std::pair<PageRequest, Uid>> deferred_requests_;
  util::StatsRegistry::Counter* ctr_deferred_serves_ = nullptr;
  /// Between handling a GcPrepare and applying its commit.  Under --backend
  /// real a writer that already applied the commit can flush to this node
  /// before the commit is drained here: such a flush (and what follows it
  /// in its envelope) waits in held_ until commit_gc.  Under sim the commit
  /// arrives first unless a tree hop is made slower than the writer's whole
  /// construct (DESIGN.md §14).
  bool gc_prepared_ = false;
  struct HeldSegments {
    Uid src = kNoUid;
    bool shared_envelope = false;
    std::vector<Segment> segments;
  };
  std::vector<HeldSegments> held_;
  util::StatsRegistry::Counter* ctr_held_flushes_ = nullptr;
  /// --backend real with the protocol checker installed (checked builds):
  /// the app view is protected and heap_sync keeps it in step.
  bool guarded_ = false;
  std::unique_ptr<protocol::ConsistencyEngine> engine_;
  /// Outbound transport: all sends depart through here (DESIGN.md §7).
  Channel channel_;

  std::int64_t accessed_since_fork_ = 0;
  /// Coalesced small CPU charges awaiting flush_cpu().
  double deferred_cpu_ = 0.0;

  /// fault_in_pages' working lists, kept across calls so that a fault
  /// allocates none of them once they have grown.
  struct CopyFetch {
    Uid src;
    PageId page;
    std::uint64_t cookie;
    bool resolves;  // the fetch resolves pending notices
  };
  std::vector<PageId> fault_run_;  // page_run's list
  std::vector<PageId> fault_need_;
  std::vector<CopyFetch> fault_copies_;
  std::vector<PageId> fault_diff_pages_;

  // Reply rendezvous: flat (the handful of outstanding RPCs of one fiber),
  // unique_ptr entries so WaitPoint addresses stay stable across growth.
  struct PendingReply {
    std::uint64_t cookie = 0;
    sim::WaitPoint wp;
    Segment seg;
    bool ready = false;
    /// The reply rode a multi-segment envelope (reply-side coalescing), so
    /// it carried no envelope header of its own — the requester's
    /// consistency-traffic accounting charges payload only.
    bool shared_envelope = false;
  };
  PendingReply& register_reply(std::uint64_t cookie);
  PendingReply* find_reply(std::uint64_t cookie);
  void erase_reply(std::uint64_t cookie);
  std::vector<std::unique_ptr<PendingReply>> pending_replies_;
  std::uint64_t next_cookie_ = 1;

  /// Per-requester page replies accumulated while one inbound envelope is
  /// processed (reply-side coalescing); flushed at the end of handle().
  struct ReplyBatch {
    Uid requester = kNoUid;
    std::vector<Segment> replies;
  };
  std::vector<ReplyBatch> reply_batches_;

  // Instruction queue (fork / terminate / gc-prepare / barrier-release).
  std::deque<Segment> instr_q_;
  sim::WaitPoint instr_wp_;
  bool instr_waiting_ = false;

  // Lock grant rendezvous (one outstanding acquire per process).
  sim::WaitPoint lock_wp_;
  std::vector<Interval> lock_grant_intervals_;
  bool lock_granted_ = false;

  // Tree combining state (DESIGN.md §12): at most one barrier and one GC
  // round are in flight at a time, so one accumulator each suffices.  A
  // child subtree's contribution may land (event context) before the local
  // fiber reaches the collective, and vice versa — whichever contribution
  // completes the set triggers the upward forward.
  bool tree_arrive_open_ = false;
  std::int32_t tree_barrier_id_ = 0;
  bool tree_self_arrived_ = false;
  int tree_child_arrives_ = 0;  // child TreeArrive envelopes received
  std::vector<HomeFlush> tree_flushes_;
  std::vector<BarrierArrive> tree_arrivals_;
  bool tree_ack_open_ = false;
  bool tree_self_acked_ = false;
  int tree_child_acks_ = 0;  // child TreeAck envelopes received
  std::int32_t tree_ack_count_ = 0;
  /// Master-homed piggybacked flushes flush_homes held for the TreeArrive
  /// on the barrier path; tree_post_arrive moves them into the combine.
  std::vector<HomeFlush> tree_flushes_pending_;
};

}  // namespace anow::dsm
