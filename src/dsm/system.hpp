// DsmSystem — the TreadMarks-style runtime: process/team management,
// fork-join primitives, barrier/lock orchestration, and the shared heap
// allocator.
//
// The consistency manager itself (interval log, delivery matrix, owner map,
// GC policy) lives in the master-side ConsistencyEngine (dsm/protocol/);
// this class drives it only from master handlers / the master fiber,
// mirroring TreadMarks' master-centric barrier and our master-managed locks
// (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/protocol_checker.hpp"
#include "analysis/race_detector.hpp"
#include "dsm/channel.hpp"
#include "dsm/config.hpp"
#include "dsm/msg.hpp"
#include "dsm/placement/access_monitor.hpp"
#include "dsm/placement/policy.hpp"
#include "dsm/process.hpp"
#include "dsm/protocol/engine.hpp"
#include "dsm/topology/topology.hpp"
#include "dsm/types.hpp"
#include "exec/runtime.hpp"
#include "sim/cluster.hpp"

namespace anow::dsm {

class DsmSystem {
 public:
  /// A parallel task: the code the compiler outlined from a parallel
  /// construct.  Registered identically on all processes (same binary).
  using Task = std::function<void(DsmProcess&, const std::vector<std::uint8_t>&)>;

  DsmSystem(sim::Cluster& cluster, DsmConfig config);
  ~DsmSystem();

  sim::Cluster& cluster() { return cluster_; }
  const DsmConfig& config() const { return config_; }

  /// The execution backend behind the seam (DESIGN.md §14).  Under
  /// --backend sim this wraps the cluster's simulator; under --backend real
  /// it is the pthread runtime (available only from start() on, since its
  /// size is the team size).
  exec::Runtime& rt() { return *rt_; }
  const exec::Runtime& rt() const { return *rt_; }

  /// Registers a task body; returns the task id to pass to fork().  Must be
  /// called before start(), in the same order everywhere (single binary).
  std::int32_t register_task(std::string name, Task task);

  /// Creates the master and nprocs-1 slaves on hosts 0..nprocs-1 (hosts are
  /// added to the cluster as needed) and starts the slave fibers.
  void start(int nprocs);

  /// Spawns the master program and drives the simulation to completion.
  /// After master_main returns, all slaves are terminated.
  void run(std::function<void(DsmProcess&)> master_main);

  // --- master-side API (master fiber context) --------------------------------
  /// Bump allocation out of the shared region.  Master only; allocations are
  /// page-aligned when size >= one page (TreadMarks' Tmk_malloc behaviour).
  GAddr shared_malloc(std::size_t bytes);
  GAddr shared_malloc_aligned(std::size_t bytes, std::size_t align);
  std::int64_t heap_used() const { return heap_brk_; }

  /// Tmk_fork + local execution + Tmk_join: broadcasts the task to the team,
  /// runs it on the master too, and completes the join barrier.  The
  /// adaptation hook (if any) runs first — at this moment every slave is
  /// parked in Tmk_wait, which is exactly the paper's adaptation point.
  void run_parallel(std::int32_t task_id, std::vector<std::uint8_t> args);

  /// The pre-fork adaptation hook installed by the adaptive runtime.
  void set_fork_hook(std::function<void()> hook) { fork_hook_ = std::move(hook); }

  /// Forces a garbage collection at the next fork or barrier.
  void request_gc() { engine_->request_gc(); }

  /// Runs a full GC cycle right now (master fiber, slaves parked in
  /// Tmk_wait): prepare/validate/ack; the commit rides on the next ForkMsg.
  /// Used by the adaptive layer before joins/leaves (§4.1/§4.2).
  void gc_at_fork();

  // --- team / world management (used by the adaptive layer) -------------------
  int world_size() const { return static_cast<int>(team_.size()); }
  const std::vector<Uid>& team() const { return team_; }  // by pid order
  DsmProcess& process(Uid uid);
  bool is_alive(Uid uid) const;
  Uid uid_of_pid(Pid pid) const;

  /// Creates a new process on the given host and starts its fiber; it sets
  /// up connections and announces JoinReady to the master.  Not yet a team
  /// member — adopt at the next fork.
  Uid spawn_process(sim::HostId host);

  /// Joiners that have completed connection setup and await adoption.
  std::vector<Uid> take_ready_joiners();

  /// Team mutation, only between run_parallel calls (master fiber):
  void adopt(Uid uid);
  void expel(Uid uid);

  /// Moves a process to another host (urgent-leave migration).  Only the
  /// placement changes; the transfer/freeze choreography is the adaptive
  /// layer's job.
  void move_process(Uid uid, sim::HostId new_host);

  /// Owner map access for the adaptive layer (leave protocol, joins): the
  /// master engine's whole owner map (DESIGN.md §8).
  const std::vector<Uid>& owner_by_page() const {
    return engine_->owner_by_page();
  }
  /// Pages currently owned by `uid`.
  std::vector<PageId> pages_owned_by(Uid uid) const {
    return engine_->pages_owned_by(uid);
  }
  /// All uids' page lists in one owner-map scan (index = uid); use when
  /// several processes are inspected at once (multi-leave adaptation
  /// points) instead of one pages_owned_by scan per uid.
  std::vector<std::vector<PageId>> pages_owned_by_all() const {
    return engine_->pages_owned_by_all();
  }
  /// Records an ownership change to broadcast with the next fork.
  void queue_owner_update(PageId page, Uid owner);

  /// Sends the joiner the full page-location map (paper §4.1: "a message
  /// describing where an up-to-date copy of every shared memory page is
  /// located").  Master fiber context.
  void send_page_map(Uid joiner);

  /// Overwrites the master's copy of the shared region (checkpoint
  /// recovery).  Only valid before any fork has run; ownership of every
  /// page returns to the master.
  void restore_master_region(const std::vector<std::uint8_t>& region,
                             std::int64_t heap_brk);

  /// Per-page protocol; must be set before start().
  void set_protocol_range(GAddr addr, std::size_t len, Protocol protocol);
  Protocol protocol_of(PageId page) const { return protocol_[page]; }
  const std::vector<Protocol>& protocol_table() const { return protocol_; }

  PageId num_pages() const { return static_cast<PageId>(protocol_.size()); }

  // --- checkpoint support -------------------------------------------------------
  /// Master collects every page it lacks (paper §4.3 step 2).  Returns the
  /// number of pages fetched.
  std::int64_t master_collect_all_pages();

  util::StatsRegistry& stats();

  /// Page-payload buffer recycling (DESIGN.md §10): PageReply::data buffers
  /// cycle serve → install → back here instead of being allocated per
  /// fetch.  Buffers are always exactly kPageSize (the wire accounting
  /// depends only on that size, so recycling changes no byte counts).
  std::vector<std::uint8_t> acquire_page_buffer();
  void release_page_buffer(std::vector<std::uint8_t> buf);

  /// Text name of a task (diagnostics).
  const std::string& task_name(std::int32_t id) const;

  /// Invokes a registered task body (used by the fork-join machinery).
  void run_task_body(std::int32_t id, DsmProcess& proc,
                     const std::vector<std::uint8_t>& args);

  /// The outbound Channel of one process (the master's doubles as the
  /// system's own, since master handlers send as uid 0).  All protocol
  /// traffic departs through a Channel — there is no raw send.
  Channel& channel(Uid from);

  /// The directory shard layout fixed at start() (1 shard unless
  /// DsmConfig::dir_shards > 1; clamped to nprocs).
  const protocol::ShardMap& shard_map() const { return shard_map_; }

  /// The control-plane tree over the live team (DESIGN.md §12), rebuilt at
  /// start() and after every adopt/expel.  While the fanout covers the
  /// whole team (the unbounded default) every slave is a leaf child of the
  /// master, and the tree's collectives are the master-centric star.
  const topology::Topology& topology() const { return topology_; }

  /// Directory attachment parameters for a process's node-side engine:
  /// seeded page set and initial owner hints.
  protocol::NodeDirInit node_dir_init_for(Uid uid) const;

  /// The LRC race detector (DESIGN.md §13); null unless
  /// DsmConfig::race_check != kOff.  Processes cache this pointer at
  /// construction, exactly like the TraceRecorder.
  analysis::RaceDetector* race_detector() { return race_.get(); }

  /// The protocol-invariant sanitizer; null unless the build was configured
  /// with -DANOW_PROTOCOL_CHECKS=ON (DESIGN.md §13).
  analysis::ProtocolChecker* protocol_checker() { return checker_.get(); }

 private:
  friend class DsmProcess;

  // --- plumbing ---------------------------------------------------------------
  /// Channel sink: per-segment-kind traffic accounting, then the network.
  /// Only Channels call this; everything else stages/sends segments.
  void send_envelope(Uid to, Envelope env);
  sim::HostId host_of(Uid uid) const;

  // --- consistency-manager orchestration (master handlers) --------------------
  void on_barrier_arrive(const BarrierArrive& msg);
  void on_lock_acquire(const LockAcquireReq& msg);
  void on_lock_release(const LockReleaseMsg& msg);
  void on_gc_ack(const GcAck& msg);
  /// A combined GC ack from a master-child subtree: count folded acks at
  /// once.  The commit still waits for the exact team total, so the
  /// GcAck-as-adoption-barrier semantics are unchanged.
  void on_tree_ack(const TreeAck& msg);
  void on_join_ready(const JoinReady& msg);

  void barrier_complete();
  void release_barrier();
  // --- adaptive placement (DESIGN.md §9; all no-ops unless
  // placement_adaptive_, so static runs are byte-identical to the
  // pre-placement protocol) ---------------------------------------------
  /// Rolls the monitoring window at a barrier and, when the policy wants
  /// moves, arms them and requests a GC so they ride this very barrier's
  /// commit round.
  void evaluate_placement();
  /// Feeds a logged interval's write notices to the monitor.
  void placement_note_interval(const Interval& interval);
  /// Stages the armed re-homes into the engine's pending commit delta, so
  /// they ride the GC round about to be assembled.
  void stage_placement_moves();
  /// One HomeMove adoption notice per new home, staged on the master's
  /// channel so it rides that node's GcPrepare (the GcAcks that gate the
  /// commit double as the adoption barrier).
  void stage_home_move_notices();
  /// Keeps the policy's owner shadow exact across every delta the master
  /// commits, and disarms the round's moves after a GC.
  void placement_note_gc_commit(const OwnerDelta& delta);
  /// Closes and logs the master's open sequential-section interval (fork
  /// and gc_at_fork are release points for the master).  No-op when every
  /// master write was exclusivity-covered (the unsharded layout pre-fork).
  void close_master_interval();

  /// GC at a barrier: computes the owner delta and sends GcPrepare to
  /// everyone; the release is sent once all acks are in (on_gc_ack).
  void begin_gc_at_barrier();

  /// Recomputes the control-plane tree from the current team (after every
  /// team mutation).  Rebuilding is what "promotes" a departed interior
  /// node's children: the heap layout over the compacted pid order
  /// reattaches every orphaned subtree.
  void rebuild_topology();
  /// The master's only fan-out (DESIGN.md §12): fork, barrier release, GC
  /// prepare, terminate.  A leaf child of the master (or a joiner outside
  /// the tree) gets one plain send per segment, in input order, after
  /// whatever is staged for it — the star's envelope.
  /// Destinations below an interior child are wrapped into per-destination
  /// routes — each prefixed with everything staged on the master channel
  /// for that destination, preserving the no-overtaking rule — grouped by
  /// master child, one TreeMulticast envelope per child.  Destinations must
  /// not include the master.
  void fan_out_instructions(std::vector<std::pair<Uid, Segment>> msgs);

  sim::Cluster& cluster_;
  DsmConfig config_;

  /// The execution seam (DESIGN.md §14).  kSim: constructed immediately.
  /// kReal: constructed in start() (needs the team size for its ring
  /// matrix); every pre-start call site is sim-only or master-local.
  std::unique_ptr<exec::Runtime> rt_;

  std::vector<std::string> task_names_;
  std::vector<Task> tasks_;

  /// All processes ever created, indexed by uid (uids are dense and never
  /// reused; terminated processes stay, marked !alive).
  std::vector<std::unique_ptr<DsmProcess>> processes_;
  std::vector<Uid> team_;  // index = pid
  Uid next_uid_ = 0;
  bool started_ = false;

  // Heap.
  std::int64_t heap_brk_ = 0;

  // Page metadata (globally agreed).
  std::vector<Protocol> protocol_;

  /// Master-side consistency engine: interval log, delivery matrix, owner
  /// map, last-writer tracking, GC policy (DESIGN.md §5).
  std::unique_ptr<protocol::ConsistencyEngine> engine_;

  /// Adaptive placement (DESIGN.md §9): write monitoring and the re-home
  /// policy.  placement_adaptive_ gates every hook; it is set only for
  /// --placement adaptive under the home engine, the one engine with page
  /// homes to move.
  bool placement_adaptive_ = false;
  placement::AccessMonitor monitor_;
  placement::PlacementPolicy policy_;
  /// The policy's re-homes, armed at a barrier for the next GC round.
  OwnerDelta placement_moves_;
  /// The subset of placement_moves_ the engine staged into the current GC
  /// round's pending delta (the new homes get HomeMove notices).
  OwnerDelta gc_home_moves_;

  /// The cluster's TraceRecorder, cached at construction (null = tracing
  /// off; every hook is a pointer test, DESIGN.md §11).
  obs::TraceRecorder* tracer_ = nullptr;

  /// Correctness-analysis observers (DESIGN.md §13).  Both are pure
  /// observers behind null-pointer-test hooks: race_ exists only when
  /// config_.race_check != kOff, checker_ only under ANOW_PROTOCOL_CHECKS.
  std::unique_ptr<analysis::RaceDetector> race_;
  std::unique_ptr<analysis::ProtocolChecker> checker_;

  /// Cached per-segment-kind traffic counters (send_envelope is the
  /// hottest accounting site; no map lookups there).
  util::StatsRegistry::Counter* seg_msgs_[kNumSegmentKinds] = {};
  util::StatsRegistry::Counter* seg_bytes_[kNumSegmentKinds] = {};
  util::StatsRegistry::Counter* ctr_segments_ = nullptr;
  util::StatsRegistry::Counter* ctr_consistency_bytes_ = nullptr;
  /// Owner-lookup segments (PageRequest) by destination: the
  /// master-inbound count is the first-touch bottleneck the sharded initial
  /// distribution exists to shrink (DESIGN.md §8).
  util::StatsRegistry::Counter* ctr_lookups_master_ = nullptr;
  util::StatsRegistry::Counter* ctr_lookups_shard_ = nullptr;
  /// Control-plane segments through the master per direction (DESIGN.md
  /// §12): the serialization the tree topology must drop from O(N) to
  /// O(K·log_K N) per collective.  Counted per top-level segment — a
  /// combined tree segment counts once, which is exactly the relief being
  /// measured.
  util::StatsRegistry::Counter* ctr_ctrl_master_in_ = nullptr;
  util::StatsRegistry::Counter* ctr_ctrl_master_out_ = nullptr;

  /// Directory shard layout (fixed at start) and the first uid that is not
  /// an initial team member (joiners are never shard holders).
  protocol::ShardMap shard_map_;
  Uid initial_team_end_ = 0;

  /// Control-plane tree geometry (DESIGN.md §12), a pure function of
  /// (team_, config_.fanout).
  topology::Topology topology_;

  // Master: barrier state.
  std::int32_t barrier_id_ = -1;
  std::vector<Uid> barrier_arrived_;
  std::vector<Interval> pending_intervals_;  // this epoch, lamport unset
  std::int64_t max_consistency_bytes_ = 0;

  // Master: GC choreography (the protocol data lives in the engine).
  bool gc_in_progress_ = false;
  int gc_acks_outstanding_ = 0;
  OwnerDelta gc_delta_;  // in-flight delta, staged for GcPrepare messages
  enum class GcResume { kNone, kBarrierRelease, kForkHook } gc_resume_ =
      GcResume::kNone;
  sim::WaitPoint gc_fork_wp_;  // master fiber waits here in gc_at_fork()

  // Master: locks, flat by lock id (application lock ids are small ints).
  struct LockState {
    Uid holder = kNoUid;
    std::deque<Uid> queue;
  };
  LockState& lock_state(std::int32_t lock_id);
  std::vector<LockState> locks_;

  // Joiners ready for adoption.
  std::vector<Uid> ready_joiners_;

  /// Free list for acquire/release_page_buffer, bounded by the number of
  /// in-flight page replies (capped as a backstop).  The mutex exists for
  /// the real backend, where serve and install run on different threads;
  /// uncontended under the simulator.
  std::mutex page_buf_mu_;
  std::vector<std::vector<std::uint8_t>> page_buf_pool_;

  std::function<void()> fork_hook_;
};

}  // namespace anow::dsm
