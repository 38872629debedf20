#include "dsm/system.hpp"

#include <algorithm>
#include <fstream>

#include "exec/real_runtime.hpp"
#include "exec/sim_runtime.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace anow::dsm {

DsmSystem::DsmSystem(sim::Cluster& cluster, DsmConfig config)
    : cluster_(cluster), config_(config) {
  ANOW_CHECK(config_.heap_bytes > 0);
  ANOW_CHECK_MSG(config_.heap_bytes % static_cast<std::int64_t>(kPageSize) ==
                     0,
                 "heap_bytes must be page aligned");
  ANOW_CHECK_MSG(config_.dir_shards >= 1,
                 "dir_shards must be >= 1, got " << config_.dir_shards);
  ANOW_CHECK_MSG(config_.fanout >= 1,
                 "fanout must be >= 1, got " << config_.fanout);
  if (config_.backend == BackendKind::kReal) {
    // Simulator-only machinery is rejected up front rather than silently
    // producing wrong numbers: the tracer and race detector timestamp with
    // virtual time (DESIGN.md §14).
    ANOW_CHECK_MSG(config_.trace_file.empty(),
                   "--trace requires the simulator clock; rerun with "
                   "--backend sim");
    ANOW_CHECK_MSG(config_.race_check == RaceCheckMode::kOff,
                   "--race-check rides the simulator's interval machinery; "
                   "rerun with --backend sim");
    ANOW_CHECK_MSG(cluster_.trace() == nullptr,
                   "tracing is not supported under --backend real");
  } else {
    rt_ = std::make_unique<exec::SimRuntime>(cluster_);
  }
  const auto pages =
      static_cast<std::size_t>(config_.heap_bytes / kPageSize);
  protocol_.assign(pages, config_.default_protocol);
  engine_ = protocol::make_engine(config_);
  engine_->attach_master(static_cast<PageId>(pages), cluster_.stats());
  auto& stats = cluster_.stats();
  for (int k = 0; k < kNumSegmentKinds; ++k) {
    const std::string name = segment_kind_name(static_cast<SegmentKind>(k));
    seg_msgs_[k] = stats.handle("dsm.seg." + name + ".msgs");
    seg_bytes_[k] = stats.handle("dsm.seg." + name + ".bytes");
  }
  ctr_segments_ = stats.handle("dsm.segments");
  ctr_consistency_bytes_ = stats.handle("dsm.consistency_traffic_bytes");
  ctr_lookups_master_ = stats.handle("dsm.owner_lookups.master_inbound");
  ctr_lookups_shard_ = stats.handle("dsm.owner_lookups.shard_inbound");
  ctr_ctrl_master_in_ = stats.handle("dsm.ctrl.master_inbound");
  ctr_ctrl_master_out_ = stats.handle("dsm.ctrl.master_outbound");
  // Tracing (DESIGN.md §11): a --trace/ANOW_TRACE path requests full event
  // recording; otherwise the recorder (if any) was enabled by the harness.
  // Either way processes cache the pointer at construction, so the recorder
  // must exist before start().
  if (!config_.trace_file.empty() && cluster_.trace() == nullptr) {
    obs::TraceOptions topts;
    topts.record_events = true;
    cluster_.enable_trace(topts);
  }
  tracer_ = cluster_.trace();
  // Correctness-analysis observers (DESIGN.md §13): same lifecycle as the
  // recorder — constructed before start() so processes can cache raw
  // pointers, pure observation afterwards.
  if (config_.race_check != RaceCheckMode::kOff) {
    race_ = std::make_unique<analysis::RaceDetector>();
  }
#ifdef ANOW_PROTOCOL_CHECKS
  checker_ = std::make_unique<analysis::ProtocolChecker>();
  engine_->set_checker(checker_.get());
#endif
  shard_map_ = protocol::ShardMap(num_pages(), 1);
  // Only the home engine has page homes to move: LRC's GC already hands
  // each page to its last writer, so under lrc the policy has nothing to
  // decide and adaptive runs take the static path.  Static runs never
  // execute placement code — not even the per-page table allocations here.
  placement_adaptive_ = config_.placement == PlacementMode::kAdaptive &&
                        config_.engine == EngineKind::kHomeLrc;
  if (placement_adaptive_) {
    monitor_.attach(num_pages());
    policy_.configure(shard_map_);
  }
}

DsmSystem::~DsmSystem() = default;

std::int32_t DsmSystem::register_task(std::string name, Task task) {
  ANOW_CHECK_MSG(!started_, "register_task after start()");
  task_names_.push_back(std::move(name));
  tasks_.push_back(std::move(task));
  return static_cast<std::int32_t>(tasks_.size()) - 1;
}

const std::string& DsmSystem::task_name(std::int32_t id) const {
  ANOW_CHECK(id >= 0 && id < static_cast<std::int32_t>(task_names_.size()));
  return task_names_[id];
}

void DsmSystem::run_task_body(std::int32_t id, DsmProcess& proc,
                              const std::vector<std::uint8_t>& args) {
  ANOW_CHECK(id >= 0 && id < static_cast<std::int32_t>(tasks_.size()));
  proc.lend();
  tasks_[id](proc, args);
  proc.reclaim();
}

void DsmSystem::set_protocol_range(GAddr addr, std::size_t len,
                                   Protocol protocol) {
  ANOW_CHECK_MSG(!started_, "set_protocol_range after start()");
  const PageId first = page_of(addr);
  const PageId last = page_end(addr, len);
  ANOW_CHECK(last <= num_pages());
  for (PageId p = first; p < last; ++p) protocol_[p] = protocol;
}

// ---------------------------------------------------------------------------
// Heap
// ---------------------------------------------------------------------------

GAddr DsmSystem::shared_malloc(std::size_t bytes) {
  return shared_malloc_aligned(bytes,
                               bytes >= kPageSize ? kPageSize : kWordSize);
}

GAddr DsmSystem::shared_malloc_aligned(std::size_t bytes, std::size_t align) {
  ANOW_CHECK(align > 0 && (align & (align - 1)) == 0);
  ANOW_CHECK(bytes > 0);
  const std::int64_t aligned =
      (heap_brk_ + static_cast<std::int64_t>(align) - 1) &
      ~static_cast<std::int64_t>(align - 1);
  ANOW_CHECK_MSG(aligned + static_cast<std::int64_t>(bytes) <=
                     config_.heap_bytes,
                 "shared heap exhausted: need "
                     << bytes << " at brk " << aligned << " of "
                     << config_.heap_bytes);
  heap_brk_ = aligned + static_cast<std::int64_t>(bytes);
  return static_cast<GAddr>(aligned);
}

// ---------------------------------------------------------------------------
// Process / team management
// ---------------------------------------------------------------------------

protocol::NodeDirInit DsmSystem::node_dir_init_for(Uid uid) const {
  protocol::NodeDirInit init;
  if (!shard_map_.sharded()) {
    // The historical layout: the master is seeded with the whole (zeroed)
    // heap; everyone else faults in on demand with hints at the master.
    if (uid == kMasterUid) init.seed_shard = protocol::NodeDirInit::kSeedAll;
    return init;
  }
  if (uid >= initial_team_end_) {
    // Joiners are never shard holders and keep master-pointing hints; the
    // PageMapMsg sent at adoption installs the real owners.
    return init;
  }
  init.hint_map = &shard_map_;
  if (uid < static_cast<Uid>(shard_map_.shards)) {
    init.seed_shard = static_cast<int>(uid);
  }
  return init;
}

void DsmSystem::start(int nprocs) {
  ANOW_CHECK_MSG(!started_, "start() called twice");
  ANOW_CHECK(nprocs >= 1);
  started_ = true;
  const int shards = std::min(config_.dir_shards, nprocs);
  shard_map_ = protocol::ShardMap(num_pages(), shards);
  engine_->configure_directory(shard_map_);
  if (placement_adaptive_) policy_.configure(shard_map_);
  initial_team_end_ = static_cast<Uid>(nprocs);
  while (cluster_.num_hosts() < nprocs) cluster_.add_host();
  if (config_.backend == BackendKind::kReal) {
    // The ring matrix is sized by the team, so the real runtime waits for
    // start().
    rt_ = std::make_unique<exec::RealRuntime>(nprocs, cluster_.stats(),
                                              cluster_.cost().header_bytes);
  }
  for (int i = 0; i < nprocs; ++i) {
    const Uid uid = next_uid_++;
    engine_->note_uid(uid);
    auto proc = std::make_unique<DsmProcess>(*this, uid, i);
    proc->pid_ = i;
    proc->team_size_ = nprocs;
    processes_.push_back(std::move(proc));
    team_.push_back(uid);
  }
  rebuild_topology();
  // Slave contexts; the master's is created in run().  The simulator spawns
  // fibers now, the real backend holds the bodies until run() launches the
  // threads (so the setup phase never races a live process).
  for (int i = 1; i < nprocs; ++i) {
    DsmProcess* p = processes_[team_[i]].get();
    p->fiber_ = rt_->start_process(p->uid(),
                                   "slave-" + std::to_string(p->uid()),
                                   [p] { p->slave_main(); });
  }
}

void DsmSystem::run(std::function<void(DsmProcess&)> master_main) {
  ANOW_CHECK_MSG(started_, "run() before start()");
  DsmProcess* master = processes_.at(kMasterUid).get();
  auto master_body = [this, master, main = std::move(master_main)] {
    main(*master);
    // Shut down every live process in uid order — team members and joiners
    // that were spawned but never adopted (not tree members, so their
    // terminates go plain).  The fan-out delivers any join-barrier release
    // still staged for a target ahead of its terminate, so a slave parked
    // in its final barrier gets [release, terminate] in one envelope or
    // route.
    std::vector<std::pair<Uid, Segment>> terminates;
    for (auto& proc : processes_) {
      if (proc->uid() == kMasterUid || !proc->alive()) continue;
      terminates.emplace_back(proc->uid(), TerminateMsg{});
    }
    fan_out_instructions(std::move(terminates));
    master->alive_ = false;
  };
  if (rt_->real()) {
    master->heap_sync();
    rt_->run(std::move(master_body));
  } else {
    master->fiber_ =
        rt_->start_process(kMasterUid, "master", std::move(master_body));
    cluster_.sim().run();
    ANOW_CHECK_MSG(cluster_.sim().all_fibers_done(),
                   "deadlock: fibers still parked:\n"
                       << cluster_.sim().parked_fiber_report());
  }
  if (race_ != nullptr) {
    race_->finalize(cluster_.stats());
  }
  if (tracer_ != nullptr && !tracer_->finalized()) {
    tracer_->finalize();
    if (!config_.trace_file.empty()) {
      if (race_ != nullptr) {
        // Embed the structured race section next to traceEvents: splice
        // a "races" key into the exporter's top-level object (DESIGN.md
        // §13; check_trace.py tolerates extra top-level keys).
        std::string doc = tracer_->chrome_trace_json();
        const std::size_t close = doc.rfind('}');
        ANOW_CHECK(close != std::string::npos);
        doc.insert(close, ",\"races\":" + race_->races_json());
        std::ofstream f(config_.trace_file, std::ios::trunc);
        ANOW_CHECK_MSG(f.good(), "cannot open " << config_.trace_file);
        f << doc << "\n";
        ANOW_CHECK_MSG(f.good(), "write failed: " << config_.trace_file);
      } else {
        tracer_->write_chrome_trace(config_.trace_file);
      }
    }
  }
}

DsmProcess& DsmSystem::process(Uid uid) {
  ANOW_CHECK_MSG(uid >= 0 && uid < static_cast<Uid>(processes_.size()),
                 "no process with uid " << uid);
  return *processes_[uid];
}

bool DsmSystem::is_alive(Uid uid) const {
  return uid >= 0 && uid < static_cast<Uid>(processes_.size()) &&
         processes_[uid]->alive();
}

Uid DsmSystem::uid_of_pid(Pid pid) const {
  ANOW_CHECK(pid >= 0 && pid < static_cast<Pid>(team_.size()));
  return team_[pid];
}

Uid DsmSystem::spawn_process(sim::HostId host) {
  ANOW_CHECK_MSG(!rt_->real(),
                 "spawn_process (joins) is not supported under "
                 "--backend real");
  ANOW_CHECK(host >= 0 && host < cluster_.num_hosts());
  const Uid uid = next_uid_++;
  engine_->note_uid(uid);
  auto proc = std::make_unique<DsmProcess>(*this, uid, host);
  proc->announce_join_ = true;
  DsmProcess* p = proc.get();
  processes_.push_back(std::move(proc));
  p->fiber_ = rt_->start_process(uid, "slave-" + std::to_string(uid),
                                 [p] { p->slave_main(); });
  return uid;
}

std::vector<Uid> DsmSystem::take_ready_joiners() {
  std::vector<Uid> out;
  out.swap(ready_joiners_);
  return out;
}

void DsmSystem::adopt(Uid uid) {
  ANOW_CHECK(is_alive(uid));
  ANOW_CHECK(std::find(team_.begin(), team_.end(), uid) == team_.end());
  team_.push_back(uid);
  rebuild_topology();
}

void DsmSystem::expel(Uid uid) {
  ANOW_CHECK_MSG(uid != kMasterUid,
                 "the master cannot perform a normal leave (paper §4.4)");
  auto it = std::find(team_.begin(), team_.end(), uid);
  ANOW_CHECK_MSG(it != team_.end(), "expel of non-member " << uid);
  switch (config_.pid_strategy) {
    case PidStrategy::kShift:
      team_.erase(it);
      break;
    case PidStrategy::kSwapLast:
      *it = team_.back();
      team_.pop_back();
      break;
  }
  // A departing *interior* node's children are promoted before the leave
  // completes: the rebuilt tree over the compacted pid order reattaches
  // every orphaned subtree.  Expel happens only between constructs, so the
  // leaver can hold no half-combined collective state — asserted here.
  ANOW_CHECK_MSG(process(uid).tree_combine_idle(),
                 "expel of uid " << uid << " with combining state in flight");
  // Drain-before-departure (DESIGN.md §13): anything the leaver still has
  // staged would vanish with it.
  if (checker_ != nullptr) {
    checker_->on_expel(uid, process(uid).channel_.staged_total());
  }
  if (race_ != nullptr) race_->on_expel(uid);
  rebuild_topology();
  // The leaver is no longer in the rebuilt tree, so its terminate is a
  // plain send: it drains the leaver's staged join-barrier release,
  // preserving the [release, terminate] envelope (drain-before-departure).
  channel(kMasterUid).send(uid, TerminateMsg{});
  engine_->forget_uid(uid);
}

void DsmSystem::move_process(Uid uid, sim::HostId new_host) {
  ANOW_CHECK(new_host >= 0 && new_host < cluster_.num_hosts());
  DsmProcess& p = process(uid);
  cluster_.host(p.host_).cpu().migrate_jobs(&p, cluster_.host(new_host).cpu());
  p.host_ = new_host;
}

// ---------------------------------------------------------------------------
// Owner directory (the master engine's whole owner map; DESIGN.md §8)
// ---------------------------------------------------------------------------

void DsmSystem::queue_owner_update(PageId page, Uid owner) {
  engine_->queue_owner_update(page, owner);
  if (placement_adaptive_) policy_.note_owner_delta({{page, owner}});
}

// ---------------------------------------------------------------------------
// Fork-join
// ---------------------------------------------------------------------------

void DsmSystem::close_master_interval() {
  // The fork is a release point for the master: writes of its sequential
  // section must be announced before the construct starts.  With one
  // shard every such write is exclusivity-covered (the master owns all it
  // touches pre-fork) and the interval is empty — this is a no-op.  With
  // several shards the master writes pages seeded at other holders, so
  // the interval is real: close it, flush any homes
  // (flush-before-notice invariant), and log it under its own lamport
  // stamp so it is causally ordered *before* the construct's epoch.
  DsmProcess& master = process(kMasterUid);
  Interval iv = master.engine().finish_interval();
  master.flush_homes();
  if (iv.iseq != 0) {
    if (placement_adaptive_) placement_note_interval(iv);
    if (checker_ != nullptr) {
      checker_->on_release_announced(kMasterUid);
      checker_->on_interval_logged(iv);
    }
    engine_->log_release(std::move(iv));
  }
}

void DsmSystem::run_parallel(std::int32_t task_id,
                             std::vector<std::uint8_t> args) {
  DsmProcess& master = process(kMasterUid);
  ANOW_CHECK_MSG(rt_->in_context_of(kMasterUid),
                 "run_parallel outside the master fiber");

  close_master_interval();
  if (fork_hook_) fork_hook_();
  // The fork is a release point for the master: the detector snapshots the
  // master clock as the construct's fork clock; slaves join it in run_task.
  // The snapshot comes *after* the adaptation hook: a leave makes the master
  // re-own the leaver's pages via read_range (paper §4.2), and those
  // runtime reads complete before any fork envelope departs — they belong
  // to the pre-fork segment the slaves order themselves after, or the
  // post-leave repartition would report them against the new owners' first
  // writes as false races.
  if (race_ != nullptr) race_->on_fork_publish(kMasterUid);

  stats().counter("dsm.forks")++;

  // Assemble the team view (pid = index in team_).
  std::vector<std::pair<Uid, Pid>> team_view;
  team_view.reserve(team_.size());
  for (Pid pid = 0; pid < static_cast<Pid>(team_.size()); ++pid) {
    team_view.emplace_back(team_[pid], pid);
  }

  // A pending GC commit rides on the fork; queued ownership transfers from
  // the leave protocol are broadcast alongside it.
  const auto commit = engine_->take_pending_commit(
      /*include_queued_updates=*/true);

  // The fan-out delivers the join-barrier release staged for each slave
  // ahead of its fork: release + fork share one envelope, or one route of
  // a multicast.
  std::vector<std::pair<Uid, Segment>> routed;
  for (Uid uid : team_) {
    if (uid == kMasterUid) continue;
    ForkMsg fork;
    fork.task_id = task_id;
    fork.args = args;
    fork.team = team_view;
    fork.intervals = engine_->collect_undelivered(uid);
    fork.gc_commit = commit.gc_commit;
    fork.owner_delta = commit.delta;
    routed.emplace_back(uid, std::move(fork));
  }
  fan_out_instructions(std::move(routed));

  // The master executes the construct too (it is part of the team), then
  // completes the Tmk_join barrier with everyone.
  master.apply_team(team_view);
  // The master's undelivered intervals and owner updates are applied
  // directly (it would otherwise message itself).  The delta is applied
  // unconditionally as hints: a GC commit already ran on the master's node
  // state in gc_at_fork, while queued ownership transfers (leave protocol)
  // arrive here as well.
  master.engine().integrate(engine_->collect_undelivered(kMasterUid));
  master.apply_owner_hints(commit.delta);
  master.accessed_since_fork_ = 0;
  master.engine().begin_construct();
  master.heap_sync();
  run_task_body(task_id, master, args);
  master.barrier(kJoinBarrierId);
}

// ---------------------------------------------------------------------------
// Barrier orchestration
// ---------------------------------------------------------------------------

void DsmSystem::on_barrier_arrive(const BarrierArrive& msg) {
  if (barrier_arrived_.empty()) {
    barrier_id_ = msg.barrier_id;
  } else {
    ANOW_CHECK_MSG(barrier_id_ == msg.barrier_id,
                   "mismatched barrier ids " << barrier_id_ << " vs "
                                             << msg.barrier_id);
  }
  ANOW_CHECK(std::find(team_.begin(), team_.end(), msg.uid) != team_.end());
  ANOW_CHECK(std::find(barrier_arrived_.begin(), barrier_arrived_.end(),
                       msg.uid) == barrier_arrived_.end());
  barrier_arrived_.push_back(msg.uid);
  if (tracer_ != nullptr) tracer_->note_barrier_arrive(msg.uid);
  // The arrival is the announce point of the writer's interval: its home
  // flushes must all have been applied by now (ack round or envelope
  // ordering — DESIGN.md §13).
  if (checker_ != nullptr) checker_->on_release_announced(msg.uid);
  max_consistency_bytes_ = std::max(max_consistency_bytes_,
                                    msg.consistency_bytes);
  pending_intervals_.push_back(msg.interval);
  if (barrier_arrived_.size() == team_.size()) {
    barrier_complete();
  }
}

void DsmSystem::barrier_complete() {
  stats().counter("dsm.barriers")++;
  if (placement_adaptive_) {
    for (const auto& iv : pending_intervals_) placement_note_interval(iv);
  }
  if (checker_ != nullptr) {
    checker_->on_epoch_logged(pending_intervals_, protocol_);
    for (const auto& iv : pending_intervals_) {
      checker_->on_interval_logged(iv);
    }
  }
  // Every arrival of this epoch has been announced; the detector seals the
  // epoch's release clock here (the next epoch's arrivals are causally
  // after this point).
  if (race_ != nullptr) race_->on_barrier_sealed();
  engine_->log_epoch(std::move(pending_intervals_));
  pending_intervals_.clear();

  // The placement window rolls at every barrier; a non-empty decision
  // requests a GC so the moves ride this barrier's commit round.
  if (placement_adaptive_) evaluate_placement();

  if (engine_->gc_should_run(max_consistency_bytes_)) {
    gc_resume_ = GcResume::kBarrierRelease;
    begin_gc_at_barrier();
    return;
  }
  release_barrier();
}

void DsmSystem::release_barrier() {
  // The epoch timeline closes here: per-process stall is release minus
  // arrival, and the traffic deltas cover everything since the previous
  // release (including any GC round that ran between complete and release).
  if (tracer_ != nullptr) tracer_->note_barrier_release();
  const auto commit = engine_->take_pending_commit(
      /*include_queued_updates=*/false);

  const bool join = barrier_id_ == kJoinBarrierId;
  const sim::Time service =
      cluster_.cost().barrier_service *
      static_cast<sim::Time>(barrier_arrived_.size());
  std::vector<std::pair<Uid, Segment>> routed;
  for (Uid uid : team_) {
    BarrierRelease rel;
    rel.barrier_id = barrier_id_;
    rel.intervals = engine_->collect_undelivered(uid);
    rel.gc_commit = commit.gc_commit;
    rel.owner_delta = commit.delta;
    if (join && uid != kMasterUid) {
      // After a join barrier a slave does nothing but wait for the next
      // instruction (fork / GC prepare / terminate), so its release rides
      // that fan-out instead of paying its own envelope.  Every
      // instruction departs through fan_out_instructions, which delivers
      // this stage first — the slave always pops the release before the
      // instruction.  The master itself resumes through the immediate
      // path below (it must return from barrier() to fork again), which
      // also keeps the barrier service charge on the critical path.
      channel(kMasterUid).stage(uid, std::move(rel));
      continue;
    }
    if (uid != kMasterUid) {
      routed.emplace_back(uid, std::move(rel));
      continue;
    }
    rt_->defer(service, [this, uid, rel = std::move(rel)]() mutable {
      channel(kMasterUid).send(uid, std::move(rel));
    });
  }
  if (!routed.empty()) {
    // One fan-out after the same aggregate service charge (the master
    // still serializes over the arrivals it merged).
    rt_->defer(service, [this, routed = std::move(routed)]() mutable {
      fan_out_instructions(std::move(routed));
    });
  }
  barrier_arrived_.clear();
  barrier_id_ = -1;
  max_consistency_bytes_ = 0;
}

// ---------------------------------------------------------------------------
// Adaptive placement (DESIGN.md §9)
// ---------------------------------------------------------------------------

void DsmSystem::placement_note_interval(const Interval& interval) {
  if (interval.iseq == 0) return;
  for (const auto& wn : interval.notices) {
    monitor_.record_write(wn.page, interval.creator);
  }
}

void DsmSystem::evaluate_placement() {
  monitor_.end_window();
  if (!placement_moves_.empty()) return;  // a round is already armed
  OwnerDelta moves = policy_.decide(monitor_, team_);
  if (moves.empty()) return;
  stats().counter("dsm.placement.decisions")++;
  if (tracer_ != nullptr) {
    tracer_->instant(kMasterUid, "placement_round",
                     static_cast<std::int64_t>(moves.size()));
  }
  placement_moves_ = std::move(moves);
  // The moves ride this very barrier's GC round (gc_should_run sees the
  // request below); no extra message exists outside that round.
  engine_->request_gc();
}

void DsmSystem::stage_placement_moves() {
  if (placement_moves_.empty()) return;
  gc_home_moves_ = engine_->stage_owner_moves(placement_moves_);
}

void DsmSystem::stage_home_move_notices() {
  // The re-homes themselves are in the round's delta (stage_owner_moves);
  // this is the adoption notice, one per new home.  The master itself
  // never needs one.
  std::vector<std::pair<Uid, OwnerDelta>> by_home;
  for (const auto& [page, home] : gc_home_moves_) {
    if (home == kMasterUid) continue;
    auto it = std::find_if(by_home.begin(), by_home.end(),
                           [home](const auto& e) { return e.first == home; });
    if (it == by_home.end()) it = by_home.insert(it, {home, {}});
    it->second.emplace_back(page, home);
  }
  for (auto& [home, entries] : by_home) {
    if (!is_alive(home)) continue;
    channel(kMasterUid).stage(home, HomeMove{std::move(entries)});
  }
}

void DsmSystem::placement_note_gc_commit(const OwnerDelta& delta) {
  if (!placement_adaptive_) return;
  policy_.note_owner_delta(delta);
  placement_moves_.clear();
  gc_home_moves_.clear();
}

// ---------------------------------------------------------------------------
// GC choreography (protocol data lives in the engine)
// ---------------------------------------------------------------------------

void DsmSystem::begin_gc_at_barrier() {
  stats().counter("dsm.gc_runs")++;
  gc_in_progress_ = true;
  // Placement page re-homes join the engine's pending commit delta now,
  // before the delta is assembled, so they ride the same atomic commit as
  // first-touch assignments (DESIGN.md §9).
  stage_placement_moves();
  gc_delta_ = engine_->gc_begin();
  // HomeMove notices staged here depart inside each new home's GcPrepare
  // envelope below.  The GcAcks that already gate the commit double as
  // the adoption barrier.
  stage_home_move_notices();
  gc_acks_outstanding_ = static_cast<int>(team_.size());
  std::vector<std::pair<Uid, Segment>> routed;
  for (Uid uid : team_) {
    GcPrepare gp;
    gp.owners = gc_delta_;
    gp.intervals = engine_->collect_undelivered(uid);
    // The fan-out delivers any staged HomeMove ahead of each prepare,
    // keeping the adopt-before-prepare order.  The master's own
    // prepare is a self-send — it is the root.
    if (uid == kMasterUid) {
      channel(kMasterUid).send(uid, std::move(gp));
    } else {
      routed.emplace_back(uid, std::move(gp));
    }
  }
  fan_out_instructions(std::move(routed));
}

void DsmSystem::on_gc_ack(const GcAck& /*msg*/) {
  ANOW_CHECK(gc_in_progress_);
  ANOW_CHECK(gc_acks_outstanding_ > 0);
  if (--gc_acks_outstanding_ > 0) return;
  gc_in_progress_ = false;
  // The master-side commit (owner map + log reset) happens now; the
  // processes commit when the release/fork delivers gc_commit=true.
  engine_->gc_finish(gc_delta_);
  placement_note_gc_commit(gc_delta_);
  switch (gc_resume_) {
    case GcResume::kBarrierRelease:
      release_barrier();
      break;
    case GcResume::kForkHook:
      rt_->signal(gc_fork_wp_);
      break;
    case GcResume::kNone:
      ANOW_CHECK_MSG(false, "GC completed with no continuation");
  }
  gc_resume_ = GcResume::kNone;
}

void DsmSystem::on_tree_ack(const TreeAck& msg) {
  ANOW_CHECK(gc_in_progress_);
  ANOW_CHECK_MSG(msg.count >= 1 && msg.count <= gc_acks_outstanding_,
                 "combined ack count " << msg.count << " vs "
                                       << gc_acks_outstanding_
                                       << " outstanding");
  gc_acks_outstanding_ -= msg.count - 1;
  on_gc_ack(GcAck{});
}

void DsmSystem::gc_at_fork() {
  DsmProcess& master = process(kMasterUid);
  ANOW_CHECK_MSG(rt_->in_context_of(kMasterUid),
                 "gc_at_fork outside the master fiber");
  ANOW_CHECK_MSG(barrier_arrived_.empty(), "gc_at_fork during a barrier");
  ANOW_CHECK(!gc_in_progress_);

  // The master's open sequential-section interval must be logged before
  // the delta is computed (its writes drive ownership like any others).
  close_master_interval();

  stats().counter("dsm.gc_runs")++;
  stage_placement_moves();
  OwnerDelta delta = engine_->gc_begin();

  // Deliver pending intervals + validate at the master first (fiber
  // context), then at the slaves (parked in Tmk_wait).
  {
    obs::ScopedSpan span(tracer_, kMasterUid, obs::SpanKind::kGcPrepare);
    master.engine().note_gc_prepare();
    master.engine().integrate(engine_->collect_undelivered(kMasterUid));
    master.gc_validate(delta);
  }

  gc_in_progress_ = true;
  gc_delta_ = delta;
  gc_resume_ = GcResume::kForkHook;
  stage_home_move_notices();
  gc_acks_outstanding_ = static_cast<int>(team_.size()) - 1;
  if (gc_acks_outstanding_ > 0) {
    // A slave parked at the join barrier with a staged release gets
    // [release, prepare] in one envelope: it pops the release (leaving
    // barrier()), then handles the prepare from Tmk_wait — the same
    // integrate order as the unstaged path, so validation still sees
    // every write notice that exists at this point.
    std::vector<std::pair<Uid, Segment>> routed;
    for (Uid uid : team_) {
      if (uid == kMasterUid) continue;
      GcPrepare gp;
      gp.owners = delta;
      gp.intervals = engine_->collect_undelivered(uid);
      routed.emplace_back(uid, std::move(gp));
    }
    fan_out_instructions(std::move(routed));
    obs::ScopedSpan span(tracer_, kMasterUid, obs::SpanKind::kGcCommit);
    rt_->wait(gc_fork_wp_, "gc acks");
    // on_gc_ack performed the master-side gc_finish (the pending commit now
    // rides on the next ForkMsg).
  } else {
    gc_in_progress_ = false;
    engine_->gc_finish(delta);
    placement_note_gc_commit(delta);
    gc_resume_ = GcResume::kNone;
  }
  // The master's local (node-side) commit happens immediately; slaves
  // commit on the next ForkMsg (gc_commit flag) assembled from the engine's
  // pending commit.
  master.engine().gc_commit_node(delta);
  master.heap_sync();
}

// ---------------------------------------------------------------------------
// Locks (orchestration; interval logging goes through the engine)
// ---------------------------------------------------------------------------

DsmSystem::LockState& DsmSystem::lock_state(std::int32_t lock_id) {
  ANOW_CHECK_MSG(lock_id >= 0 && lock_id < (1 << 20),
                 "lock id out of range: " << lock_id);
  if (lock_id >= static_cast<std::int32_t>(locks_.size())) {
    locks_.resize(static_cast<std::size_t>(lock_id) + 1);
  }
  return locks_[static_cast<std::size_t>(lock_id)];
}

void DsmSystem::on_lock_acquire(const LockAcquireReq& msg) {
  LockState& ls = lock_state(msg.lock_id);
  if (ls.holder == kNoUid) {
    ls.holder = msg.requester;
    stats().counter("dsm.lock_grants")++;
    LockGrant grant;
    grant.lock_id = msg.lock_id;
    grant.intervals = engine_->collect_undelivered(msg.requester);
    rt_->defer(cluster_.cost().lock_service,
               [this, to = msg.requester, grant = std::move(grant)]() mutable {
                 channel(kMasterUid).send(to, std::move(grant));
               });
  } else {
    ls.queue.push_back(msg.requester);
  }
}

void DsmSystem::on_lock_release(const LockReleaseMsg& msg) {
  LockState& ls = lock_state(msg.lock_id);
  ANOW_CHECK_MSG(ls.holder == msg.releaser,
                 "lock " << msg.lock_id << " released by non-holder");
  if (placement_adaptive_ && msg.interval.iseq != 0) {
    placement_note_interval(msg.interval);
  }
  if (checker_ != nullptr) {
    checker_->on_release_announced(msg.releaser);
    checker_->on_interval_logged(msg.interval);
  }
  engine_->log_release(msg.interval);
  if (ls.queue.empty()) {
    ls.holder = kNoUid;
    return;
  }
  const Uid next = ls.queue.front();
  ls.queue.pop_front();
  ls.holder = next;
  stats().counter("dsm.lock_grants")++;
  LockGrant grant;
  grant.lock_id = msg.lock_id;
  grant.intervals = engine_->collect_undelivered(next);
  rt_->defer(cluster_.cost().lock_service,
             [this, next, grant = std::move(grant)]() mutable {
               channel(kMasterUid).send(next, std::move(grant));
             });
}

void DsmSystem::on_join_ready(const JoinReady& msg) {
  ready_joiners_.push_back(msg.uid);
}

void DsmSystem::send_page_map(Uid joiner) {
  PageMapMsg map;
  map.owner_by_page = owner_by_page();
  channel(kMasterUid).send(joiner, std::move(map));
}

void DsmSystem::restore_master_region(const std::vector<std::uint8_t>& region,
                                      std::int64_t heap_brk) {
  ANOW_CHECK(static_cast<std::int64_t>(region.size()) == config_.heap_bytes);
  ANOW_CHECK_MSG(stats().counter_value("dsm.forks") == 0,
                 "restore_master_region after forks have run");
  DsmProcess& master = process(kMasterUid);
  if (shard_map_.sharded()) {
    // A restore hands the master the whole region image, so the sharded
    // initial data distribution no longer matches reality: back to the
    // unsharded layout.  Pre-fork (asserted above) every process is parked
    // with nothing but its seeded zero pages, so the holders' state is
    // rewound directly — no protocol traffic exists to race with.
    for (auto& proc : processes_) {
      proc->engine().reset_directory_node_state();
    }
    shard_map_ = protocol::ShardMap(num_pages(), 1);
  }
  std::copy(region.begin(), region.end(), master.heap_->prot_base());
  heap_brk_ = heap_brk;
  // Every page's owner returns to the master.
  engine_->dir().collapse_to_master();
  master.heap_sync();
  if (placement_adaptive_) {
    monitor_.reset();
    policy_.configure(shard_map_);
    placement_moves_.clear();
    gc_home_moves_.clear();
  }
}

// ---------------------------------------------------------------------------
// Checkpoint support
// ---------------------------------------------------------------------------

std::int64_t DsmSystem::master_collect_all_pages() {
  DsmProcess& master = process(kMasterUid);
  ANOW_CHECK_MSG(rt_->in_context_of(kMasterUid),
                 "master_collect_all_pages outside the master fiber");
  std::vector<PageId> invalid;
  for (PageId p = 0; p < num_pages(); ++p) {
    if (!master.engine().page(p).is_valid()) invalid.push_back(p);
  }
  master.fault_in_pages(invalid, nullptr);
  master.heap_sync();
  return static_cast<std::int64_t>(invalid.size());
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

util::StatsRegistry& DsmSystem::stats() { return cluster_.stats(); }

std::vector<std::uint8_t> DsmSystem::acquire_page_buffer() {
  std::lock_guard<std::mutex> lk(page_buf_mu_);
  if (page_buf_pool_.empty()) {
    return std::vector<std::uint8_t>(kPageSize);
  }
  std::vector<std::uint8_t> buf = std::move(page_buf_pool_.back());
  page_buf_pool_.pop_back();
  return buf;
}

void DsmSystem::release_page_buffer(std::vector<std::uint8_t> buf) {
  // Only full-page buffers recycle (the pool invariant acquire relies on);
  // the cap bounds the footprint if a burst of replies lands at once.
  std::lock_guard<std::mutex> lk(page_buf_mu_);
  if (buf.size() != kPageSize || page_buf_pool_.size() >= 64) return;
  page_buf_pool_.push_back(std::move(buf));
}

sim::HostId DsmSystem::host_of(Uid uid) const {
  return processes_[uid]->host();
}

void DsmSystem::rebuild_topology() {
  topology_.rebuild(team_, config_.fanout);
}

void DsmSystem::fan_out_instructions(
    std::vector<std::pair<Uid, Segment>> msgs) {
  // The vehicle is chosen per destination at the master's edge (DESIGN.md
  // §12).  A destination whose subtree is only itself — a leaf child of
  // the master, or a joiner not yet in the tree — gets one plain segment
  // per instruction; channel().send drains what is staged for it first, so
  // it receives exactly the star's envelope.  Everyone else rides one
  // multicast per interior master child, routes grouped by which child's
  // subtree holds the destination, departing where its first destination
  // stood in the input.  Pulling the stage into the route keeps the
  // no-overtaking rule: the staged segments still precede the instruction
  // inside the route, and nothing for this destination is left behind to
  // be overtaken.
  std::vector<std::pair<Uid, Segment>> departures;
  for (auto& [dest, seg] : msgs) {
    ANOW_CHECK_MSG(dest != kMasterUid, "fan-out to the root");
    if (!topology_.is_member(dest) || topology_.is_root_leaf(dest)) {
      departures.emplace_back(dest, std::move(seg));
      continue;
    }
    // An interior child is never itself a plain destination, so the
    // departure to it is its multicast.
    const Uid child = topology_.next_hop_toward(kMasterUid, dest);
    auto it = std::find_if(departures.begin(), departures.end(),
                           [child](const auto& d) { return d.first == child; });
    if (it == departures.end()) {
      departures.emplace_back(child, TreeMulticast{});
      it = std::prev(departures.end());
    }
    // One route per destination: segments for the same dest merge into its
    // existing route, in batch order.
    auto& routes = std::get<TreeMulticast>(it->second).routes;
    auto rit = std::find_if(routes.begin(), routes.end(),
                            [d = dest](const auto& r) { return r.dest == d; });
    if (rit == routes.end()) {
      TreeRoute route;
      route.dest = dest;
      route.segments = channel(kMasterUid).take_staged(dest);
      routes.push_back(std::move(route));
      rit = std::prev(routes.end());
    }
    rit->segments.push_back(std::move(seg));
  }
  for (auto& [to, seg] : departures) {
    channel(kMasterUid).send(to, std::move(seg));
  }
}

Channel& DsmSystem::channel(Uid from) {
  ANOW_CHECK_MSG(from >= 0 && from < static_cast<Uid>(processes_.size()),
                 "channel of unknown uid " << from);
  return processes_[from]->channel_;
}

void DsmSystem::send_envelope(Uid to, Envelope env) {
  ANOW_CHECK_MSG(to >= 0 && to < static_cast<Uid>(processes_.size()),
                 "send to unknown uid " << to);
  ANOW_CHECK(!env.segments.empty());
  DsmProcess* target = processes_[to].get();
  // Per-pair FIFO fingerprint (DESIGN.md §13): DsmProcess::handle pops and
  // matches, so any reordering between here and delivery fires a check.
  if (checker_ != nullptr) checker_->on_envelope_send(env.src, to, env);
  // Per-segment-kind traffic histogram + the consistency-traffic metric
  // (diff fetch rounds and home flushes — the traffic that exists purely
  // to move modifications; invalidation-resolving page refetches are added
  // at the fetch site, where the intent is known).  A single-segment
  // envelope charges the segment the envelope header too, so a segment
  // that travels alone costs what a flat send would; a piggybacked segment
  // counts payload only (it pays no header).
  const bool solo = env.segments.size() == 1;
  *ctr_segments_ += static_cast<std::int64_t>(env.segments.size());
  for (const auto& seg : env.segments) {
    const auto kind = static_cast<std::size_t>(segment_kind(seg));
    const std::int64_t bytes = segment_wire_bytes(seg);
    (*seg_msgs_[kind])++;
    *seg_bytes_[kind] += bytes;
    if (segment_is_consistency_traffic(seg)) {
      *ctr_consistency_bytes_ += bytes + (solo ? kEnvelopeHeaderBytes : 0);
    }
    // Control-plane load through the master (DESIGN.md §12): the
    // per-collective serialization the tree topology exists to shrink.
    if (segment_is_control(seg)) {
      if (to == kMasterUid) (*ctr_ctrl_master_in_)++;
      if (env.src == kMasterUid) (*ctr_ctrl_master_out_)++;
    }
    // Owner-lookup load by destination: page-location requests landing on
    // the master are the serialisation point the sharded initial
    // distribution spreads out (DESIGN.md §8).
    if (static_cast<SegmentKind>(kind) == SegmentKind::kPageRequest) {
      (*(to == kMasterUid ? ctr_lookups_master_ : ctr_lookups_shard_))++;
    }
  }
  // wire_bytes() must be taken before the capture moves env (argument
  // evaluation order would otherwise be unspecified).
  const std::int64_t wire = env.wire_bytes();
  // Causal flow pairing (DESIGN.md §11): every envelope departs through
  // here and Network::send returns its arrival time, so both flow
  // endpoints are recorded at send time — pairing is structural, not
  // matched after the fact.  The label is the leading segment's kind.
  std::uint64_t flow = 0;
  const char* flow_label = nullptr;
  if (tracer_ != nullptr && tracer_->events_enabled()) {
    flow_label = segment_kind_name(segment_kind(env.segments.front()));
    flow = tracer_->flow_begin(env.src, flow_label, wire);
  }
  const Uid src = env.src;
  const sim::Time arrival =
      rt_->post(src, to, host_of(src), host_of(to), wire,
                [target, env = std::move(env)]() mutable {
                  target->handle(std::move(env));
                });
  if (flow != 0) tracer_->flow_end(flow, to, arrival, flow_label);
}

}  // namespace anow::dsm
