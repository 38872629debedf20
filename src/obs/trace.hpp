// Virtual-time tracing and time attribution (DESIGN.md §11).
//
// A TraceRecorder is owned by the Cluster and observes a run without ever
// perturbing it: it schedules no events, consumes no CPU, and sends no
// messages, so a traced run is event-for-event identical to an untraced one.
// It provides two capabilities:
//
//  - Attribution (always on while a recorder exists): every DSM fiber keeps
//    a stack of open spans; elapsed virtual time is charged to the bucket of
//    the innermost open span (idle when none).  Buckets therefore partition
//    each process's runtime exactly — sum(buckets) == finalize_ts −
//    attach_ts in integer nanoseconds, by construction (the conservation
//    invariant, tested).
//
//  - Event recording (only when a trace file was requested): spans, causal
//    message flows (one per envelope send, paired with its delivery), and
//    counter samples at each barrier epoch go into per-process ring buffers
//    and export as Chrome trace-event JSON loadable in Perfetto.
//
// With no recorder the hooks are a null-pointer test; tracing off is free.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace anow::sim {
class Simulator;
}

namespace anow::obs {

/// Span taxonomy.  Each kind maps onto one attribution bucket; extra kinds
/// beyond the bucket set exist so traces stay readable (a diff flush and an
/// app compute burst render as different slices even though both are CPU).
enum class SpanKind : std::uint8_t {
  kCompute,       // CpuScheduler::consume of deferred app + trap CPU
  kDiffMake,      // creating diffs at a release (twin compare + pack)
  kDiffApply,     // applying fetched diffs to a stale copy
  kBarrierWait,   // barrier(): release processing + wait for the release
  kLockStall,     // lock_acquire(): wait for the grant
  kLockRelease,   // lock_release(): flush + notify
  kFaultService,  // fault_in_pages remote service
  kGcPrepare,     // GC validate + delta collection on a process
  kGcCommit,      // master waiting for GC acks at a fork
  kCount
};
const char* span_kind_name(SpanKind k);

/// Attribution buckets (`obs.time.*` accums; the --time-breakdown columns).
enum class Bucket : std::uint8_t {
  kCompute,
  kBarrier,
  kLock,
  kFault,
  kGc,
  kIdle,
  kCount
};
constexpr int kNumBuckets = static_cast<int>(Bucket::kCount);
Bucket bucket_of(SpanKind k);
const char* bucket_name(Bucket b);

/// Timestamp source for a recorder.  kVirtual reads the simulator clock —
/// the default, and the only source that keeps a trace deterministic and
/// the conservation invariant exact.  kWall reads a monotonic wall clock
/// relative to recorder construction; the real execution backend
/// (DESIGN.md §14) rejects tracing outright, so kWall exists for
/// recorders driven outside a simulator run (tests, offline tooling).
enum class ClockSource : std::uint8_t { kVirtual, kWall };

struct TraceOptions {
  /// Record events for Chrome-trace export.  Off = attribution only.
  bool record_events = false;
  /// Ring capacity (events) per process track; oldest events are dropped
  /// (and counted) when a track overflows.
  std::size_t ring_capacity = 1 << 16;
  /// Where timestamps come from (see ClockSource).
  ClockSource clock = ClockSource::kVirtual;
};

/// One recorded event.  `label` always points at static storage (span kind
/// names, segment kind names, counter names), so events are POD.
struct TraceEvent {
  enum class Type : std::uint8_t {
    kSpan,
    kInstant,
    kFlowSend,
    kFlowRecv,
    kCounter
  };
  Type type;
  std::int32_t proc;   // track (process uid); counters use track 0
  sim::Time ts;        // start (spans) or occurrence time
  sim::Time dur;       // spans only
  std::uint64_t id;    // flow id, or sampled value for kCounter
  std::int64_t arg;    // wire bytes (flows), payload (instants)
  const char* label;
};

/// One barrier epoch in the per-run timeline.
struct EpochRecord {
  std::int64_t epoch = 0;     // 1-based barrier completion index
  sim::Time release_ts = 0;   // virtual time the release went out
  /// Per-process stall: release_ts − barrier arrival, in arrival order.
  std::vector<std::pair<std::int32_t, sim::Time>> stalls;
  std::int64_t msgs = 0;      // net.messages delta over the epoch
  std::int64_t bytes = 0;     // net.bytes delta
  std::int64_t home_moves = 0;
};

/// Finalized per-run attribution + timeline, cheap to copy into RunResult.
struct Report {
  struct ProcBreakdown {
    std::int32_t uid = 0;
    sim::Time start = 0;  // attach time
    sim::Time end = 0;    // finalize time
    std::array<sim::Time, kNumBuckets> buckets{};
    sim::Time runtime() const { return end - start; }
  };

  std::vector<ProcBreakdown> procs;
  std::vector<EpochRecord> epochs;
  std::int64_t events_recorded = 0;
  std::int64_t events_dropped = 0;
  std::int64_t flows = 0;

  sim::Time total_runtime() const;
  sim::Time total_bucket(Bucket b) const;
  /// Exact conservation: for every process, sum(buckets) == runtime().
  bool conserved() const;
};

/// Per-process breakdown table (the --time-breakdown output): one row per
/// process, a separator, and a totals row.
util::Table breakdown_table(const Report& rep);

class TraceRecorder {
 public:
  TraceRecorder(sim::Simulator& sim, util::StatsRegistry& stats,
                TraceOptions opts);

  bool events_enabled() const { return opts_.record_events; }

  // -- process lifecycle -------------------------------------------------
  /// Registers a process track; attribution starts at the current time.
  void attach_process(std::int32_t uid);

  // -- spans (fiber context; use ScopedSpan) -----------------------------
  void span_begin(std::int32_t uid, SpanKind k);
  void span_end(std::int32_t uid, SpanKind k);
  /// Zero-duration marker (e.g. a placement round on the master track).
  void instant(std::int32_t uid, const char* label, std::int64_t arg);

  // -- causal flows ------------------------------------------------------
  /// Records an envelope departure; returns a nonzero flow id.
  std::uint64_t flow_begin(std::int32_t src_uid, const char* label,
                           std::int64_t wire_bytes);
  /// Records the paired delivery at its (already known) arrival time.
  void flow_end(std::uint64_t id, std::int32_t dst_uid, sim::Time arrival,
                const char* label);

  // -- barrier epochs ----------------------------------------------------
  void note_barrier_arrive(std::int32_t uid);
  void note_barrier_release();

  // -- finalization & reports --------------------------------------------
  /// Charges every track up to now and publishes `obs.time.*` accums and
  /// `obs.trace.*` counters into the stats registry.  Call once, after the
  /// run; DsmSystem::run does this automatically.
  void finalize();
  bool finalized() const { return finalized_; }

  Report report() const;
  /// All ring-buffered events in per-track order (tests, export).
  std::vector<TraceEvent> events_snapshot() const;

  /// Per-process breakdown table for --time-breakdown output.
  util::Table breakdown_table() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}); Perfetto-loadable.
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Ring {
    std::vector<TraceEvent> buf;
    std::size_t head = 0;  // oldest element when full
    bool full = false;
  };
  struct Attr {
    bool attached = false;
    sim::Time start = 0;
    sim::Time last = 0;
    std::array<sim::Time, kNumBuckets> buckets{};
    std::vector<std::pair<SpanKind, sim::Time>> open;  // kind, begin ts
  };

  sim::Time now() const;
  Attr& attr(std::int32_t uid);
  void advance(Attr& a, sim::Time to);
  void push_event(std::int32_t uid, const TraceEvent& e);

  sim::Simulator& sim_;
  util::StatsRegistry& stats_;
  TraceOptions opts_;
  /// Zero point for ClockSource::kWall (set at construction).
  std::chrono::steady_clock::time_point wall_epoch_;
  std::vector<Attr> attrs_;   // indexed by uid
  std::vector<Ring> rings_;   // indexed by uid (events mode only)
  std::vector<EpochRecord> epochs_;
  std::vector<std::pair<std::int32_t, sim::Time>> cur_arrivals_;
  std::uint64_t next_flow_ = 1;
  std::int64_t events_recorded_ = 0;
  std::int64_t events_dropped_ = 0;
  std::int64_t flows_ = 0;
  std::int64_t epoch_count_ = 0;
  std::int64_t last_msgs_ = 0;
  std::int64_t last_bytes_ = 0;
  std::int64_t last_home_moves_ = 0;
  bool finalized_ = false;
};

/// RAII span.  Null recorder => both calls compile to a pointer test.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* r, std::int32_t uid, SpanKind k)
      : r_(r), uid_(uid), k_(k) {
    if (r_ != nullptr) r_->span_begin(uid_, k_);
  }
  ~ScopedSpan() {
    if (r_ != nullptr) r_->span_end(uid_, k_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* r_;
  std::int32_t uid_;
  SpanKind k_;
};

}  // namespace anow::obs
