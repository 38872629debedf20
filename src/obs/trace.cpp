#include "obs/trace.hpp"

#include <fstream>
#include <unordered_set>

#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace anow::obs {

namespace {

// Counters sampled onto the counter track at every barrier epoch close.
constexpr const char* kSampledCounters[] = {
    "net.messages",
    "net.bytes",
    "dsm.page_fetches",
    "dsm.diff_fetches",
    "dsm.consistency_traffic_bytes",
};

}  // namespace

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kCompute: return "compute";
    case SpanKind::kDiffMake: return "diff_make";
    case SpanKind::kDiffApply: return "diff_apply";
    case SpanKind::kBarrierWait: return "barrier_wait";
    case SpanKind::kLockStall: return "lock_stall";
    case SpanKind::kLockRelease: return "lock_release";
    case SpanKind::kFaultService: return "fault_service";
    case SpanKind::kGcPrepare: return "gc_prepare";
    case SpanKind::kGcCommit: return "gc_commit";
    case SpanKind::kCount: break;
  }
  return "?";
}

Bucket bucket_of(SpanKind k) {
  switch (k) {
    case SpanKind::kCompute:
    case SpanKind::kDiffMake:
    case SpanKind::kDiffApply:
      return Bucket::kCompute;
    case SpanKind::kBarrierWait:
      return Bucket::kBarrier;
    case SpanKind::kLockStall:
    case SpanKind::kLockRelease:
      return Bucket::kLock;
    case SpanKind::kFaultService:
      return Bucket::kFault;
    case SpanKind::kGcPrepare:
    case SpanKind::kGcCommit:
      return Bucket::kGc;
    case SpanKind::kCount:
      break;
  }
  return Bucket::kIdle;
}

const char* bucket_name(Bucket b) {
  switch (b) {
    case Bucket::kCompute: return "compute";
    case Bucket::kBarrier: return "barrier";
    case Bucket::kLock: return "lock";
    case Bucket::kFault: return "fault";
    case Bucket::kGc: return "gc";
    case Bucket::kIdle: return "idle";
    case Bucket::kCount: break;
  }
  return "?";
}

sim::Time Report::total_runtime() const {
  sim::Time total = 0;
  for (const auto& p : procs) total += p.runtime();
  return total;
}

sim::Time Report::total_bucket(Bucket b) const {
  sim::Time total = 0;
  for (const auto& p : procs) total += p.buckets[static_cast<int>(b)];
  return total;
}

bool Report::conserved() const {
  for (const auto& p : procs) {
    sim::Time sum = 0;
    for (const sim::Time t : p.buckets) sum += t;
    if (sum != p.runtime()) return false;
  }
  return true;
}

TraceRecorder::TraceRecorder(sim::Simulator& sim, util::StatsRegistry& stats,
                             TraceOptions opts)
    : sim_(sim),
      stats_(stats),
      opts_(opts),
      wall_epoch_(std::chrono::steady_clock::now()) {
  ANOW_CHECK(opts_.ring_capacity > 0);
}

sim::Time TraceRecorder::now() const {
  if (opts_.clock == ClockSource::kWall) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - wall_epoch_)
        .count();
  }
  return sim_.now();
}

TraceRecorder::Attr& TraceRecorder::attr(std::int32_t uid) {
  ANOW_CHECK(uid >= 0);
  if (static_cast<std::size_t>(uid) >= attrs_.size()) {
    attrs_.resize(static_cast<std::size_t>(uid) + 1);
  }
  return attrs_[static_cast<std::size_t>(uid)];
}

void TraceRecorder::advance(Attr& a, sim::Time to) {
  const Bucket b =
      a.open.empty() ? Bucket::kIdle : bucket_of(a.open.back().first);
  a.buckets[static_cast<int>(b)] += to - a.last;
  a.last = to;
}

void TraceRecorder::push_event(std::int32_t uid, const TraceEvent& e) {
  if (!opts_.record_events) return;
  if (static_cast<std::size_t>(uid) >= rings_.size()) {
    rings_.resize(static_cast<std::size_t>(uid) + 1);
  }
  Ring& r = rings_[static_cast<std::size_t>(uid)];
  ++events_recorded_;
  if (r.buf.size() < opts_.ring_capacity) {
    r.buf.push_back(e);
    return;
  }
  r.buf[r.head] = e;  // overwrite the oldest event
  r.head = (r.head + 1) % r.buf.size();
  r.full = true;
  ++events_dropped_;
}

void TraceRecorder::attach_process(std::int32_t uid) {
  Attr& a = attr(uid);
  if (a.attached) return;
  a.attached = true;
  a.start = a.last = now();
}

void TraceRecorder::span_begin(std::int32_t uid, SpanKind k) {
  Attr& a = attr(uid);
  ANOW_CHECK_MSG(a.attached, "span on unattached process " << uid);
  advance(a, now());
  a.open.emplace_back(k, a.last);
}

void TraceRecorder::span_end(std::int32_t uid, SpanKind k) {
  Attr& a = attr(uid);
  const sim::Time t = now();
  advance(a, t);
  ANOW_CHECK_MSG(!a.open.empty() && a.open.back().first == k,
                 "mismatched span_end(" << span_kind_name(k) << ") on process "
                                        << uid);
  const sim::Time begin = a.open.back().second;
  a.open.pop_back();
  push_event(uid, TraceEvent{TraceEvent::Type::kSpan, uid, begin, t - begin, 0,
                             0, span_kind_name(k)});
}

void TraceRecorder::instant(std::int32_t uid, const char* label,
                            std::int64_t arg) {
  push_event(uid, TraceEvent{TraceEvent::Type::kInstant, uid, now(), 0, 0, arg,
                             label});
}

std::uint64_t TraceRecorder::flow_begin(std::int32_t src_uid,
                                        const char* label,
                                        std::int64_t wire_bytes) {
  const std::uint64_t id = next_flow_++;
  ++flows_;
  push_event(src_uid, TraceEvent{TraceEvent::Type::kFlowSend, src_uid, now(),
                                 0, id, wire_bytes, label});
  return id;
}

void TraceRecorder::flow_end(std::uint64_t id, std::int32_t dst_uid,
                             sim::Time arrival, const char* label) {
  push_event(dst_uid, TraceEvent{TraceEvent::Type::kFlowRecv, dst_uid, arrival,
                                 0, id, 0, label});
}

void TraceRecorder::note_barrier_arrive(std::int32_t uid) {
  cur_arrivals_.emplace_back(uid, now());
}

void TraceRecorder::note_barrier_release() {
  const sim::Time t = now();
  EpochRecord rec;
  rec.epoch = ++epoch_count_;
  rec.release_ts = t;
  rec.stalls.reserve(cur_arrivals_.size());
  for (const auto& [uid, arrived] : cur_arrivals_) {
    rec.stalls.emplace_back(uid, t - arrived);
  }
  cur_arrivals_.clear();

  const std::int64_t msgs = stats_.counter_value("net.messages");
  const std::int64_t bytes = stats_.counter_value("net.bytes");
  const std::int64_t homes = stats_.counter_value("dsm.placement.home_moves");
  rec.msgs = msgs - last_msgs_;
  rec.bytes = bytes - last_bytes_;
  rec.home_moves = homes - last_home_moves_;
  last_msgs_ = msgs;
  last_bytes_ = bytes;
  last_home_moves_ = homes;
  epochs_.push_back(std::move(rec));

  if (opts_.record_events) {
    for (const char* name : kSampledCounters) {
      push_event(0, TraceEvent{
                        TraceEvent::Type::kCounter, 0, t, 0,
                        static_cast<std::uint64_t>(stats_.counter_value(name)),
                        0, name});
    }
  }
}

void TraceRecorder::finalize() {
  ANOW_CHECK_MSG(!finalized_, "TraceRecorder finalized twice");
  finalized_ = true;
  const sim::Time t = now();
  for (std::size_t uid = 0; uid < attrs_.size(); ++uid) {
    Attr& a = attrs_[uid];
    if (!a.attached) continue;
    advance(a, t);
  }
  for (int b = 0; b < kNumBuckets; ++b) {
    sim::Time total = 0;
    for (const Attr& a : attrs_) {
      if (a.attached) total += a.buckets[b];
    }
    stats_.accum(std::string("obs.time.") +
                 bucket_name(static_cast<Bucket>(b))) +=
        sim::to_seconds(total);
  }
  sim::Time runtime = 0;
  for (const Attr& a : attrs_) {
    if (a.attached) runtime += t - a.start;
  }
  stats_.accum("obs.time.total") += sim::to_seconds(runtime);
  stats_.counter("obs.trace.events_recorded") += events_recorded_;
  stats_.counter("obs.trace.events_dropped") += events_dropped_;
  stats_.counter("obs.trace.flows") += flows_;
  stats_.counter("obs.trace.epochs") += epoch_count_;
}

Report TraceRecorder::report() const {
  ANOW_CHECK_MSG(finalized_, "report() before finalize()");
  Report rep;
  for (std::size_t uid = 0; uid < attrs_.size(); ++uid) {
    const Attr& a = attrs_[uid];
    if (!a.attached) continue;
    Report::ProcBreakdown p;
    p.uid = static_cast<std::int32_t>(uid);
    p.start = a.start;
    p.end = a.last;  // finalize() advanced every track to its end time
    p.buckets = a.buckets;
    rep.procs.push_back(p);
  }
  rep.epochs = epochs_;
  rep.events_recorded = events_recorded_;
  rep.events_dropped = events_dropped_;
  rep.flows = flows_;
  return rep;
}

std::vector<TraceEvent> TraceRecorder::events_snapshot() const {
  std::vector<TraceEvent> out;
  for (const Ring& r : rings_) {
    if (!r.full) {
      out.insert(out.end(), r.buf.begin(), r.buf.end());
    } else {
      out.insert(out.end(), r.buf.begin() + static_cast<std::ptrdiff_t>(r.head),
                 r.buf.end());
      out.insert(out.end(), r.buf.begin(),
                 r.buf.begin() + static_cast<std::ptrdiff_t>(r.head));
    }
  }
  return out;
}

util::Table TraceRecorder::breakdown_table() const {
  return obs::breakdown_table(report());
}

util::Table breakdown_table(const Report& rep) {
  util::Table t({"Proc", "Runtime(s)", "Compute", "Barrier", "Lock", "Fault",
                 "GC", "Idle"});
  auto add_row = [&t](const std::string& label, sim::Time runtime,
                      const std::array<sim::Time, kNumBuckets>& buckets) {
    t.row().add(label).add(sim::to_seconds(runtime), 4);
    for (int b = 0; b < kNumBuckets; ++b) {
      t.add(sim::to_seconds(buckets[b]), 4);
    }
  };
  std::array<sim::Time, kNumBuckets> totals{};
  sim::Time total_runtime = 0;
  for (const auto& p : rep.procs) {
    add_row("P" + std::to_string(p.uid), p.runtime(), p.buckets);
    for (int b = 0; b < kNumBuckets; ++b) totals[b] += p.buckets[b];
    total_runtime += p.runtime();
  }
  t.separator();
  add_row("total", total_runtime, totals);
  return t;
}

std::string TraceRecorder::chrome_trace_json() const {
  // Flow arrows need both endpoints; rings may have evicted one side, so
  // only ids seen as both send and recv get "s"/"f" events.  The anchor
  // slices are emitted regardless (they carry the wire-bytes payload).
  std::unordered_set<std::uint64_t> sends, recvs;
  const std::vector<TraceEvent> events = events_snapshot();
  for (const TraceEvent& e : events) {
    if (e.type == TraceEvent::Type::kFlowSend) sends.insert(e.id);
    if (e.type == TraceEvent::Type::kFlowRecv) recvs.insert(e.id);
  }
  auto paired = [&](std::uint64_t id) {
    return sends.count(id) != 0 && recvs.count(id) != 0;
  };
  const auto us = [](sim::Time t) { return static_cast<double>(t) / 1e3; };

  util::JsonWriter j;
  j.begin_object();
  j.field("displayTimeUnit", "ms");
  j.begin_array("traceEvents");
  for (std::size_t uid = 0; uid < attrs_.size(); ++uid) {
    if (!attrs_[uid].attached) continue;
    const auto pid = static_cast<std::int64_t>(uid);
    j.begin_object()
        .field("ph", "M")
        .field("name", "process_name")
        .field("pid", pid)
        .begin_object("args")
        .field("name", "proc " + std::to_string(uid))
        .end_object()
        .end_object();
    j.begin_object()
        .field("ph", "M")
        .field("name", "thread_name")
        .field("pid", pid)
        .field("tid", 0)
        .begin_object("args")
        .field("name", "fiber")
        .end_object()
        .end_object();
    j.begin_object()
        .field("ph", "M")
        .field("name", "thread_name")
        .field("pid", pid)
        .field("tid", 1)
        .begin_object("args")
        .field("name", "net")
        .end_object()
        .end_object();
  }
  for (const TraceEvent& e : events) {
    const auto pid = static_cast<std::int64_t>(e.proc);
    switch (e.type) {
      case TraceEvent::Type::kSpan:
        j.begin_object()
            .field("ph", "X")
            .field("name", e.label)
            .field("cat", "dsm")
            .field("pid", pid)
            .field("tid", 0)
            .field("ts", us(e.ts))
            .field("dur", us(e.dur))
            .end_object();
        break;
      case TraceEvent::Type::kInstant:
        j.begin_object()
            .field("ph", "i")
            .field("s", "t")
            .field("name", e.label)
            .field("cat", "dsm")
            .field("pid", pid)
            .field("tid", 0)
            .field("ts", us(e.ts))
            .begin_object("args")
            .field("n", e.arg)
            .end_object()
            .end_object();
        break;
      case TraceEvent::Type::kFlowSend:
        j.begin_object()
            .field("ph", "X")
            .field("name", e.label)
            .field("cat", "net")
            .field("pid", pid)
            .field("tid", 1)
            .field("ts", us(e.ts))
            .field("dur", 0.0)
            .begin_object("args")
            .field("bytes", e.arg)
            .end_object()
            .end_object();
        if (paired(e.id)) {
          j.begin_object()
              .field("ph", "s")
              .field("id", static_cast<std::int64_t>(e.id))
              .field("name", "msg")
              .field("cat", "net")
              .field("pid", pid)
              .field("tid", 1)
              .field("ts", us(e.ts))
              .end_object();
        }
        break;
      case TraceEvent::Type::kFlowRecv:
        j.begin_object()
            .field("ph", "X")
            .field("name", e.label)
            .field("cat", "net")
            .field("pid", pid)
            .field("tid", 1)
            .field("ts", us(e.ts))
            .field("dur", 0.0)
            .end_object();
        if (paired(e.id)) {
          j.begin_object()
              .field("ph", "f")
              .field("bp", "e")
              .field("id", static_cast<std::int64_t>(e.id))
              .field("name", "msg")
              .field("cat", "net")
              .field("pid", pid)
              .field("tid", 1)
              .field("ts", us(e.ts))
              .end_object();
        }
        break;
      case TraceEvent::Type::kCounter:
        j.begin_object()
            .field("ph", "C")
            .field("name", e.label)
            .field("cat", "stats")
            .field("pid", 0)
            .field("tid", 0)
            .field("ts", us(e.ts))
            .begin_object("args")
            .field("value", static_cast<std::int64_t>(e.id))
            .end_object()
            .end_object();
        break;
    }
  }
  j.end_array();
  j.end_object();
  return j.str();
}

void TraceRecorder::write_chrome_trace(const std::string& path) const {
  const std::string doc = chrome_trace_json();
  std::ofstream f(path, std::ios::trunc);
  ANOW_CHECK_MSG(f.good(), "cannot open " << path);
  f << doc << "\n";
  ANOW_CHECK_MSG(f.good(), "write failed: " << path);
}

}  // namespace anow::obs
