// Trace/attribution tests (DESIGN.md §11): recorder unit behavior
// (conservation, innermost-wins, ring eviction, flow pairing, export), and
// whole-system invariants over the engine × dir-shards × placement
// grid — bucket conservation when traced, plus traced-vs-untraced
// counter and checksum identity (tracing must not perturb the run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "dsm/system.hpp"
#include "harness/runner.hpp"
#include "obs/trace.hpp"
#include "ompx/runtime.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace anow::obs {
namespace {

// ---------------------------------------------------------------------------
// Recorder unit tests (bare simulator, no DSM)
// ---------------------------------------------------------------------------

struct Fixture {
  sim::Simulator sim;
  util::StatsRegistry stats;
};

TEST(TraceRecorder, BucketsConserveRuntimeExactly) {
  Fixture f;
  TraceRecorder rec(f.sim, f.stats, TraceOptions{});
  rec.attach_process(0);
  rec.attach_process(1);
  f.sim.spawn("p0", [&] {
    {
      ScopedSpan s(&rec, 0, SpanKind::kCompute);
      f.sim.sleep_for(1000);
    }
    f.sim.sleep_for(10);  // idle
    {
      ScopedSpan s(&rec, 0, SpanKind::kBarrierWait);
      f.sim.sleep_for(500);
    }
  });
  f.sim.spawn("p1", [&] {
    ScopedSpan s(&rec, 1, SpanKind::kFaultService);
    f.sim.sleep_for(2000);
  });
  f.sim.run();
  rec.finalize();
  const Report rep = rec.report();
  ASSERT_EQ(rep.procs.size(), 2u);
  EXPECT_TRUE(rep.conserved());
  const auto& p0 = rep.procs[0];
  EXPECT_EQ(p0.buckets[static_cast<int>(Bucket::kCompute)], 1000);
  EXPECT_EQ(p0.buckets[static_cast<int>(Bucket::kBarrier)], 500);
  // p0 idles from its last span end to the global finalize time (p1 runs
  // until t=2000): 10 ns between its spans + 490 ns at the tail.
  EXPECT_EQ(p0.buckets[static_cast<int>(Bucket::kIdle)], 500);
  EXPECT_EQ(rep.procs[1].buckets[static_cast<int>(Bucket::kFault)], 2000);
  // Accums published in seconds, summing to the total runtime.
  EXPECT_DOUBLE_EQ(f.stats.accum_value("obs.time.total"),
                   sim::to_seconds(rep.total_runtime()));
}

TEST(TraceRecorder, InnermostOpenSpanWins) {
  Fixture f;
  TraceRecorder rec(f.sim, f.stats, TraceOptions{});
  rec.attach_process(0);
  f.sim.spawn("p", [&] {
    ScopedSpan outer(&rec, 0, SpanKind::kBarrierWait);
    f.sim.sleep_for(100);
    {
      ScopedSpan inner(&rec, 0, SpanKind::kFaultService);
      f.sim.sleep_for(40);
    }
    f.sim.sleep_for(100);
  });
  f.sim.run();
  rec.finalize();
  const Report rep = rec.report();
  EXPECT_TRUE(rep.conserved());
  EXPECT_EQ(rep.procs[0].buckets[static_cast<int>(Bucket::kBarrier)], 200);
  EXPECT_EQ(rep.procs[0].buckets[static_cast<int>(Bucket::kFault)], 40);
}

TEST(TraceRecorder, EventsOffRecordsNothing) {
  Fixture f;
  TraceRecorder rec(f.sim, f.stats, TraceOptions{});  // attribution only
  rec.attach_process(0);
  f.sim.spawn("p", [&] {
    ScopedSpan s(&rec, 0, SpanKind::kCompute);
    f.sim.sleep_for(10);
    rec.flow_begin(0, "seg", 64);
  });
  f.sim.run();
  rec.finalize();
  EXPECT_TRUE(rec.events_snapshot().empty());
  EXPECT_EQ(f.stats.counter_value("obs.trace.events_recorded"), 0);
}

TEST(TraceRecorder, RingEvictsOldestAndCountsDrops) {
  Fixture f;
  TraceOptions opts;
  opts.record_events = true;
  opts.ring_capacity = 4;
  TraceRecorder rec(f.sim, f.stats, opts);
  rec.attach_process(0);
  f.sim.spawn("p", [&] {
    for (int i = 0; i < 10; ++i) {
      rec.instant(0, "mark", i);
      f.sim.sleep_for(1);
    }
  });
  f.sim.run();
  rec.finalize();
  const auto events = rec.events_snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest evicted: the survivors are marks 6..9, in order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].arg, 6 + i);
  }
  const Report rep = rec.report();
  EXPECT_EQ(rep.events_dropped, 6);
  EXPECT_EQ(rep.events_recorded, 10);
}

TEST(TraceRecorder, FlowsPairAcrossTracksAndUnpairedAreCulled) {
  Fixture f;
  TraceOptions opts;
  opts.record_events = true;
  TraceRecorder rec(f.sim, f.stats, opts);
  rec.attach_process(0);
  rec.attach_process(1);
  f.sim.spawn("p", [&] {
    const std::uint64_t a = rec.flow_begin(0, "barrier_arrive", 48);
    f.sim.sleep_for(5);
    rec.flow_end(a, 1, f.sim.now(), "barrier_arrive");
    rec.flow_begin(0, "page_request", 32);  // delivery never recorded
  });
  f.sim.run();
  rec.finalize();
  const std::string json = rec.chrome_trace_json();
  // One paired flow: exactly one "s" and one "f" phase event.
  auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"s\""), 1u);
  EXPECT_EQ(count("\"ph\":\"f\""), 1u);
  // Both anchors still exported (they carry the byte payloads).
  EXPECT_EQ(count("\"barrier_arrive\""), 2u);
  EXPECT_EQ(count("\"page_request\""), 1u);
}

TEST(TraceRecorder, EpochDeltasAndStalls) {
  Fixture f;
  TraceRecorder rec(f.sim, f.stats, TraceOptions{});
  rec.attach_process(0);
  rec.attach_process(1);
  f.sim.spawn("p", [&] {
    f.stats.counter("net.messages") = 7;
    f.stats.counter("net.bytes") = 700;
    rec.note_barrier_arrive(1);
    f.sim.sleep_for(30);
    rec.note_barrier_arrive(0);
    f.sim.sleep_for(10);
    rec.note_barrier_release();
    f.stats.counter("net.messages") = 12;
    f.sim.sleep_for(100);
    rec.note_barrier_arrive(0);
    rec.note_barrier_arrive(1);
    rec.note_barrier_release();
  });
  f.sim.run();
  rec.finalize();
  const Report rep = rec.report();
  ASSERT_EQ(rep.epochs.size(), 2u);
  EXPECT_EQ(rep.epochs[0].epoch, 1);
  EXPECT_EQ(rep.epochs[0].msgs, 7);
  EXPECT_EQ(rep.epochs[0].bytes, 700);
  ASSERT_EQ(rep.epochs[0].stalls.size(), 2u);
  EXPECT_EQ(rep.epochs[0].stalls[0].first, 1);
  EXPECT_EQ(rep.epochs[0].stalls[0].second, 40);  // arrived first, waited most
  EXPECT_EQ(rep.epochs[0].stalls[1].second, 10);
  EXPECT_EQ(rep.epochs[1].msgs, 5);  // delta, not cumulative
  EXPECT_EQ(rep.epochs[1].bytes, 0);
}

// ---------------------------------------------------------------------------
// Whole-system invariants over the configuration grid
// ---------------------------------------------------------------------------

struct GridPoint {
  dsm::EngineKind engine;
  int dir_shards;
  dsm::PlacementMode placement;
};

std::vector<GridPoint> grid() {
  std::vector<GridPoint> points;
  for (const auto engine : {dsm::EngineKind::kLrc, dsm::EngineKind::kHomeLrc}) {
    for (const int shards : {1, 4}) {
      for (const auto pl :
           {dsm::PlacementMode::kStatic, dsm::PlacementMode::kAdaptive}) {
        points.push_back({engine, shards, pl});
      }
    }
  }
  return points;
}

harness::RunConfig grid_config(const GridPoint& g) {
  harness::RunConfig cfg;
  cfg.app = "jacobi";
  cfg.size = apps::Size::kTest;
  cfg.nprocs = 4;
  cfg.adaptive = false;
  cfg.engine = g.engine;
  cfg.dir_shards = g.dir_shards;
  cfg.placement = g.placement;
  cfg.trace_file.clear();  // ignore any ambient ANOW_TRACE
  // Ignore any ambient ANOW_RACE_CHECK too: the detector legitimately
  // publishes obs.race.* counters, which the no-obs-stats assertion below
  // would misread as tracing perturbation.
  cfg.race_check = dsm::RaceCheckMode::kOff;
  return cfg;
}

std::string point_name(const GridPoint& g) {
  std::ostringstream os;
  os << dsm::enum_name(g.engine) << "/shards=" << g.dir_shards << "/"
     << dsm::enum_name(g.placement);
  return os.str();
}

TEST(TraceGrid, AttributionConservesOnEveryConfiguration) {
  for (const GridPoint& g : grid()) {
    SCOPED_TRACE(point_name(g));
    harness::RunConfig cfg = grid_config(g);
    cfg.time_attribution = true;
    const harness::RunResult r = harness::run_workload(cfg);
    ASSERT_TRUE(r.trace.has_value());
    EXPECT_TRUE(r.trace->conserved());
    EXPECT_EQ(r.trace->procs.size(), 4u);
    EXPECT_GT(r.trace->total_runtime(), 0);
    EXPECT_GT(r.trace->total_bucket(Bucket::kCompute), 0);
    // Jacobi iterates over barriers: each epoch records one stall per proc.
    ASSERT_FALSE(r.trace->epochs.empty());
    for (const auto& e : r.trace->epochs) {
      EXPECT_EQ(e.stalls.size(), 4u);
      EXPECT_GE(e.msgs, 0);
    }
  }
}

TEST(TraceGrid, TracingDoesNotPerturbTheRun) {
  for (const GridPoint& g : grid()) {
    SCOPED_TRACE(point_name(g));
    harness::RunConfig base = grid_config(g);
    const harness::RunResult untraced = harness::run_workload(base);
    harness::RunConfig traced_cfg = grid_config(g);
    traced_cfg.time_attribution = true;
    const harness::RunResult traced = harness::run_workload(traced_cfg);

    EXPECT_EQ(untraced.checksum, traced.checksum);
    EXPECT_EQ(untraced.seconds, traced.seconds);
    EXPECT_EQ(untraced.messages, traced.messages);
    EXPECT_EQ(untraced.bytes, traced.bytes);
    // Every non-obs counter must be byte-identical.
    for (const auto& [name, value] : untraced.stats.counters) {
      EXPECT_EQ(value, traced.stats.counter(name)) << name;
    }
    // And the untraced run must carry no obs.* stats at all.
    for (const auto& [name, value] : untraced.stats.counters) {
      EXPECT_NE(name.rfind("obs.", 0), 0u) << name;
    }
    for (const auto& [name, value] : untraced.stats.accums) {
      EXPECT_NE(name.rfind("obs.", 0), 0u) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Full event recording through the DSM stack
// ---------------------------------------------------------------------------

struct SpanSlice {
  sim::Time begin;
  sim::Time end;
};

TEST(TraceEvents, SpansNestAndFlowsPairOnAJacobiRun) {
  sim::Cluster cluster(sim::CostModel{}, 4, /*seed=*/1);
  obs::TraceOptions topts;
  topts.record_events = true;
  topts.ring_capacity = 1 << 20;  // no eviction: every flow stays paired
  cluster.enable_trace(topts);
  dsm::DsmConfig dsm_cfg;
  auto workload = apps::make_workload("jacobi", apps::Size::kTest);
  dsm_cfg = workload->dsm_config();
  dsm::DsmSystem system(cluster, dsm_cfg);
  ompx::Runtime rt(system);
  workload->setup(rt);
  system.start(4);
  system.run([&](dsm::DsmProcess& master) { workload->master_main(master); });

  TraceRecorder* rec = cluster.trace();
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->finalized());
  const Report rep = rec->report();
  EXPECT_TRUE(rep.conserved());
  EXPECT_EQ(rep.events_dropped, 0);
  EXPECT_GT(rep.flows, 0);

  // Flow pairing is exact with no eviction: the send and recv id sets match.
  std::set<std::uint64_t> sends, recvs;
  std::map<int, std::vector<SpanSlice>> spans_by_track;
  for (const TraceEvent& e : rec->events_snapshot()) {
    switch (e.type) {
      case TraceEvent::Type::kFlowSend:
        EXPECT_TRUE(sends.insert(e.id).second) << "duplicate flow id";
        break;
      case TraceEvent::Type::kFlowRecv:
        EXPECT_TRUE(recvs.insert(e.id).second) << "duplicate delivery";
        break;
      case TraceEvent::Type::kSpan:
        spans_by_track[e.proc].push_back(SpanSlice{e.ts, e.ts + e.dur});
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(sends, recvs);

  // Spans on one track are properly nested: any two either do not overlap
  // or one contains the other (the fiber's spans form a stack).
  for (const auto& [track, spans] : spans_by_track) {
    EXPECT_FALSE(spans.empty());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t k = i + 1; k < spans.size(); ++k) {
        const SpanSlice& a = spans[i];
        const SpanSlice& b = spans[k];
        const bool disjoint = a.end <= b.begin || b.end <= a.begin;
        const bool a_in_b = b.begin <= a.begin && a.end <= b.end;
        const bool b_in_a = a.begin <= b.begin && b.end <= a.end;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "track " << track << ": [" << a.begin << "," << a.end
            << ") straddles [" << b.begin << "," << b.end << ")";
      }
    }
  }

  // The export is structurally sound and the breakdown table has one row
  // per process plus the totals row.
  const std::string json = rec->chrome_trace_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"barrier_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"compute\""), std::string::npos);
  EXPECT_EQ(rec->breakdown_table().num_rows(), 5u);
}

TEST(TraceEvents, TraceFileConfigWritesLoadableJson) {
  const std::string path = "trace_test_out.json";
  std::remove(path.c_str());
  harness::RunConfig cfg;
  cfg.app = "jacobi";
  cfg.size = apps::Size::kTest;
  cfg.nprocs = 4;
  cfg.adaptive = false;
  cfg.trace_file = path;
  const harness::RunResult r = harness::run_workload(cfg);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_GT(r.trace->events_recorded, 0);
  EXPECT_GT(r.stats.counter("obs.trace.events_recorded"), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file not written";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  // Balanced braces/brackets (the CI smoke leg json.load()s it for real).
  std::int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anow::obs
