// Reproduces the §5.4 micro analysis of adaptation costs:
//   1. the cost of adaptation is proportional to the maximum network
//      traffic per link generated by the adapt event;
//   2. smaller problem sizes give proportionally smaller adaptation costs;
//   3. the cost of adaptation decreases as the number of processes grows;
//   4. handling multiple adapt events at one adaptation point is much
//      cheaper than handling them at successive points;
//   5. repeated adaptations get cheaper (only accessed pages move).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <tuple>

#include "apps/jacobi.hpp"
#include "bench_common.hpp"
#include "dsm/channel.hpp"
#include "dsm/diff.hpp"
#include "dsm/msg.hpp"
#include "dsm/system.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace anow {
namespace {

// ---------------------------------------------------------------------------
// Hot-path primitive throughput (host wall-clock), written to
// BENCH_micro.json so future PRs have a perf trajectory to compare against.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct PrimitiveResult {
  std::int64_t ops = 0;
  double seconds = 0.0;
  double ops_per_s() const { return seconds > 0 ? ops / seconds : 0.0; }
};

/// make_diff/apply_diff throughput over randomized pages (~64 scattered
/// dirty words, the protocol's typical false-sharing shape).
std::pair<PrimitiveResult, PrimitiveResult> diff_throughput() {
  using namespace dsm;
  util::Rng rng(20260728);
  constexpr int kVariants = 64;
  constexpr int kIters = 4000;
  std::vector<std::vector<std::uint8_t>> twins, curs;
  std::vector<DiffBytes> diffs;
  for (int v = 0; v < kVariants; ++v) {
    std::vector<std::uint8_t> twin(kPageSize), cur;
    for (auto& b : twin) b = static_cast<std::uint8_t>(rng.next_u64());
    cur = twin;
    const int changes = 16 + static_cast<int>(rng.next_below(96));
    for (int c = 0; c < changes; ++c) {
      const auto w = rng.next_below(kWordsPerPage);
      cur[w * kWordSize] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    twins.push_back(std::move(twin));
    curs.push_back(std::move(cur));
  }
  PrimitiveResult make;
  auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    DiffBytes d = make_diff(twins[i % kVariants].data(),
                            curs[i % kVariants].data());
    if (i < kVariants) diffs.push_back(std::move(d));
  }
  make.seconds = seconds_since(t0);
  make.ops = kIters;

  PrimitiveResult apply;
  std::vector<std::uint8_t> target = twins[0];
  t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    apply_diff(target.data(), diffs[i % kVariants]);
  }
  apply.seconds = seconds_since(t0);
  apply.ops = kIters;
  return {make, apply};
}

dsm::Interval random_release_interval(util::Rng& rng) {
  dsm::Interval iv;
  iv.creator = static_cast<dsm::Uid>(rng.next_below(4));
  iv.iseq = static_cast<std::int32_t>(1 + rng.next_below(100));
  iv.lamport = static_cast<std::int64_t>(rng.next_below(1000));
  for (int n = 0; n < 3; ++n) {
    iv.notices.push_back({static_cast<dsm::PageId>(rng.next_below(256)),
                          dsm::Protocol::kMultiWriter});
  }
  return iv;
}

/// Envelope pack/unpack throughput: segments staged into a Channel, merged
/// into envelopes at a flush (pack), then visited segment by segment with
/// per-kind wire accounting (unpack) — the per-message hot path of every
/// send since the transport redesign (DESIGN.md §7).
PrimitiveResult envelope_pack_unpack_throughput() {
  using namespace dsm;
  util::Rng rng(20260728);
  constexpr int kIters = 20000;
  constexpr int kSegmentsPerFlush = 6;
  std::int64_t sink_bytes = 0;
  std::int64_t seg_count[kNumSegmentKinds] = {};
  Channel ch(/*self=*/0, [&](Uid /*to*/, Envelope env) {
    // "Unpack": the receive-side walk — per-segment kind dispatch plus the
    // wire accounting send_envelope performs.
    for (const auto& seg : env.segments) {
      seg_count[static_cast<int>(segment_kind(seg))]++;
      sink_bytes += segment_wire_bytes(seg);
    }
    sink_bytes += env.wire_bytes();
  });
  // A release-point-shaped mix: a flush batch, an arrival, interval
  // payloads, and small control segments.
  PrimitiveResult out;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    const Uid to = static_cast<Uid>(rng.next_below(4));
    HomeFlush flush;
    flush.writer = 0;
    flush.pages.push_back(
        {static_cast<PageId>(rng.next_below(256)), 1,
         DiffBytes(32 + rng.next_below(96), std::uint8_t{0})});
    ch.stage(to, std::move(flush));
    Interval iv;
    iv.creator = 0;
    iv.iseq = i + 1;
    iv.notices.push_back({static_cast<PageId>(rng.next_below(256)),
                          Protocol::kMultiWriter});
    ch.stage(to, BarrierArrive{0, 1, std::move(iv), 0});
    ch.stage(to, GcAck{0});
    ch.stage(to, PageRequest{0, static_cast<PageId>(rng.next_below(256)), 0,
                             static_cast<std::uint64_t>(i)});
    BarrierRelease rel;
    rel.barrier_id = 1;
    rel.intervals.push_back(random_release_interval(rng));
    ch.stage(to, std::move(rel));
    ch.send(to, LockAcquireReq{0, 3});
  }
  ch.flush_all();
  out.seconds = seconds_since(t0);
  out.ops = static_cast<std::int64_t>(kIters) * kSegmentsPerFlush;
  // Keep the accounting observable so the loop cannot be optimized away.
  std::int64_t total = sink_bytes;
  for (const auto c : seg_count) total += c;
  if (total == 0) std::cerr << "envelope bench: impossible zero total\n";
  return out;
}

/// End-to-end page-fetch path throughput: repeated rounds of a slave
/// dirtying pages the master then reads (full protocol + simulator cost).
PrimitiveResult page_fetch_throughput() {
  using namespace dsm;
  PrimitiveResult out;
  const auto t0 = Clock::now();
  sim::Cluster cluster({}, 2);
  DsmConfig cfg;
  cfg.heap_bytes = 4 << 20;
  cfg.default_protocol = Protocol::kSingleWriter;
  DsmSystem sys(cluster, cfg);
  constexpr std::int64_t kPages = 256;
  constexpr int kRounds = 16;
  auto touch = sys.register_task(
      "touch", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        if (p.pid() != 1) return;
        GAddr addr;
        std::memcpy(&addr, a.data(), sizeof(addr));
        p.write_range(addr, kPages * kPageSize);
        auto* d = p.ptr<std::int64_t>(addr);
        for (std::int64_t i = 0; i < kPages; ++i) d[i * 512] += 1;
      });
  sys.start(2);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kPages * kPageSize);
    std::vector<std::uint8_t> packed(sizeof(addr));
    std::memcpy(packed.data(), &addr, sizeof(addr));
    for (int r = 0; r < kRounds; ++r) {
      sys.run_parallel(touch, packed);
      master.read_range(addr, kPages * kPageSize);
    }
  });
  out.ops = sys.stats().counter_value("dsm.page_fetches");
  out.seconds = seconds_since(t0);
  return out;
}

/// Owner-directory fan-out: 8 processes first-touch disjoint page sets at
/// once, so every fetch is an owner lookup at the page's initial holder —
/// the master alone with one shard, spread across the first `shards`
/// processes otherwise (DESIGN.md §8).  Reported per shard
/// count: host throughput, *virtual* completion time (the serialisation
/// the sharding removes), and the master-inbound owner-lookup count.
struct DirFanResult {
  PrimitiveResult prim;
  double sim_seconds = 0.0;
  std::int64_t master_lookups = 0;
  std::int64_t shard_lookups = 0;
};

DirFanResult dir_fetch_fan(int shards) {
  using namespace dsm;
  DirFanResult out;
  const auto t0 = Clock::now();
  constexpr int kProcs = 8;
  sim::Cluster cluster({}, kProcs);
  DsmConfig cfg;
  cfg.heap_bytes = 4 << 20;  // 1024 pages
  cfg.default_protocol = Protocol::kSingleWriter;
  cfg.dir_shards = shards;
  DsmSystem sys(cluster, cfg);
  constexpr std::int64_t kPages = 1024;
  auto touch = sys.register_task(
      "fan", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        GAddr addr;
        std::memcpy(&addr, a.data(), sizeof(addr));
        const std::int64_t per = kPages / p.nprocs();
        const GAddr lo = addr + static_cast<GAddr>(p.pid()) * per * kPageSize;
        p.read_range(lo, static_cast<std::size_t>(per) * kPageSize);
      });
  sys.start(kProcs);
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(kPages * kPageSize);
    std::vector<std::uint8_t> packed(sizeof(addr));
    std::memcpy(packed.data(), &addr, sizeof(addr));
    sys.run_parallel(touch, packed);
    out.sim_seconds = sim::to_seconds(master.now());
  });
  out.prim.ops = sys.stats().counter_value("dsm.page_fetches");
  out.prim.seconds = seconds_since(t0);
  out.master_lookups =
      sys.stats().counter_value("dsm.owner_lookups.master_inbound");
  out.shard_lookups =
      sys.stats().counter_value("dsm.owner_lookups.shard_inbound");
  return out;
}

/// Home-migration round (DESIGN.md §9): a rotating dominant writer over a
/// page range under the home engine with --placement adaptive.  Reports
/// pages re-homed per GC round and the virtual completion time next to the
/// static layout's — the placement subsystem's hot path (monitor windows,
/// policy decisions, moves riding the commit round) end to end.
struct HomeMigrationResult {
  PrimitiveResult prim;        // ops = pages re-homed
  double sim_seconds = 0.0;
  double sim_seconds_static = 0.0;
  std::int64_t home_moves = 0;
  std::int64_t gc_rounds = 0;
  double moves_per_gc_round = 0.0;
};

HomeMigrationResult home_migration_round() {
  using namespace dsm;
  HomeMigrationResult out;
  constexpr int kProcs = 4;
  constexpr std::int64_t kBlocks = 8;
  constexpr std::int64_t kBlockPages = 4;
  constexpr int kIters = 48;
  constexpr int kRotate = 8;
  auto run = [&](PlacementMode placement, std::int64_t* moves,
                 std::int64_t* gcs) {
    sim::Cluster cluster({}, kProcs);
    DsmConfig cfg;
    cfg.heap_bytes = 4 << 20;
    cfg.engine = EngineKind::kHomeLrc;
    cfg.placement = placement;
    DsmSystem sys(cluster, cfg);
    struct Args {
      GAddr addr;
      std::int64_t iter;
    };
    auto task = sys.register_task(
        "rotate", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
          Args args;
          std::memcpy(&args, a.data(), sizeof(args));
          const std::int64_t words = kBlockPages * 512;
          for (std::int64_t b = 0; b < kBlocks; ++b) {
            if ((b + args.iter / kRotate) % p.nprocs() != p.pid()) continue;
            const GAddr lo = args.addr + b * kBlockPages * kPageSize;
            p.write_range(lo, static_cast<std::size_t>(words) * 8);
            auto* d = p.ptr<std::int64_t>(lo);
            for (std::int64_t i = 0; i < words; ++i) d[i] += args.iter + 1;
          }
          p.barrier(1);
        });
    double sim_s = 0.0;
    sys.start(kProcs);
    sys.run([&](DsmProcess& master) {
      const GAddr addr =
          sys.shared_malloc(kBlocks * kBlockPages * kPageSize);
      for (int it = 0; it < kIters; ++it) {
        Args args{addr, it};
        std::vector<std::uint8_t> packed(sizeof(args));
        std::memcpy(packed.data(), &args, sizeof(args));
        sys.run_parallel(task, packed);
      }
      sim_s = sim::to_seconds(master.now());
    });
    if (moves) *moves = sys.stats().counter_value("dsm.placement.home_moves");
    if (gcs) *gcs = sys.stats().counter_value("dsm.gc_runs");
    return sim_s;
  };
  const auto t0 = Clock::now();
  out.sim_seconds = run(PlacementMode::kAdaptive, &out.home_moves,
                        &out.gc_rounds);
  out.prim.seconds = seconds_since(t0);
  out.prim.ops = out.home_moves;
  out.sim_seconds_static = run(PlacementMode::kStatic, nullptr, nullptr);
  out.moves_per_gc_round =
      out.gc_rounds > 0 ? static_cast<double>(out.home_moves) /
                              static_cast<double>(out.gc_rounds)
                        : 0.0;
  return out;
}

/// Bare simulator event-loop throughput: a self-rescheduling chain mixing
/// immediate events (the signal()/spawn shape that dominates protocol
/// traffic and rides the FIFO lane of the split queue) with occasional
/// timers (the heap lane), reported as events executed per host second.
PrimitiveResult sim_event_loop_throughput() {
  PrimitiveResult out;
  constexpr std::int64_t kEvents = 400000;
  sim::Simulator sim;
  std::int64_t remaining = kEvents;
  std::function<void()> step = [&] {
    if (--remaining <= 0) return;
    if (remaining % 4 == 0) {
      sim.after(100, step);  // timer lane (~1 in 4, generous vs protocol mix)
    } else {
      sim.at(sim.now(), step);  // immediate lane
    }
  };
  const auto t0 = Clock::now();
  sim.at(0, step);
  sim.run();
  out.seconds = seconds_since(t0);
  out.ops = static_cast<std::int64_t>(sim.events_executed());
  return out;
}

/// Fiber context switches: one simulated process sleeping one tick at a
/// time, so every op is a park into the event loop and a resume out of it
/// (the handoff every blocking protocol wait pays).
PrimitiveResult fiber_switch_throughput() {
  PrimitiveResult out;
  constexpr std::int64_t kSwitches = 20000;
  sim::Simulator sim;
  sim.spawn("sleeper", [&] {
    for (std::int64_t i = 0; i < kSwitches; ++i) sim.sleep_for(1);
  });
  const auto t0 = Clock::now();
  sim.run();
  out.seconds = seconds_since(t0);
  out.ops = kSwitches;
  return out;
}

/// Modelled network sends: page-sized messages between 8 hosts, each
/// scheduled through the link model and delivered by the event loop.
PrimitiveResult network_send_throughput() {
  PrimitiveResult out;
  constexpr int kHosts = 8;
  constexpr int kSends = 1 << 16;
  sim::Cluster cluster({}, kHosts);
  util::StatsRegistry stats;
  sim::Network net(cluster.sim(), cluster.cost(), stats, kHosts);
  std::int64_t delivered = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSends; ++i) {
    net.send(i % kHosts, (i + 3) % kHosts, 4096, [&delivered] { ++delivered; });
  }
  cluster.sim().run();
  out.seconds = seconds_since(t0);
  out.ops = delivered;
  return out;
}

/// Barrier-round throughput: 4 processes spinning on barriers (arrival,
/// interval logging, release broadcast).
PrimitiveResult barrier_round_throughput() {
  using namespace dsm;
  PrimitiveResult out;
  const auto t0 = Clock::now();
  sim::Cluster cluster({}, 4);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  DsmSystem sys(cluster, cfg);
  constexpr int kBarriers = 400;
  auto spin = sys.register_task(
      "spin", [](DsmProcess& p, const std::vector<std::uint8_t>&) {
        for (int i = 0; i < kBarriers; ++i) p.barrier(1);
      });
  sys.start(4);
  sys.run([&](DsmProcess&) { sys.run_parallel(spin, {}); });
  out.ops = sys.stats().counter_value("dsm.barriers");
  out.seconds = seconds_since(t0);
  return out;
}

/// Barrier rounds through the hierarchical control plane (DESIGN.md §12):
/// the same spin workload at larger teams, flat (unbounded fanout) vs
/// combining tree, so the
/// baseline tracks both the host cost of the tree machinery and the
/// master-inbound relief it buys.
struct TreeBarrierResult {
  PrimitiveResult prim;
  double sim_seconds = 0.0;
  double master_in_per_barrier = 0.0;
};

TreeBarrierResult barrier_round_tree_throughput(int nprocs, int fanout) {
  using namespace dsm;
  TreeBarrierResult out;
  const auto t0 = Clock::now();
  sim::Cluster cluster({}, nprocs);
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.fanout = fanout;
  DsmSystem sys(cluster, cfg);
  // Fewer rounds at the big team: the point is per-barrier shape, not
  // wall-clock endurance.
  const int barriers = nprocs >= 64 ? 50 : 400;
  struct Args {
    std::int32_t rounds;
  };
  auto spin = sys.register_task(
      "spin", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        for (std::int32_t i = 0; i < args.rounds; ++i) p.barrier(1);
      });
  sys.start(nprocs);
  sys.run([&](DsmProcess& master) {
    Args args{barriers};
    std::vector<std::uint8_t> packed(sizeof(args));
    std::memcpy(packed.data(), &args, sizeof(args));
    sys.run_parallel(spin, packed);
    out.sim_seconds = sim::to_seconds(master.now());
  });
  out.prim.ops = sys.stats().counter_value("dsm.barriers");
  out.prim.seconds = seconds_since(t0);
  out.master_in_per_barrier =
      static_cast<double>(
          sys.stats().counter_value("dsm.ctrl.master_inbound")) /
      static_cast<double>(out.prim.ops > 0 ? out.prim.ops : 1);
  return out;
}

/// One rep of every primitive.  Wall-clock fields vary from rep to rep;
/// the virtual-time and counter fields do not.
struct PrimitiveRun {
  struct TreeSweepPoint {
    int nprocs;
    int fanout;
    std::string name;
    TreeBarrierResult result;
  };

  PrimitiveResult diff_make, diff_apply, envelope, sim_loop, fiber_switch,
      network_send, page_fetch, barrier;
  std::vector<TreeSweepPoint> tree_sweep;
  HomeMigrationResult migration;
  std::vector<std::pair<int, DirFanResult>> dir_fans;

  /// Every wall-clock measurement of the rep, in a fixed order.
  std::vector<PrimitiveResult*> timed() {
    std::vector<PrimitiveResult*> out = {
        &diff_make,    &diff_apply,   &envelope,   &sim_loop,
        &fiber_switch, &network_send, &page_fetch, &barrier};
    for (auto& point : tree_sweep) out.push_back(&point.result.prim);
    out.push_back(&migration.prim);
    for (auto& fan : dir_fans) out.push_back(&fan.second.prim);
    return out;
  }
};

PrimitiveRun measure_primitives() {
  PrimitiveRun run;
  std::tie(run.diff_make, run.diff_apply) = diff_throughput();
  run.envelope = envelope_pack_unpack_throughput();
  run.sim_loop = sim_event_loop_throughput();
  run.fiber_switch = fiber_switch_throughput();
  run.network_send = network_send_throughput();
  run.page_fetch = page_fetch_throughput();
  run.barrier = barrier_round_throughput();
  // Control-plane sweep: flat (unbounded fanout) vs combining tree at
  // fanout 4 and 8, small and large teams (at 8 procs fanout 8 the tree
  // covers the team and is flat — the byte-identity guard rides the
  // regression gate for free).
  for (const int n : {8, 64}) {
    run.tree_sweep.push_back({n, dsm::kUnboundedFanout,
                              "barrier_round_n" + std::to_string(n) + "_flat",
                              {}});
    for (const int k : {4, 8}) {
      run.tree_sweep.push_back({n, k,
                                "barrier_round_n" + std::to_string(n) +
                                    "_tree" + std::to_string(k),
                                {}});
    }
  }
  for (auto& point : run.tree_sweep) {
    point.result = barrier_round_tree_throughput(point.nprocs, point.fanout);
  }
  run.migration = home_migration_round();
  // Owner-directory shard sweep: the same first-touch fan-out against the
  // master alone and against 4 and 8 shard holders.
  for (const int s : {1, 4, 8}) {
    run.dir_fans.emplace_back(s, dir_fetch_fan(s));
  }
  return run;
}

/// Reps of the primitive set per invocation.  One shot of a primitive that
/// runs for milliseconds reads what the host was doing in those
/// milliseconds: a busy neighbour halves it.  The table, BENCH_micro.json
/// and the --check-primitives gate all read the median of these reps.
constexpr int kPrimitiveReps = 5;

/// Per measurement, the rep with the median ops/s (kPrimitiveReps is odd,
/// so the median is one rep's measurement).
PrimitiveRun median_run(std::vector<PrimitiveRun> reps) {
  PrimitiveRun out = reps.front();
  const auto slots = out.timed();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    std::vector<PrimitiveResult> seen;
    for (auto& rep : reps) seen.push_back(*rep.timed()[i]);
    const auto mid =
        seen.begin() + static_cast<std::ptrdiff_t>(seen.size() / 2);
    std::nth_element(seen.begin(), mid, seen.end(),
                     [](const PrimitiveResult& a, const PrimitiveResult& b) {
                       return a.ops_per_s() < b.ops_per_s();
                     });
    *slots[i] = *mid;
  }
  return out;
}

/// Measures every primitive kPrimitiveReps times, prints the median table,
/// rewrites BENCH_micro.json with it, and returns the median name ->
/// ops_per_s map for --check-primitives.
std::map<std::string, double> run_primitives_and_write_json() {
  bench::print_header(
      "Hot-path primitive throughput (host wall-clock)",
      "Ops/sec through the consistency engine's hot paths, the median of " +
          std::to_string(kPrimitiveReps) +
          " reps; written to BENCH_micro.json as the perf baseline for "
          "future PRs.");
  std::vector<PrimitiveRun> reps;
  for (int i = 0; i < kPrimitiveReps; ++i) reps.push_back(measure_primitives());
  const PrimitiveRun run = median_run(std::move(reps));

  util::Table t({"Primitive", "Ops", "Wall (s)", "Ops/sec", "Sim (ms)",
                 "MasterLkp"});
  auto add = [&](const std::string& name, const PrimitiveResult& r) {
    t.row().add(name).add(r.ops).add(r.seconds, 3).add(r.ops_per_s(), 0);
  };
  add("diff make", run.diff_make);
  add("diff apply", run.diff_apply);
  add("envelope pack/unpack", run.envelope);
  add("sim event loop", run.sim_loop);
  add("fiber switch", run.fiber_switch);
  add("network send", run.network_send);
  add("page fetch", run.page_fetch);
  add("barrier round", run.barrier);
  for (const auto& point : run.tree_sweep) {
    std::ostringstream label;
    label << "barrier round (n=" << point.nprocs << ", "
          << (point.fanout == dsm::kUnboundedFanout
                  ? std::string("flat")
                  : "tree k=" + std::to_string(point.fanout))
          << ", " << std::fixed << std::setprecision(1)
          << point.result.master_in_per_barrier << " in/barrier)";
    t.row()
        .add(label.str())
        .add(point.result.prim.ops)
        .add(point.result.prim.seconds, 3)
        .add(point.result.prim.ops_per_s(), 0)
        .add(point.result.sim_seconds * 1000.0, 2);
  }
  {
    std::ostringstream label;
    label << "home migration round (" << std::fixed << std::setprecision(1)
          << run.migration.moves_per_gc_round << " pages/gc)";
    t.row()
        .add(label.str())
        .add(run.migration.prim.ops)
        .add(run.migration.prim.seconds, 3)
        .add(run.migration.prim.ops_per_s(), 0)
        .add(run.migration.sim_seconds * 1000.0, 2);
  }
  for (const auto& [s, fan] : run.dir_fans) {
    t.row()
        .add("dir fan-out fetch (shards=" + std::to_string(s) + ")")
        .add(fan.prim.ops)
        .add(fan.prim.seconds, 3)
        .add(fan.prim.ops_per_s(), 0)
        .add(fan.sim_seconds * 1000.0, 2)
        .add(fan.master_lookups);
  }
  t.print(std::cout);

  std::map<std::string, double> fresh;
  util::JsonWriter json;
  json.begin_object();
  json.field("bench", "micro");
  json.field("schema_version", 1);
  json.begin_object("primitives");
  auto emit = [&](const char* name, const PrimitiveResult& r) {
    json.begin_object(name);
    json.field("ops", r.ops);
    json.field("wall_seconds", r.seconds);
    json.field("ops_per_s", r.ops_per_s());
    json.end_object();
    fresh[name] = r.ops_per_s();
  };
  emit("diff_make", run.diff_make);
  emit("diff_apply", run.diff_apply);
  emit("envelope_pack_unpack", run.envelope);
  emit("sim_event_loop", run.sim_loop);
  emit("fiber_switch", run.fiber_switch);
  emit("network_send", run.network_send);
  emit("page_fetch", run.page_fetch);
  emit("barrier_round", run.barrier);
  for (const auto& point : run.tree_sweep) {
    json.begin_object(point.name);
    json.field("ops", point.result.prim.ops);
    json.field("wall_seconds", point.result.prim.seconds);
    json.field("ops_per_s", point.result.prim.ops_per_s());
    json.field("sim_seconds", point.result.sim_seconds);
    json.field("master_inbound_per_barrier",
               point.result.master_in_per_barrier);
    json.end_object();
    fresh[point.name] = point.result.prim.ops_per_s();
  }
  json.begin_object("home_migration_round");
  json.field("pages_moved", run.migration.home_moves);
  json.field("gc_rounds", run.migration.gc_rounds);
  json.field("moves_per_gc_round", run.migration.moves_per_gc_round);
  json.field("wall_seconds", run.migration.prim.seconds);
  json.field("sim_seconds_adaptive", run.migration.sim_seconds);
  json.field("sim_seconds_static", run.migration.sim_seconds_static);
  json.end_object();
  for (const auto& [s, fan] : run.dir_fans) {
    const std::string name = "dir_fan_fetch_shards" + std::to_string(s);
    json.begin_object(name);
    json.field("ops", fan.prim.ops);
    json.field("wall_seconds", fan.prim.seconds);
    json.field("ops_per_s", fan.prim.ops_per_s());
    json.field("sim_seconds", fan.sim_seconds);
    json.field("owner_lookups_master_inbound", fan.master_lookups);
    json.field("owner_lookups_shard_inbound", fan.shard_lookups);
    json.end_object();
    fresh[name] = fan.prim.ops_per_s();
  }
  json.end_object();
  json.end_object();
  json.write_file("BENCH_micro.json");
  std::cout << "Wrote BENCH_micro.json\n";
  return fresh;
}

// ---------------------------------------------------------------------------
// --check-primitives: regression gate against the committed BENCH_micro.json
// (mirrors bench_protocols --check-batching: acceptance as an exit code).
// ---------------------------------------------------------------------------

/// Extracts name -> ops_per_s from a BENCH_micro.json produced by
/// util::JsonWriter (compact, flat primitive objects).  For each
/// "ops_per_s":<num>, the owning object's name is the quoted key right
/// before the '{' that opened it — good enough for our own writer, no
/// general JSON parser needed.
std::map<std::string, double> read_committed_ops_per_s(
    const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  if (!in) return out;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"ops_per_s\":";
  std::size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    const double value = std::strtod(text.c_str() + pos + key.size(), nullptr);
    const std::size_t open = text.rfind('{', pos);
    if (open != std::string::npos && open >= 3 && text[open - 1] == ':' &&
        text[open - 2] == '"') {
      const std::size_t q2 = open - 2;  // closing quote of the name
      const std::size_t q1 = text.rfind('"', q2 - 1);
      if (q1 != std::string::npos) {
        out[text.substr(q1 + 1, q2 - q1 - 1)] = value;
      }
    }
    pos += key.size();
  }
  return out;
}

/// Fails (returns false) if any primitive present in the committed baseline
/// regressed below tolerance * committed ops/s, or vanished from the fresh
/// run.  New primitives absent from the baseline pass trivially.
bool check_primitives(const std::map<std::string, double>& committed,
                      const std::map<std::string, double>& fresh,
                      double tolerance) {
  if (committed.empty()) {
    std::cout << "check-primitives: FAILED — no committed BENCH_micro.json "
                 "baseline to compare against\n";
    return false;
  }
  bool ok = true;
  for (const auto& [name, base] : committed) {
    const auto it = fresh.find(name);
    if (it == fresh.end()) {
      std::cout << "check-primitives: FAILED — primitive '" << name
                << "' present in the committed baseline but missing from "
                   "the fresh run\n";
      ok = false;
      continue;
    }
    const double ratio = base > 0 ? it->second / base : 1.0;
    const bool pass = ratio >= tolerance;
    std::cout << "check-primitives: " << name << " " << std::fixed
              << std::setprecision(0) << it->second << " ops/s vs committed "
              << base << " (" << std::setprecision(2) << ratio << "x, floor "
              << tolerance << "x) — " << (pass ? "ok" : "REGRESSED") << "\n";
    if (!pass) ok = false;
  }
  std::cout << (ok ? "check-primitives: OK — no primitive regressed beyond "
                     "tolerance\n"
                   : "check-primitives: FAILED\n");
  return ok;
}

/// Adaptive run with one leave; returns (cost_s, max_link_MB).
std::pair<double, double> leave_cost(const std::string& app, apps::Size size,
                                     dsm::EngineKind engine, int nprocs,
                                     int leave_pid,
                                     double at_fraction = 0.3) {
  std::map<int, double> reference;
  harness::RunConfig cfg;
  cfg.app = app;
  cfg.size = size;
  cfg.engine = engine;
  cfg.adaptive = false;
  for (int k : {nprocs - 1, nprocs}) {
    cfg.nprocs = k;
    reference[k] = harness::run_workload(cfg).seconds;
  }
  cfg.adaptive = true;
  cfg.nprocs = nprocs;
  cfg.events = harness::single_leave(
      sim::from_seconds(reference[nprocs] * at_fraction), leave_pid);
  auto run = harness::run_workload(cfg);
  if (run.records.empty()) return {0.0, 0.0};
  const double cost = harness::average_adaptation_cost(run, reference);
  const double link_mb =
      static_cast<double>(run.records[0].hook_max_link_bytes) /
      (1024.0 * 1024.0);
  return {cost, link_mb};
}

}  // namespace
}  // namespace anow

int main(int argc, char** argv) {
  using namespace anow;
  util::Options opts(argc, argv);
  opts.allow_only({"size", "full", "app", "primitives-only", "engine",
                   "check-primitives", "tolerance"});
  const apps::Size size = bench::size_from_options(opts);
  dsm::Knobs knobs;
  dsm::read_knobs(opts, knobs);
  const dsm::EngineKind engine = knobs.engine;
  const std::string app = opts.get_string("app", "jacobi");
  const bool check = opts.get_bool("check-primitives", false);
  // Host throughput is noisy across machines and CI runners; the gate only
  // catches real cliffs, not jitter.
  const double tolerance = opts.get_double("tolerance", 0.5);

  // ---- hot-path primitives + BENCH_micro.json ---------------------------
  // Snapshot the committed baseline before the fresh run overwrites it.
  const auto committed =
      check ? read_committed_ops_per_s("BENCH_micro.json")
            : std::map<std::string, double>{};
  const auto fresh = run_primitives_and_write_json();
  if (check && !check_primitives(committed, fresh, tolerance)) return 1;
  if (opts.get_bool("primitives-only", false)) return 0;

  // ---- claim 2 & 1: cost vs problem size, with max-link traffic ---------
  bench::print_header(
      "§5.4 — adaptation cost vs problem size (claims 1 & 2)",
      "Single middle leave of a " + app +
          " run; the cost should scale with the problem size and track the "
          "max per-link traffic of the event.");
  {
    util::Table t({"Grid n", "Shared (MB)", "Extra bytes moved (MB)",
                   "Max link traffic (MB)"});
    for (std::int64_t n : {300, 400, 600, 800}) {
      harness::RunConfig cfg;
      cfg.engine = engine;
      cfg.adaptive = false;
      std::map<int, harness::RunResult> base;
      for (int k : {3, 4}) {
        cfg.nprocs = k;
        base[k] = harness::run_workload(
            cfg,
            std::make_unique<apps::Jacobi>(apps::Jacobi::Params{n, 120}));
      }
      cfg.adaptive = true;
      cfg.nprocs = 4;
      cfg.events = harness::single_leave(
          sim::from_seconds(base[4].seconds * 0.3), 2);
      auto run = harness::run_workload(
          cfg, std::make_unique<apps::Jacobi>(apps::Jacobi::Params{n, 120}));
      // §5.4 differencing: the adaptive run spends ~30% of its iterations
      // on 4 processes and ~70% on 3; subtract the blended baseline.
      const double blended = 0.3 * static_cast<double>(base[4].bytes) +
                             0.7 * static_cast<double>(base[3].bytes);
      const double extra_mb =
          (static_cast<double>(run.bytes) - blended) / (1024.0 * 1024.0);
      const double link_mb =
          run.records.empty()
              ? 0.0
              : static_cast<double>(run.records[0].hook_max_link_bytes) /
                    (1024.0 * 1024.0);
      t.row()
          .add(n)
          .add(static_cast<double>(n) * n * 8 / (1024.0 * 1024.0), 1)
          .add(extra_mb, 2)
          .add(link_mb, 2);
    }
    t.print(std::cout);
    std::cout << "Both columns should scale with the problem size (claim 2) "
                 "and with each other (claim 1: the bottleneck link is the "
                 "cost driver).\n";
  }

  // ---- claim 3: cost decreases with more processes ----------------------
  bench::print_header(
      "§5.4 — adaptation cost vs number of processes (claim 3)",
      "Leave of the end process from x processes, x = 4..8; the same data "
      "spreads over more links, so the per-link bottleneck shrinks.");
  {
    util::Table t({"x (procs)", "Avg cost x->x-1 (s)", "Max link (MB)"});
    for (int x : {4, 5, 6, 7, 8}) {
      auto [cost, link] = leave_cost(app, size, engine, x, x - 1);
      t.row().add(x).add(cost, 3).add(link, 2);
    }
    t.print(std::cout);
    std::cout << "The per-link bottleneck (the paper's cost driver) shrinks "
                 "as x grows.  The time column uses the paper's reference "
                 "interpolation, which assumes compute-dominated runs; at "
                 "the default bench size it is noisy — use --full for the "
                 "paper regime.\n";
  }

  // ---- claim 4: simultaneous events cheaper than successive -------------
  bench::print_header(
      "§5.4 — multiple adapt events at one point (claim 4)",
      "Two leaves delivered together vs at successive adaptation points "
      "(8 -> 6 processes either way).");
  {
    std::map<int, double> reference;
    harness::RunConfig cfg;
    cfg.app = app;
    cfg.size = size;
    cfg.engine = engine;
    cfg.adaptive = false;
    for (int k : {6, 8}) {
      cfg.nprocs = k;
      reference[k] = harness::run_workload(cfg).seconds;
    }
    util::Table t({"Schedule", "Adaptations", "Runtime (s)",
                   "Total adapt cost (s)", "Cost per event (s)"});
    for (const char* mode : {"together", "successive"}) {
      cfg.adaptive = true;
      cfg.nprocs = 8;
      const double t0 = reference[8] * 0.3;
      cfg.events = harness::single_leave(sim::from_seconds(t0), 6);
      const double gap = mode == std::string("together")
                             ? 0.0
                             : reference[8] * 0.25;
      cfg.events.push_back({core::AdaptKind::kLeave,
                            sim::from_seconds(t0 + gap), 7,
                            core::kDefaultGrace});
      auto run = harness::run_workload(cfg);
      const double ref = harness::interpolate_reference_seconds(
          reference, run.avg_nodes);
      const double total = run.seconds - ref;
      t.row()
          .add(mode)
          .add(static_cast<std::int64_t>(run.records.size()))
          .add(run.seconds, 2)
          .add(total, 3)
          .add(run.records.empty() ? 0.0 : total / run.records.size(), 3);
    }
    t.print(std::cout);
  }

  // ---- claim 5: repeated adaptations get cheaper ------------------------
  bench::print_header(
      "§5.4 — repeated adaptations (claim 5)",
      "Alternating leave/join of the same host: a recently joined process "
      "has accessed fewer pages, so later leaves move less data.");
  {
    harness::RunConfig cfg;
    cfg.app = app;
    cfg.size = size;
    cfg.nprocs = 8;
    cfg.engine = engine;
    cfg.adaptive = false;
    const double run_s = harness::run_workload(cfg).seconds;
    cfg.adaptive = true;
    cfg.events = harness::alternating_leave_join(
        sim::from_seconds(run_s * 0.15), sim::from_seconds(run_s * 0.12), 6,
        3);
    auto run = harness::run_workload(cfg);
    util::Table t({"Adaptation #", "Kind", "Hook bytes (KB)",
                   "Hook max-link (KB)", "Hook duration (ms)"});
    int i = 0;
    for (const auto& rec : run.records) {
      t.row()
          .add(++i)
          .add(to_string(rec.kind))
          .add(static_cast<double>(rec.hook_bytes) / 1024.0, 1)
          .add(static_cast<double>(rec.hook_max_link_bytes) / 1024.0, 1)
          .add(sim::to_seconds(rec.hook_duration) * 1000.0, 1);
    }
    t.print(std::cout);
  }
  return 0;
}
