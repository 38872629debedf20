// Reproduces the paper's §5.1 primitive-cost measurements on the simulated
// testbed: 1-byte roundtrip, lock acquisition, diff fetch, full page
// transfer, remote process creation, and the migration rate.
#include <iostream>

#include "bench_common.hpp"
#include "dsm/system.hpp"
#include "sim/cluster.hpp"

namespace anow {
namespace {

using dsm::DsmProcess;
using dsm::DsmSystem;
using dsm::GAddr;

/// Measures one primitive inside a 2-process DSM program and returns the
/// per-operation time in microseconds.
double measure(const std::string& what, int iterations) {
  sim::Cluster cluster({}, 2);
  dsm::DsmConfig cfg;
  cfg.heap_bytes = 4 << 20;
  cfg.default_protocol = what == "diff" ? dsm::Protocol::kMultiWriter
                                        : dsm::Protocol::kSingleWriter;
  DsmSystem sys(cluster, cfg);

  // One region: the slave prepares state; the master then performs the
  // operation `iterations` times while we time it.
  struct Args {
    GAddr addr;
    std::int64_t n;
  };
  sim::Time t0 = 0, t1 = 0;

  auto prepare = sys.register_task(
      "prepare", [what](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        Args args;
        std::memcpy(&args, a.data(), sizeof(args));
        if (p.pid() != 1) return;
        // The slave writes the pages so the master must fetch from it.
        p.write_range(args.addr, static_cast<std::size_t>(args.n) * 4096);
        auto* data = p.ptr<std::uint8_t>(args.addr);
        for (std::int64_t i = 0; i < args.n * 4096; i += 64) data[i] ^= 1;
      });
  auto noop = sys.register_task(
      "noop", [](DsmProcess&, const std::vector<std::uint8_t>&) {});
  auto lock_loop = sys.register_task(
      "lock_loop",
      [iterations](DsmProcess& p, const std::vector<std::uint8_t>&) {
        if (p.pid() != 1) return;
        for (int i = 0; i < iterations; ++i) {
          p.lock_acquire(1);
          p.lock_release(1);
        }
      });

  sys.start(2);
  sys.run([&](DsmProcess& master) {
    const std::int64_t n = iterations;
    Args args{sys.shared_malloc(static_cast<std::size_t>(n) * 4096),
              n};
    std::vector<std::uint8_t> packed(sizeof(args));
    std::memcpy(packed.data(), &args, sizeof(args));

    if (what == "page" || what == "diff") {
      // Master must have copies first for the diff case (apply path).
      if (what == "diff") {
        master.read_range(args.addr, static_cast<std::size_t>(n) * 4096);
      }
      sys.run_parallel(prepare, packed);
      // One page per read_range: a multi-page range batches its fetches
      // (one diff round per creator), which would amortize the per-fetch
      // cost below the primitive the paper measured.
      t0 = master.now();
      for (std::int64_t i = 0; i < n; ++i) {
        master.read_range(args.addr + static_cast<GAddr>(i) * 4096, 4096);
      }
      t1 = master.now();
    } else if (what == "lock") {
      // Remote path: the slave acquires from the master-resident manager.
      // Subtract the construct overhead using a noop region.
      sim::Time noop0 = master.now();
      sys.run_parallel(noop, packed);
      sim::Time noop_cost = master.now() - noop0;
      t0 = master.now() + noop_cost;
      sys.run_parallel(lock_loop, packed);
      t1 = master.now();
    } else if (what == "barrier") {
      t0 = master.now();
      for (int i = 0; i < iterations; ++i) sys.run_parallel(noop, packed);
      t1 = master.now();
    }
  });
  return sim::to_seconds(t1 - t0) * 1e6 / iterations;
}

double roundtrip_us() {
  sim::Cluster cluster({}, 2);
  util::StatsRegistry stats;
  sim::Network net(cluster.sim(), cluster.cost(), stats, 2);
  sim::Time done = 0;
  net.send(0, 1, 1, [&] {
    net.send(1, 0, 1, [&] { done = cluster.sim().now(); });
  });
  cluster.sim().run();
  return sim::to_seconds(done) * 1e6;
}

}  // namespace
}  // namespace anow

int main(int argc, char** argv) {
  using namespace anow;
  util::Options opts(argc, argv);
  opts.allow_only({"iters"});
  const int iters = static_cast<int>(opts.get_int("iters", 64));

  bench::print_header(
      "DSM primitive costs (paper §5.1)",
      "Simulated testbed: 8x300MHz PII, switched full-duplex 100Mbps "
      "Ethernet, UDP.\nPaper measurements shown for comparison.");

  util::Table t({"Primitive", "Paper (us)", "Simulated (us)"});
  t.row().add("1-byte roundtrip").add("126").add(roundtrip_us(), 1);
  t.row().add("Lock acquire (uncontended)").add("178 - 272").add(
      measure("lock", iters), 1);
  t.row().add("Full page transfer").add("1,308").add(measure("page", iters),
                                                     1);
  t.row().add("Diff fetch (page-sized)").add("313 - 1,544").add(
      measure("diff", iters), 1);
  t.row().add("8-proc barrier (not in paper)").add("-").add(
      measure("barrier", iters), 1);

  sim::Cluster c({}, 1);
  double spawn_sum = 0;
  for (int i = 0; i < 100; ++i) spawn_sum += sim::to_seconds(c.draw_spawn_cost());
  t.row().add("Process creation (s)").add("0.6 - 0.8").add(spawn_sum / 100,
                                                           2);
  const double rate =
      47.8 / sim::to_seconds(c.cost().migration_time(
                 static_cast<std::int64_t>(47.8 * 1024 * 1024)));
  t.row().add("Migration rate (MB/s)").add("8.1").add(rate, 1);
  t.print(std::cout);
  return 0;
}
