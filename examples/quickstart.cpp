// Quickstart: run an OpenMP-style parallel program on a simulated NOW and
// watch it transparently absorb a joining workstation and survive a leave.
//
//   ./examples/quickstart [--engine {lrc,home}] [--fanout K]
//                         [--trace out.json]
//
// The program is a small Jacobi relaxation.  The key thing to notice is
// that the application code never mentions joins or leaves: the iteration
// partition is recomputed from (pid, nprocs) inside every parallel
// construct, so the adaptive runtime can change the team between constructs.
//
// --trace writes a Chrome trace-event JSON file of the whole run (spans on
// every process, message flows, per-epoch counters; DESIGN.md §11).  To
// view it, open https://ui.perfetto.dev and use "Open trace file" (or load
// it in chrome://tracing): each simulated process is one track — compute
// slices alternate with barrier_wait, and the flow arrows show the barrier
// fan-in/fan-out and page traffic that the join/leave disturb.
//
// --fanout K routes the control plane (barrier arrivals/releases, GC
// rounds, fork/terminate) through a K-ary combining/multicast tree instead
// of the flat master-centric star, which is what the default unbounded
// fanout gives (DESIGN.md §12) — at this 4-process scale the tree only
// matters with --fanout below 3, but the same flag scales the master's
// inbound load as O(K·log_K N) on big teams (see bench_protocols
// --scale-nodes).
//
// ANOW_RACE_CHECK=word turns on the LRC data-race detector (DESIGN.md
// §13): a pure observer that certifies the program data-race-free (this
// one is — every access is barrier-ordered) or pinpoints the racing
// (page, word range, process pair) without changing a byte on the wire.
//
// Simulation is not the only executor: --backend real runs the same
// protocol on actual pthreads with mmap page privatization (writes
// detected by their declaration, as here), reporting measured wall-clock
// instead of virtual time (DESIGN.md §14).  This particular demo stays on
// the simulator because its point is the join/leave schedule, which needs
// virtual time — see tests/exec/backend_test.cpp and
// bench/bench_backend.cpp for fixed-team programs run both ways with
// bit-identical checksums.
#include <cstring>
#include <iostream>

#include "core/adapt.hpp"
#include "dsm/system.hpp"
#include "obs/trace.hpp"
#include "ompx/runtime.hpp"
#include "sim/cluster.hpp"
#include "util/options.hpp"

using namespace anow;

namespace {

struct GridArgs {
  dsm::GAddr grid;
  dsm::GAddr scratch;
  std::int64_t n;
};

constexpr std::int64_t kN = 256;
constexpr int kIters = 120;

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  opts.allow_only({"engine", "fanout", "trace"});
  // A NOW with 4 workstations; one more becomes available later.
  sim::Cluster cluster({}, 5);
  dsm::DsmConfig config;
  config.heap_bytes = 8 << 20;
  dsm::read_knobs(opts, config);
  std::cout << "consistency engine: " << dsm::enum_name(config.engine)
            << ", control-plane fanout: " << dsm::fanout_name(config.fanout)
            << "\n";
  dsm::DsmSystem dsm(cluster, config);
  ompx::Runtime omp(dsm);
  core::AdaptiveRuntime adapt(dsm);

  // One parallel construct: relax interior points of `grid` into `scratch`,
  // barrier, copy back.  This is what omp2tmk generates for
  //   #pragma omp parallel for
  //   for (int i = 1; i < n-1; i++) ...
  auto region = omp.region<GridArgs>(
      "relax", [](dsm::DsmProcess& p, const GridArgs& a) {
        const auto rows = ompx::static_block(1, a.n - 1, p.pid(), p.nprocs());
        ompx::SharedArray<double> grid(a.grid, a.n * a.n);
        ompx::SharedArray<double> scratch(a.scratch, a.n * a.n);
        if (!rows.empty()) {
          const double* g = grid.read(p, (rows.lo - 1) * a.n,
                                      (rows.hi + 1) * a.n);
          double* s = scratch.write(p, rows.lo * a.n, rows.hi * a.n);
          for (std::int64_t i = rows.lo; i < rows.hi; ++i) {
            for (std::int64_t j = 1; j < a.n - 1; ++j) {
              s[i * a.n + j] = 0.25 * (g[(i - 1) * a.n + j] +
                                       g[(i + 1) * a.n + j] +
                                       g[i * a.n + j - 1] +
                                       g[i * a.n + j + 1]);
            }
          }
          // Model the stencil's CPU time on the 300 MHz testbed node.
          p.compute(2.05e-7 * static_cast<double>(rows.count() * a.n));
        }
        p.barrier(1);
        if (!rows.empty()) {
          const double* s =
              scratch.read(p, rows.lo * a.n, rows.hi * a.n);
          double* g = grid.write(p, rows.lo * a.n, rows.hi * a.n);
          std::memcpy(g + rows.lo * a.n, s + rows.lo * a.n,
                      static_cast<std::size_t>(rows.count() * a.n) * 8);
        }
      });

  // Owner daemons raise adapt events (paper §4: how they are generated is
  // outside the runtime).  Here: one join at t=0.5s, one leave at t=1.6s.
  adapt.post_join(sim::from_seconds(0.5), 4);
  adapt.post_leave(sim::from_seconds(1.6), 2);

  dsm.start(4);
  dsm.run([&](dsm::DsmProcess& master) {
    GridArgs args{dsm.shared_malloc(kN * kN * 8),
                  dsm.shared_malloc(kN * kN * 8), kN};
    // Boundary conditions: hot top edge.
    double* g = master.ptr<double>(args.grid);
    master.write_range(args.grid, kN * kN * 8);
    std::memset(g, 0, kN * kN * 8);
    for (std::int64_t j = 0; j < kN; ++j) g[j] = 1.0;

    for (int it = 0; it < kIters; ++it) {
      omp.parallel(region, args);  // adaptation point at every fork
      if (it % 30 == 0) {
        std::cout << "iter " << it << ": t=" << sim::format_time(master.now())
                  << ", team size " << dsm.world_size() << "\n";
      }
    }

    master.read_range(args.grid, kN * kN * 8);
    double sum = 0;
    for (std::int64_t i = 0; i < kN * kN; ++i) {
      sum += master.cptr<double>(args.grid)[i];
    }
    std::cout << "\nfinished at t=" << sim::format_time(master.now())
              << " with " << dsm.world_size() << " processes; checksum "
              << sum << "\n";
    std::cout << "joins=" << dsm.stats().counter_value("adapt.joins")
              << " leaves=" << dsm.stats().counter_value("adapt.leaves")
              << " page fetches="
              << dsm.stats().counter_value("dsm.page_fetches")
              << " diffs=" << dsm.stats().counter_value("dsm.diff_fetches")
              << "\n";
  });
  if (cluster.trace() != nullptr) {
    std::cout << "\nVirtual-time breakdown (per process, seconds):\n";
    cluster.trace()->breakdown_table().print(std::cout);
    std::cout << "wrote " << config.trace_file
              << " — open it at https://ui.perfetto.dev (\"Open trace "
                 "file\") or chrome://tracing\n";
  }
  return 0;
}
