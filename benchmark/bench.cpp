// One repetition of one benchmark leg (see README.md).
//
// run.py execs this binary once per repetition, so every rep starts in a
// fresh process whose getrusage is its own.  Every layer is measured from
// outside, through public calls only:
//  - a Workload decorator (TimedWorkload) timestamps init, each iterate and
//    checksum around the unchanged app;
//  - work counts come from the stats registry and the simulator's event
//    count;
//  - virtual-time buckets come from RunConfig::time_attribution.
// The rep prints one JSON object on stdout.
//
//   anow_bench --workload W --seed N --backend sim|real --nprocs K
//              [--trace] [--quick]
//   anow_bench --workload W --seed N --reference [--quick]
//
// --reference prints the checksum of the app's plain sequential reference
// on the same inputs; run.py requires every rep to match it bit for bit.
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/gauss.hpp"
#include "apps/jacobi.hpp"
#include "apps/nbf.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "util/check.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace anow {
namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

struct Inputs {
  std::function<std::unique_ptr<apps::Workload>()> make;
  /// Checksum of the app's sequential reference on the same inputs.
  std::function<double()> reference;
  dsm::EngineKind engine = dsm::EngineKind::kLrc;
  std::vector<core::AdaptEvent> events;
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

template <typename App>
Inputs app_inputs(typename App::Params p, std::function<double()> reference) {
  Inputs in;
  in.make = [p] { return std::make_unique<App>(p); };
  in.reference = std::move(reference);
  return in;
}

Inputs jacobi(apps::Jacobi::Params p) {
  return app_inputs<apps::Jacobi>(
      p, [p] { return sum(apps::Jacobi::reference(p)); });
}

Inputs gauss(apps::Gauss::Params p) {
  return app_inputs<apps::Gauss>(
      p, [p] { return sum(apps::Gauss::reference(p)); });
}

Inputs nbf(apps::Nbf::Params p) {
  return app_inputs<apps::Nbf>(p, [p] { return apps::Nbf::reference(p); });
}

/// One of `base - 1` and `base + 1`.  Jacobi grids are never a multiple of
/// the page width (512 doubles): rows that fill whole pages share no page
/// between writers, which removes the diffs the stencil workloads are for.
std::int64_t either_side(util::Rng& rng, std::int64_t base) {
  return base - 1 + 2 * static_cast<std::int64_t>(rng.next_below(2));
}

/// The seed picks the problem instance.  Grid and matrix sizes and NBF's
/// iteration count take one of two neighbouring values, so seeds differ in
/// page layout and virtual time while the work moves by under 1%; NBF's
/// partner list and the churn schedule are drawn from the seed outright.
Inputs inputs_for(const std::string& workload, std::uint64_t seed,
                  bool quick) {
  util::Rng rng(seed);
  if (workload == "stencil" || workload == "churn") {
    const std::int64_t n = either_side(rng, quick ? 64 : 512);
    if (workload == "stencil") return jacobi({n, quick ? 5 : 300});
    // churn: stencil's grid for twice the iterations, so that on every seed
    // the last join lands well before the end.
    Inputs in = jacobi({n, quick ? 1500 : 600});
    // Table 2's middle leaver (host 4 of 8).  The seed moves the schedule
    // in time but keeps the leaver: which process leaves changes the cost
    // of an adaptation by up to a third, more than a regression bound.
    const double first_s = 0.5 + 0.4 * rng.next_double();
    in.events = harness::alternating_leave_join(
        sim::from_seconds(first_s), sim::from_seconds(1.5), 4,
        quick ? 1 : 2);
    return in;
  }
  if (workload == "stencil-home") {
    const std::int64_t n = either_side(rng, quick ? 64 : 1024);
    Inputs in = jacobi({n, quick ? 5 : 200});
    in.engine = dsm::EngineKind::kHomeLrc;
    return in;
  }
  if (workload == "forkjoin") {
    return gauss({quick ? rng.next_in(63, 65) : rng.next_in(480, 481)});
  }
  if (workload == "irregular") {
    // The seed varies the iteration count, not the atom count: atoms are
    // dealt to processes in whole pages, so a few more atoms can add a page
    // to the busiest process and move the runtime by 5%.
    apps::Nbf::Params p;
    p.atoms = quick ? 1024 : 8192;
    p.partners = quick ? 8 : 24;
    p.iters = quick ? 100 : rng.next_in(200, 201);
    p.seed = seed;
    return nbf(p);
  }
  ANOW_CHECK_MSG(false, "unknown workload '" << workload << "'");
}

// ---------------------------------------------------------------------------
// The decorator
// ---------------------------------------------------------------------------

/// Counters sampled at every iterate boundary of a traced rep, so the
/// per-iteration work is measured where it happens.
constexpr std::array<const char*, 4> kSampled = {
    "dsm.page_fetches", "dsm.diffs_created", "dsm.diff_fetches",
    "net.messages"};

struct IterRecord {
  Clock::time_point begin, end;
  double virtual_ms = 0.0;
  std::array<std::int64_t, kSampled.size()> counts{};  // deltas
};

/// What TimedWorkload records.  Untraced reps keep only the first-iterate
/// timestamp, which setup_s needs; traced reps keep every boundary.
struct Probe {
  bool trace = false;
  bool virtual_clock = false;  // sim backend: master.now() is virtual time
  Clock::time_point first_iter{};
  Clock::time_point init_begin{}, init_end{};
  Clock::time_point checksum_begin{}, checksum_end{};
  std::vector<IterRecord> iters;
  std::array<std::int64_t, kSampled.size()> last{};
  std::int64_t sim_events = 0;
};

std::array<std::int64_t, kSampled.size()> sample(dsm::DsmProcess& master) {
  std::array<std::int64_t, kSampled.size()> v{};
  for (std::size_t i = 0; i < kSampled.size(); ++i) {
    v[i] = master.system().stats().counter_value(kSampled[i]);
  }
  return v;
}

class TimedWorkload final : public apps::Workload {
 public:
  TimedWorkload(std::unique_ptr<apps::Workload> app, Probe& probe)
      : app_(std::move(app)), probe_(probe) {}

  std::string name() const override { return app_->name(); }
  std::string size_desc() const override { return app_->size_desc(); }
  std::int64_t shared_bytes() const override { return app_->shared_bytes(); }
  dsm::Protocol protocol() const override { return app_->protocol(); }
  std::int64_t iterations() const override { return app_->iterations(); }
  void setup(ompx::Runtime& rt) override { app_->setup(rt); }

  void init(dsm::DsmProcess& master) override {
    if (probe_.trace) probe_.init_begin = Clock::now();
    app_->init(master);
    if (probe_.trace) probe_.init_end = Clock::now();
  }

  void iterate(dsm::DsmProcess& master, std::int64_t iter) override {
    if (iter == 0) probe_.first_iter = Clock::now();
    if (!probe_.trace) {
      app_->iterate(master, iter);
      return;
    }
    if (iter == 0) probe_.last = sample(master);
    IterRecord rec;
    const sim::Time v0 = master.now();
    rec.begin = Clock::now();
    app_->iterate(master, iter);
    rec.end = Clock::now();
    if (probe_.virtual_clock) {
      rec.virtual_ms = sim::to_seconds(master.now() - v0) * 1e3;
    }
    const auto now = sample(master);
    for (std::size_t i = 0; i < kSampled.size(); ++i) {
      rec.counts[i] = now[i] - probe_.last[i];
    }
    probe_.last = now;
    probe_.iters.push_back(rec);
  }

  double checksum(dsm::DsmProcess& master) override {
    probe_.checksum_begin = Clock::now();
    const double sum = app_->checksum(master);
    probe_.checksum_end = Clock::now();
    probe_.sim_events = static_cast<std::int64_t>(
        master.system().cluster().sim().events_executed());
    return sum;
  }

 private:
  std::unique_ptr<apps::Workload> app_;
  Probe& probe_;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Hex float: round-trips exactly, so run.py compares checksums bit for bit.
std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void write_span(util::JsonWriter& j, const char* name, Clock::time_point t0,
                Clock::time_point b, Clock::time_point e) {
  j.begin_object();
  j.field("name", name);
  j.field("ts", us_between(t0, b));
  j.field("dur", us_between(b, e));
  j.end_object();
}

/// Spans and counter samples of a traced rep, in microseconds from the
/// run_workload call; `t0_us` places them on run.py's shared timeline.
void write_trace(util::JsonWriter& j, const Probe& p, Clock::time_point t0,
                 Clock::time_point t1) {
  j.begin_object("trace");
  j.field("t0_us", std::chrono::duration<double, std::micro>(
                       t0.time_since_epoch())
                       .count());
  j.begin_array("spans");
  write_span(j, "harness.run", t0, t0, t1);
  write_span(j, "setup", t0, t0, p.first_iter);
  write_span(j, "init", t0, p.init_begin, p.init_end);
  for (std::size_t i = 0; i < p.iters.size(); ++i) {
    const auto& it = p.iters[i];
    const std::string name = "iter[" + std::to_string(i) + "]";
    j.begin_object();
    j.field("name", name);
    j.field("ts", us_between(t0, it.begin));
    j.field("dur", us_between(it.begin, it.end));
    if (p.virtual_clock) j.field("virtual_ms", it.virtual_ms);
    j.end_object();
  }
  write_span(j, "checksum", t0, p.checksum_begin, p.checksum_end);
  write_span(j, "teardown", t0, p.checksum_end, t1);
  j.end_array();
  j.begin_array("samples");
  for (const auto& it : p.iters) {
    j.begin_object();
    j.field("ts", us_between(t0, it.end));
    for (std::size_t i = 0; i < kSampled.size(); ++i) {
      j.field(kSampled[i], it.counts[i]);
    }
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

int run(const util::Options& opts) {
  opts.allow_only(
      {"workload", "seed", "backend", "nprocs", "trace", "quick", "reference"});
  const std::string workload = opts.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const bool quick = opts.get_bool("quick", false);
  const Inputs in = inputs_for(workload, seed, quick);

  util::JsonWriter j;
  j.begin_object();
  j.field("build_type", ANOW_BENCH_BUILD_TYPE);
  j.field("compiler", __VERSION__);
  if (opts.get_bool("reference", false)) {
    j.field("checksum", hex(in.reference()));
    j.end_object();
    std::cout << j.str() << "\n";
    return 0;
  }

  harness::RunConfig cfg;
  cfg.backend = dsm::parse_backend_kind(
      opts.get_choice("backend", {"sim", "real"}, "sim"));
  cfg.nprocs = static_cast<int>(opts.get_int("nprocs", 8));
  cfg.engine = in.engine;
  const bool sim = cfg.backend == dsm::BackendKind::kSim;
  // The real backend refuses join and leave, so churn's real legs run its
  // inputs without events.
  if (sim) cfg.events = in.events;
  cfg.adaptive = !cfg.events.empty();
  cfg.seed = seed;
  Probe probe;
  probe.trace = opts.get_bool("trace", false);
  probe.virtual_clock = sim;
  cfg.time_attribution = probe.trace && sim;

  auto app = std::make_unique<TimedWorkload>(in.make(), probe);
  const auto t0 = Clock::now();
  const harness::RunResult r = harness::run_workload(cfg, std::move(app));
  const auto t1 = Clock::now();

  j.field("checksum", hex(r.checksum));
  j.field("wall_s", us_between(t0, t1) * 1e-6);
  j.field("setup_s", us_between(t0, probe.first_iter) * 1e-6);
  if (sim) {
    j.field("virtual_s", r.seconds);
    j.field("avg_nodes", r.avg_nodes);
    j.field("sim_events", probe.sim_events);
  }
  j.begin_object("counters");
  for (const auto& [name, value] : r.stats.counters) j.field(name, value);
  j.end_object();

  if (r.trace) {
    j.begin_object("attribution");
    for (int b = 0; b < obs::kNumBuckets; ++b) {
      const auto bucket = static_cast<obs::Bucket>(b);
      j.field(obs::bucket_name(bucket),
              sim::to_seconds(r.trace->total_bucket(bucket)));
    }
    j.field("total", sim::to_seconds(r.trace->total_runtime()));
    j.field("conserved", r.trace->conserved() ? 1 : 0);
    j.end_object();
  }

  if (cfg.adaptive) {
    j.begin_object("adapt");
    j.field("planned_events", static_cast<std::int64_t>(cfg.events.size()));
    j.begin_array("hook_s");
    for (const auto& rec : r.records) {
      j.value(sim::to_seconds(rec.hook_duration));
    }
    j.end_array();
    std::int64_t hook_bytes = 0;
    for (const auto& rec : r.records) hook_bytes += rec.hook_bytes;
    j.field("hook_bytes", hook_bytes);
    if (probe.trace && !r.records.empty()) {
      // §5.3: the adaptive runtime against non-adaptive runs at n-1 and n
      // nodes, interpolated at the run's average node count.
      std::map<int, double> refs;
      for (const int k : {cfg.nprocs - 1, cfg.nprocs}) {
        harness::RunConfig rc = cfg;
        rc.nprocs = k;
        rc.events.clear();
        rc.adaptive = false;
        rc.time_attribution = false;
        refs[k] = harness::run_workload(rc, in.make()).seconds;
      }
      j.field("cost_s", harness::average_adaptation_cost(r, refs));
    }
    j.end_object();
  }

  if (probe.trace) {
    j.field("checksum_s", us_between(probe.checksum_begin,
                                     probe.checksum_end) * 1e-6);
    j.field("teardown_s", us_between(probe.checksum_end, t1) * 1e-6);
    j.begin_array("iter_ms");
    for (const auto& it : probe.iters) {
      j.value(us_between(it.begin, it.end) * 1e-3);
    }
    j.end_array();
    write_trace(j, probe, t0, t1);
  }
  j.end_object();
  std::cout << j.str() << "\n";
  return 0;
}

}  // namespace
}  // namespace anow

int main(int argc, char** argv) {
  return anow::run(anow::util::Options(argc, argv));
}
