// Reproduces Table 1: execution times and network traffic on the
// non-adaptive (standard TreadMarks) and adaptive systems with NO adapt
// events, for every application at 8, 4, and 1 nodes.
//
// The paper's headline: "In the absence of adapt events, there is no cost
// to supporting adaptivity compared to the non-adaptive base system" and
// "the network traffic is identical on both systems".
#include <iostream>
#include <map>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace anow;
  util::Options opts(argc, argv);
  opts.allow_only({"size", "full", "nodes", "engine", "dir-shards",
                   "placement", "trace", "time-breakdown"});
  const apps::Size size = bench::size_from_options(opts);
  harness::RunConfig base;
  dsm::read_knobs(opts, base);
  const std::string trace_file = base.trace_file;
  base.trace_file.clear();
  const bool time_breakdown = bench::time_breakdown_from_options(opts);

  bench::print_header(
      "Table 1 — execution times and network traffic, no adapt events",
      std::string("Problem size preset: ") + apps::size_name(size) +
          " (use --full for the paper's sizes; paper numbers are for the "
          "paper sizes only); consistency engine: " +
          dsm::enum_name(base.engine) + ", dir-shards: " +
          std::to_string(base.dir_shards) + ", placement: " +
          dsm::enum_name(base.placement));

  // Paper values for the --full configuration, for side-by-side comparison.
  struct PaperRow {
    double std_s, adp_s;
    std::int64_t pages, msgs, diffs;
    double mb;
  };
  const std::map<std::pair<std::string, int>, PaperRow> paper = {
      {{"Gauss", 8}, {243.46, 242.14, 80577, 236453, 0, 320.54}},
      {{"Gauss", 4}, {398.07, 397.23, 41463, 129021, 0, 164.62}},
      {{"Gauss", 1}, {1404.20, 1408.95, 0, 0, 0, 0}},
      {{"Jacobi", 8}, {215.06, 216.17, 58041, 221631, 27993, 254.50}},
      {{"Jacobi", 4}, {361.38, 362.88, 30741, 115840, 11994, 131.17}},
      {{"Jacobi", 1}, {1283.63, 1287.02, 0, 0, 0, 0}},
      {{"3D-FFT", 8}, {83.50, 81.95, 198471, 416570, 0, 779.23}},
      {{"3D-FFT", 4}, {138.20, 133.51, 170115, 354018, 0, 667.16}},
      {{"3D-FFT", 1}, {289.90, 285.94, 0, 0, 0, 0}},
      {{"NBF", 8}, {535.89, 534.74, 353056, 1182292, 0, 1388.27}},
      {{"NBF", 4}, {714.78, 715.36, 183600, 618443, 0, 721.85}},
      {{"NBF", 1}, {2398.79, 2299.20, 0, 0, 0, 0}},
  };

  util::Table t({"App (size)", "Nodes", "Std time(s)", "Adaptive(s)",
                 "Pages(4k)", "MB", "Messages", "Diffs", "Paper std(s)",
                 "Paper pages"});

  std::vector<int> node_counts = {8, 4, 1};
  if (opts.has("nodes")) {
    node_counts = {static_cast<int>(opts.get_int("nodes", 8))};
  }

  const std::vector<std::string> t1_apps = bench::table1_apps();
  for (const auto& app : t1_apps) {
    t.separator();
    for (int nodes : node_counts) {
      harness::RunConfig cfg = base;
      cfg.app = app;
      cfg.size = size;
      cfg.nprocs = nodes;
      cfg.time_attribution = time_breakdown;
      // --trace records the last standard-system run of the sweep (one
      // file, so one designated run).
      const bool traced = !trace_file.empty() && app == t1_apps.back() &&
                          nodes == node_counts.back();
      cfg.trace_file = traced ? trace_file : std::string();

      cfg.adaptive = false;
      auto std_run = harness::run_workload(cfg);
      cfg.adaptive = true;
      cfg.trace_file.clear();  // the adaptive rerun is never traced
      auto adp_run = harness::run_workload(cfg);
      if (traced) {
        std::cout << "wrote " << trace_file << " (" << app << ", "
                  << nodes << " nodes) — open at https://ui.perfetto.dev\n";
      }
      if (time_breakdown && std_run.trace.has_value()) {
        std::cout << "\nTime breakdown — " << app << ", " << nodes
                  << " nodes (standard system):\n";
        obs::breakdown_table(*std_run.trace).print(std::cout);
      }

      // The headline properties must hold structurally.
      if (std_run.bytes != adp_run.bytes ||
          std_run.messages != adp_run.messages) {
        std::cerr << "WARNING: traffic differs between systems for " << app
                  << " at " << nodes << " nodes!\n";
      }

      auto& row = t.row();
      row.add(std_run.app + " (" + std_run.size_desc + ")");
      row.add(nodes);
      row.add(std_run.seconds, 2);
      row.add(adp_run.seconds, 2);
      row.add(std_run.page_fetches);
      row.add(util::format_mb(std_run.bytes));
      row.add(std_run.messages);
      row.add(std_run.diff_fetches);
      auto it = paper.find({std_run.app, nodes});
      if (it != paper.end()) {
        row.add(it->second.std_s, 2);
        row.add(it->second.pages);
      } else {
        row.add("-").add("-");
      }
    }
  }
  t.print(std::cout);

  std::cout << "\nAverage time between adaptation points (paper §5.3: "
               "0.1-0.2s for Gauss/Jacobi/3D-FFT, ~2.5s for NBF at 8 "
               "nodes, paper sizes):\n";
  util::Table t2({"App", "Nodes", "Adaptation-point interval (s)"});
  for (const auto& app : bench::table1_apps()) {
    harness::RunConfig cfg = base;
    cfg.app = app;
    cfg.size = size;
    cfg.nprocs = node_counts.front();
    auto run = harness::run_workload(cfg);
    t2.row().add(run.app).add(cfg.nprocs).add(run.adapt_point_interval_s, 3);
  }
  t2.print(std::cout);
  return 0;
}
