// Shared helpers for the bench binaries.
//
// Every bench reproduces one table/figure of the paper (see DESIGN.md §4).
// Default problem sizes are the fast "bench" presets; pass --full to run
// the paper's Table 1 sizes.  The *shape* of the results (who wins, rough
// factors, crossovers) is the reproduction target; absolute numbers depend
// on the calibrated cost model (sim/cost_model.hpp).
//
// The DSM knobs (--engine, --dir-shards, --fanout, ...) are read by
// dsm::read_knobs over their ANOW_* defaults; a bench accepts only the
// knob options its allow_only list names and sets the rest per leg.
#pragma once

#include <iostream>
#include <string>

#include "apps/workload.hpp"
#include "dsm/config.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace anow::bench {

inline apps::Size size_from_options(const util::Options& opts) {
  if (opts.get_bool("full", false)) return apps::Size::kPaper;
  return apps::parse_size(opts.get_string("size", "bench"));
}

/// --time-breakdown: print the per-process virtual-time attribution table
/// (compute/barrier/lock/fault/GC/idle buckets; DESIGN.md §11).
inline bool time_breakdown_from_options(const util::Options& opts) {
  return opts.get_bool("time-breakdown", false);
}

inline void print_header(const std::string& title, const std::string& what) {
  std::cout << "\n=== " << title << " ===\n" << what << "\n\n";
}

/// Canonical Table 1 ordering of the workloads.
inline std::vector<std::string> table1_apps() {
  return {"gauss", "jacobi", "fft3d", "nbf"};
}

}  // namespace anow::bench
