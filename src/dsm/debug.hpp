// Debug aids shared by the DSM runtime and the protocol engines.
#pragma once

#include <cstdlib>
#include <iostream>

#include "util/options.hpp"

namespace anow::dsm {

/// Page selected for protocol-event tracing via ANOW_TRACE_PAGE=<id>
/// (-1 = tracing off).  One cached parse shared by every tracer.
inline int traced_page() {
  static const int page = [] {
    const char* env = std::getenv("ANOW_TRACE_PAGE");
    return env ? util::parse_int<int>(env, "ANOW_TRACE_PAGE") : -1;
  }();
  return page;
}

}  // namespace anow::dsm

// Engine-side tracer for ANOW_TRACE_PAGE, used inside ConsistencyEngine
// members (it names the node by `self_`).  No timestamp: the engine has no
// clock; the process-side tracer in process.cpp carries virtual time.
#define ANOW_ETRACE(pg, what)                                        \
  do {                                                               \
    if ((pg) == ::anow::dsm::traced_page()) {                        \
      std::cerr << "[ptrace uid" << self_ << "] " << what << "\n";   \
    }                                                                \
  } while (0)
