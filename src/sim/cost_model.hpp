// Calibration constants for the simulated NOW.
//
// Defaults reproduce the testbed of the paper's §5.1: 8 × 300 MHz Pentium II,
// switched full-duplex 100 Mbps Ethernet, UDP sockets, FreeBSD 2.2.6.  The
// derived primitive costs are pinned by tests/sim/cost_model_test.cpp against
// the paper's measurements:
//   * 1-byte roundtrip          126 us
//   * lock acquisition          178 – 272 us
//   * diff fetch                313 – 1544 us (size-dependent)
//   * full page transfer        1308 us
//   * process image migration   ~8.1 MB/s
//   * remote process creation   0.6 – 0.8 s
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace anow::sim {

struct CostModel {
  // --- network -------------------------------------------------------------
  /// Per-direction link bandwidth (100 Mbps full duplex = 12.5 MB/s).
  double link_mb_per_s = 12.5;
  /// Sender-side per-message software overhead (syscall + UDP stack).
  Time send_overhead = 28 * kUsec;
  /// Receiver-side per-message software overhead (interrupt + SIGIO + copy).
  Time recv_overhead = 28 * kUsec;
  /// Propagation + switch cut-through latency.  Small, because the header
  /// serialization (64 B at 12.5 MB/s ≈ 5 us) is charged separately; the sum
  /// reproduces the paper's 126 us 1-byte roundtrip.
  Time wire_latency = 2 * kUsec;
  /// Per-message framing (Ethernet + IP + UDP + TreadMarks header).
  std::int64_t header_bytes = 64;
  /// Delivery between two processes multiplexed on the same host.
  Time local_delivery = 20 * kUsec;

  // --- DSM primitive handling ----------------------------------------------
  /// Faulting-side fixed cost (SIGSEGV dispatch, mprotect, bookkeeping).
  /// Charged for every access trap, including local write-enable faults, so
  /// it must be the bare trap cost — the expensive part of a remote page
  /// miss is charged at the server (page_service) and on the wire.
  Time fault_fixed = 30 * kUsec;
  /// Server-side cost of serving a full page (interrupt, UDP stack for a
  /// 4 KB datagram, copy).  Tuned so an uncontended remote page miss totals
  /// the paper's 1308 us: 30 (trap) + 63 (request) + 825 + 390 (reply).
  Time page_service = 825 * kUsec;
  /// Server-side fixed cost of serving a diff request.
  Time diff_service_fixed = 180 * kUsec;
  /// Diff creation cost per scanned byte (word compare + RLE encode).
  double diff_create_us_per_byte = 0.03;
  /// Diff application cost per encoded byte.
  double diff_apply_us_per_byte = 0.03;
  /// Lock manager / holder request processing.  A remote uncontended
  /// acquire is request (64us) + service + grant (64us) = 178us, the lower
  /// end of the paper's 178-272us range (the upper end is the forwarding
  /// case when another process holds the lock).
  Time lock_service = 50 * kUsec;
  /// Per-arrival barrier processing at the master.
  Time barrier_service = 15 * kUsec;
  /// Local page-table scan per page during garbage collection.
  Time gc_per_page = 2 * kUsec;
  /// Interior-node service of the tree control plane (DESIGN.md §12):
  /// merging child segments into one combined envelope upward, or
  /// splitting a multicast's routes per child downward.  Charged once per
  /// forwarded envelope — constant, so per-pair FIFO ordering between
  /// consecutive collectives through the same interior node is preserved.
  /// Only charged when the fanout builds a tree with interior nodes.
  Time tree_combine = 10 * kUsec;

  // --- adaptation ------------------------------------------------------------
  /// Remote process creation (paper: "approximately 0.6 to 0.8 seconds").
  Time spawn_min = 600 * kMsec;
  Time spawn_max = 800 * kMsec;
  /// Process image move rate for urgent leaves (paper: ~8.1 MB/s).
  double migration_mb_per_s = 8.1;
  /// Checkpoint write rate to local disk (1999-era disk, ~ image move rate).
  double disk_mb_per_s = 8.1;
  /// Connection setup cost per peer when a new process joins.
  Time connection_setup = 2 * kMsec;

  // --- CPU -------------------------------------------------------------------
  /// Host speed factor: 1.0 models the paper's 300 MHz Pentium II; the
  /// applications' work constants are calibrated in seconds on this machine.
  double cpu_speed = 1.0;

  /// Serialization time of a payload on one link direction (header included).
  Time transfer_time(std::int64_t payload_bytes) const {
    const double bytes =
        static_cast<double>(payload_bytes + header_bytes);
    return from_seconds(bytes / (link_mb_per_s * 1024.0 * 1024.0));
  }

  Time diff_create_time(std::int64_t scanned_bytes) const {
    return from_seconds(diff_create_us_per_byte * 1e-6 *
                        static_cast<double>(scanned_bytes));
  }

  Time diff_apply_time(std::int64_t encoded_bytes) const {
    return from_seconds(diff_apply_us_per_byte * 1e-6 *
                        static_cast<double>(encoded_bytes));
  }

  Time migration_time(std::int64_t image_bytes) const {
    return from_seconds(static_cast<double>(image_bytes) /
                        (migration_mb_per_s * 1024.0 * 1024.0));
  }

  Time disk_write_time(std::int64_t bytes) const {
    return from_seconds(static_cast<double>(bytes) /
                        (disk_mb_per_s * 1024.0 * 1024.0));
  }
};

}  // namespace anow::sim
