// Protocol-invariant sanitizer (DESIGN.md §13).
//
// The transport and consistency layers rely on a handful of ordering
// invariants that are held only by convention: every departure path drains
// the Channel stage first (no-overtaking), a home flush is applied before
// the write notice it backs is announced, interval logs grow strictly
// monotonically per creator, and so on.  This observer turns each of those
// conventions into a machine-checked assertion, hooked from the exact
// points where the convention is relied upon.  Every violation fires an
// ANOW_CHECK (util::CheckError), so the checker aborts the run in any build
// configuration — including the Debug/sanitizer CI legs where it is
// compiled in via -DANOW_PROTOCOL_CHECKS=ON.
//
// The class itself is always compiled (the unit tests drive the hooks
// directly); the CMake option only controls whether DsmSystem installs an
// instance.  Like the race detector and the trace recorder, the checker is
// a pure observer: it never sends, charges time, or mutates protocol state,
// so an enabled run is byte-identical on the wire.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "dsm/interval.hpp"
#include "dsm/msg.hpp"
#include "dsm/types.hpp"

namespace anow::analysis {

class ProtocolChecker {
 public:
  ProtocolChecker() = default;
  ProtocolChecker(const ProtocolChecker&) = delete;
  ProtocolChecker& operator=(const ProtocolChecker&) = delete;

  // --- per-pair FIFO / no-overtaking -------------------------------------
  /// Transport accepted an envelope: remembers its shape per (src, dst).
  void on_envelope_send(dsm::Uid src, dsm::Uid dst, const dsm::Envelope& env);
  /// Envelope delivered: must match the oldest undelivered send of the
  /// pair — anything else means the network or a routing layer reordered.
  void on_envelope_deliver(dsm::Uid src, dsm::Uid dst,
                           const dsm::Envelope& env);

  // --- ack-before-announce for home flushes ------------------------------
  /// Writer planned one HomeFlush batch at a release point.
  void on_home_flush_planned(dsm::Uid writer);
  /// A home applied one HomeFlush batch of `writer`.
  void on_home_flush_applied(dsm::Uid writer);
  /// Master is about to log `writer`'s release interval: every flush the
  /// writer planned must already be applied (the data must be at its home
  /// before any notice pointing at it exists).
  void on_release_announced(dsm::Uid writer);

  // --- master-side interval log ------------------------------------------
  /// Per-creator iseq must grow strictly (dense 1-based, never reused).
  void on_interval_logged(const dsm::Interval& interval);
  /// One barrier epoch: a single-writer page may carry write notices from
  /// at most one creator (that is what "single writer" promises the
  /// directory's last-writer records).
  void on_epoch_logged(const std::vector<dsm::Interval>& intervals,
                       const std::vector<dsm::Protocol>& protocol);

  // --- arena lifetime ------------------------------------------------------
  /// The diff arena is about to be released: no archived DiffView may
  /// still point into it (the GC commit must clear the archives first).
  void note_arena_reset(std::int64_t outstanding_views) const;

  // --- adaptation ----------------------------------------------------------
  /// A process is being expelled: nothing it staged may still be buffered
  /// (a staged segment would be silently dropped with the process).
  void on_expel(dsm::Uid leaver, std::int64_t staged_segments) const;

 private:
  /// Compact envelope shape: enough to catch reordering/duplication
  /// without retaining payloads.
  struct Fingerprint {
    std::uint64_t seq = 0;
    int first_kind = -1;
    std::size_t segments = 0;
  };

  /// Hooks fire from every process; under the real backend (DESIGN.md §14)
  /// that means concurrent pthreads, so all state lives behind one lock.
  /// Under the fibered simulator the lock is always uncontended.
  mutable std::mutex mu_;
  std::map<std::pair<dsm::Uid, dsm::Uid>, std::deque<Fingerprint>> in_flight_;
  std::map<std::pair<dsm::Uid, dsm::Uid>, std::uint64_t> next_seq_;
  std::map<dsm::Uid, std::int64_t> outstanding_flushes_;
  std::map<dsm::Uid, std::int32_t> last_iseq_;
};

}  // namespace anow::analysis
