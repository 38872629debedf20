// Master-side interval directory shared by the consistency engines: the
// lamport-stamped per-creator interval log plus the dense delivery matrix
// (DESIGN.md §5).  Engines differ in what they *derive* while logging (LRC:
// the last-writer map driving GC ownership; home-based: first-touch home
// assignment) — the storage and the undelivered-collection path are
// identical, so they live here once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dsm/interval.hpp"
#include "dsm/protocol/delivery_matrix.hpp"
#include "dsm/types.hpp"
#include "util/check.hpp"

namespace anow::dsm::protocol {

class IntervalDirectory {
 public:
  /// Makes `uid` addressable in the delivery matrix / interval log.
  void note_uid(Uid uid) {
    delivered_.ensure(uid);
    if (static_cast<std::size_t>(uid) >= log_.size()) {
      log_.resize(static_cast<std::size_t>(uid) + 1);
    }
  }

  /// Drops delivery state for a departed process (uids are never reused).
  void forget_uid(Uid uid) { delivered_.forget(uid); }

  /// A fresh lamport stamp: one per barrier epoch / lock transfer.
  std::int64_t next_stamp() { return ++lamport_clock_; }

  /// Logs one non-empty interval under its already-assigned stamp.  A
  /// creator's iseqs rise through its log, which collect_undelivered's
  /// binary search relies on.
  void log(Interval interval) {
    if (interval.iseq == 0) return;  // empty interval: never logged
    ANOW_CHECK(!interval.notices.empty());
    auto& log = log_[static_cast<std::size_t>(interval.creator)];
    ANOW_CHECK_MSG(log.empty() || interval.iseq > log.back().iseq,
                   "interval " << interval.creator << ":" << interval.iseq
                               << " logged after " << interval.creator
                               << ":" << log.back().iseq);
    delivered_.raise(interval.creator, interval.creator, interval.iseq);
    log.push_back(std::move(interval));
  }

  /// Intervals the target has not seen yet, in causal order; marks them
  /// delivered.  Each creator's scan starts at its first undelivered
  /// interval, so a call costs what it returns, not the whole log: the
  /// log only grows between GCs, and some runs never collect.
  std::vector<Interval> collect_undelivered(Uid target) {
    delivered_.ensure(target);
    std::vector<Interval> out;
    for (Uid creator = 0; creator < static_cast<Uid>(log_.size());
         ++creator) {
      if (creator == target) continue;
      const auto& log = log_[static_cast<std::size_t>(creator)];
      if (log.empty()) continue;
      const std::int32_t high = delivered_.get(target, creator);
      const auto first = std::upper_bound(
          log.begin(), log.end(), high,
          [](std::int32_t h, const Interval& iv) { return h < iv.iseq; });
      out.insert(out.end(), first, log.end());
      delivered_.raise(target, creator, log.back().iseq);
    }
    std::sort(out.begin(), out.end(),
              [](const Interval& a, const Interval& b) {
                if (a.lamport != b.lamport) return a.lamport < b.lamport;
                if (a.creator != b.creator) return a.creator < b.creator;
                return a.iseq < b.iseq;
              });
    return out;
  }

  /// Interval-log garbage collection: drops every logged interval and all
  /// delivery state (the lamport clock keeps running).
  void clear() {
    for (auto& log : log_) log.clear();
    delivered_.clear();
  }

 private:
  std::vector<std::vector<Interval>> log_;  // index = creator uid
  DeliveryMatrix delivered_;
  std::int64_t lamport_clock_ = 0;
};

}  // namespace anow::dsm::protocol
