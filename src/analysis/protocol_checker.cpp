#include "analysis/protocol_checker.hpp"

#include "util/check.hpp"

namespace anow::analysis {

void ProtocolChecker::on_envelope_send(dsm::Uid src, dsm::Uid dst,
                                       const dsm::Envelope& env) {
  const std::lock_guard<std::mutex> lk(mu_);
  auto& pair_seq = next_seq_[{src, dst}];
  Fingerprint fp;
  fp.seq = pair_seq++;
  fp.first_kind = env.segments.empty()
                      ? -1
                      : static_cast<int>(dsm::segment_kind(env.segments[0]));
  fp.segments = env.segments.size();
  in_flight_[{src, dst}].push_back(fp);
}

void ProtocolChecker::on_envelope_deliver(dsm::Uid src, dsm::Uid dst,
                                          const dsm::Envelope& env) {
  const std::lock_guard<std::mutex> lk(mu_);
  auto it = in_flight_.find({src, dst});
  ANOW_CHECK_MSG(it != in_flight_.end() && !it->second.empty(),
                 "envelope delivered " << src << "->" << dst
                                       << " that was never sent");
  const Fingerprint fp = it->second.front();
  it->second.pop_front();
  const int first_kind =
      env.segments.empty()
          ? -1
          : static_cast<int>(dsm::segment_kind(env.segments[0]));
  ANOW_CHECK_MSG(fp.segments == env.segments.size() &&
                     fp.first_kind == first_kind,
                 "per-pair FIFO violated "
                     << src << "->" << dst << ": expected envelope #" << fp.seq
                     << " (" << fp.segments << " segments, first kind "
                     << fp.first_kind << "), got " << env.segments.size()
                     << " segments, first kind " << first_kind);
}

void ProtocolChecker::on_home_flush_planned(dsm::Uid writer) {
  const std::lock_guard<std::mutex> lk(mu_);
  ++outstanding_flushes_[writer];
}

void ProtocolChecker::on_home_flush_applied(dsm::Uid writer) {
  const std::lock_guard<std::mutex> lk(mu_);
  auto& outstanding = outstanding_flushes_[writer];
  ANOW_CHECK_MSG(outstanding > 0, "home flush of writer "
                                      << writer
                                      << " applied but never planned");
  --outstanding;
}

void ProtocolChecker::on_release_announced(dsm::Uid writer) {
  const std::lock_guard<std::mutex> lk(mu_);
  auto it = outstanding_flushes_.find(writer);
  const std::int64_t outstanding = it == outstanding_flushes_.end()
                                       ? 0
                                       : it->second;
  ANOW_CHECK_MSG(outstanding == 0,
                 "ack-before-announce violated: writer "
                     << writer << " announced a release with " << outstanding
                     << " home flush(es) not yet applied");
}

void ProtocolChecker::on_interval_logged(const dsm::Interval& interval) {
  const std::lock_guard<std::mutex> lk(mu_);
  if (interval.iseq == 0) return;  // empty interval, never logged
  auto& last = last_iseq_[interval.creator];
  ANOW_CHECK_MSG(interval.iseq > last,
                 "interval log not monotonic for creator "
                     << interval.creator << ": iseq " << interval.iseq
                     << " after " << last);
  last = interval.iseq;
}

void ProtocolChecker::on_epoch_logged(
    const std::vector<dsm::Interval>& intervals,
    const std::vector<dsm::Protocol>& protocol) {
  // page -> creator of the first write notice seen this epoch.
  std::map<dsm::PageId, dsm::Uid> writer_of;
  for (const dsm::Interval& iv : intervals) {
    if (iv.iseq == 0) continue;
    for (const dsm::WriteNotice& wn : iv.notices) {
      const auto p = static_cast<std::size_t>(wn.page);
      if (p >= protocol.size() ||
          protocol[p] != dsm::Protocol::kSingleWriter) {
        continue;
      }
      auto [it, fresh] = writer_of.emplace(wn.page, iv.creator);
      ANOW_CHECK_MSG(fresh || it->second == iv.creator,
                     "single-writer page " << wn.page
                                           << " written by creators "
                                           << it->second << " and "
                                           << iv.creator << " in one epoch");
    }
  }
}

void ProtocolChecker::note_arena_reset(std::int64_t outstanding_views) const {
  ANOW_CHECK_MSG(outstanding_views == 0,
                 "diff arena released with " << outstanding_views
                                          << " archived DiffView(s) still "
                                             "pointing into it");
}

void ProtocolChecker::on_expel(dsm::Uid leaver,
                               std::int64_t staged_segments) const {
  ANOW_CHECK_MSG(staged_segments == 0,
                 "expel of uid " << leaver << " would drop "
                                 << staged_segments
                                 << " staged segment(s) on the floor");
}

}  // namespace anow::analysis
