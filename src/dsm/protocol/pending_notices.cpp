#include "dsm/protocol/pending_notices.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace anow::dsm::protocol {

std::int64_t PendingList::notices() const {
  std::int64_t n = 0;
  for (const auto& r : records_) n += r.count;
  return n;
}

Uid PendingList::newest_writer() const {
  const PendingNotice* best = nullptr;
  for (const auto& r : records_) {
    if (best == nullptr || r.lamport > best->lamport ||
        (r.lamport == best->lamport && r.creator > best->creator)) {
      best = &r;
    }
  }
  return best != nullptr ? best->creator : kNoUid;
}

void PendingNotices::add(PendingList& list, Uid creator, std::int32_t iseq,
                         std::int64_t lamport, bool per_writer) {
  ANOW_CHECK_MSG(lamport >= 0 &&
                     lamport <= std::numeric_limits<std::int32_t>::max(),
                 "lamport stamp " << lamport << " overflows a notice record");
  const auto stamp = static_cast<std::int32_t>(lamport);
  auto& records = list.records_;
  const auto mine =
      per_writer ? std::find_if(records.begin(), records.end(),
                                [&](const PendingNotice& r) {
                                  return r.creator == creator;
                                })
                 : records.end();
  if (mine == records.end()) {
    records.push_back({creator, iseq, stamp, 1});
  } else {
    ANOW_CHECK_MSG(iseq > mine->iseq && stamp >= mine->lamport,
                   "notice " << creator << ":" << iseq
                             << " is not newer than pending " << creator
                             << ":" << mine->iseq);
    *mine = {creator, iseq, stamp, mine->count + 1};
  }
  ++pending_count_;
}

void PendingNotices::prune(PendingList& list, const AppliedMap& applied) {
  auto covered = [&](const PendingNotice& r) {
    const bool is_covered = applied.covers(r.creator, r.iseq);
    if (is_covered) pending_count_ -= r.count;
    return is_covered;
  };
  auto& records = list.records_;
  records.erase(std::remove_if(records.begin(), records.end(), covered),
                records.end());
  if (records.empty()) clear(list);
}

bool PendingNotices::cover_all(PendingList& list,
                               const AppliedMap& applied) {
  const bool all = std::all_of(
      list.records_.begin(), list.records_.end(),
      [&](const PendingNotice& r) { return applied.covers(r.creator, r.iseq); });
  clear(list);
  return all;
}

void PendingNotices::clear(PendingList& list) {
  pending_count_ -= list.notices();
  std::vector<PendingNotice>().swap(list.records_);
}

}  // namespace anow::dsm::protocol
