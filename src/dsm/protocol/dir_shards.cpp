#include "dsm/protocol/dir_shards.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace anow::dsm::protocol {

void DirectoryShards::init(PageId num_pages) {
  map_ = ShardMap(num_pages, 1);
  owners_.assign(static_cast<std::size_t>(num_pages), kMasterUid);
  records_.clear();
  records_sorted_ = true;
  record_slot_.assign(static_cast<std::size_t>(num_pages), 0);
}

void DirectoryShards::configure(const ShardMap& map) {
  ANOW_CHECK_MSG(records_.empty(),
                 "directory layout changed after writes were recorded");
  ANOW_CHECK(map.num_pages == map_.num_pages);
  map_ = map;
  for (PageId p = 0; p < map_.num_pages; ++p) {
    owners_[static_cast<std::size_t>(p)] = map_.default_holder_of_page(p);
  }
}

void DirectoryShards::apply_delta(const OwnerDelta& delta) {
  for (const auto& [p, owner] : delta) set_owner(p, owner);
}

void DirectoryShards::collapse_to_master() {
  ANOW_CHECK_MSG(records_.empty(),
                 "directory collapse with buffered write records");
  // Back to the unsharded geometry, so page defaults (first-touch home
  // assignability, hint seeding) are the master's again.
  map_ = ShardMap(map_.num_pages, 1);
  for (auto& o : owners_) o = kMasterUid;
}

void DirectoryShards::record_write(PageId p, Uid creator,
                                   std::int64_t lamport, Protocol protocol) {
  std::int32_t& slot = record_slot_[static_cast<std::size_t>(p)];
  if (slot == 0) {
    if (!records_.empty() && records_.back().first > p) {
      records_sorted_ = false;
    }
    records_.emplace_back(p, LastWrite{creator, lamport});
    slot = static_cast<std::int32_t>(records_.size());
    return;
  }
  LastWrite& lw = records_[static_cast<std::size_t>(slot - 1)].second;
  if (protocol == Protocol::kSingleWriter && lw.uid != creator &&
      lw.lamport == lamport) {
    ANOW_CHECK_MSG(false, "two single-writer writers for page "
                              << p << " in one epoch (uids " << lw.uid << ", "
                              << creator << ")");
  }
  if (lamport > lw.lamport || (lamport == lw.lamport && creator > lw.uid)) {
    lw.uid = creator;
    lw.lamport = lamport;
  }
}

OwnerDelta DirectoryShards::take_gc_delta() {
  if (!records_sorted_) {
    std::sort(records_.begin(), records_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    records_sorted_ = true;
  }
  // Records exist exactly for written pages, so walking them page-ascending
  // is the last-writer scan of the whole map.
  OwnerDelta delta;
  for (const auto& [p, lw] : records_) {
    if (lw.uid != owner_of(p)) delta.emplace_back(p, lw.uid);
    record_slot_[static_cast<std::size_t>(p)] = 0;
  }
  records_.clear();
  return delta;
}

std::vector<PageId> owned_pages(const std::vector<Uid>& owner, Uid uid) {
  std::size_t n = 0;
  for (const Uid o : owner) {
    if (o == uid) ++n;
  }
  std::vector<PageId> out;
  out.reserve(n);
  for (PageId p = 0; p < static_cast<PageId>(owner.size()); ++p) {
    if (owner[static_cast<std::size_t>(p)] == uid) out.push_back(p);
  }
  return out;
}

std::vector<std::vector<PageId>> owned_pages_by_all(
    const std::vector<Uid>& owner) {
  // Single scan: size the per-uid buckets, then fill them, instead of one
  // O(num_pages) pass per uid.
  Uid max_uid = kNoUid;
  for (const Uid o : owner) max_uid = std::max(max_uid, o);
  std::vector<std::size_t> counts(static_cast<std::size_t>(max_uid + 1), 0);
  for (const Uid o : owner) {
    if (o >= 0) ++counts[static_cast<std::size_t>(o)];
  }
  std::vector<std::vector<PageId>> out(counts.size());
  for (std::size_t u = 0; u < counts.size(); ++u) out[u].reserve(counts[u]);
  for (PageId p = 0; p < static_cast<PageId>(owner.size()); ++p) {
    const Uid o = owner[static_cast<std::size_t>(p)];
    if (o >= 0) out[static_cast<std::size_t>(o)].push_back(p);
  }
  return out;
}

}  // namespace anow::dsm::protocol
