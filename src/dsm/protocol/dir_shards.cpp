#include "dsm/protocol/dir_shards.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace anow::dsm::protocol {

void DirectoryShards::init(PageId num_pages) {
  map_ = ShardMap(num_pages, 1);
  holders_.assign(1, kMasterUid);
  owners_.assign(static_cast<std::size_t>(num_pages), kMasterUid);
  records_.assign(1, {});
  record_slot_.assign(static_cast<std::size_t>(num_pages), 0);
  records_total_ = 0;
}

void DirectoryShards::configure(const ShardMap& map) {
  ANOW_CHECK_MSG(records_total_ == 0,
                 "directory repartition after writes were recorded");
  ANOW_CHECK(map.num_pages == map_.num_pages);
  map_ = map;
  holders_.resize(static_cast<std::size_t>(map_.shards));
  records_.assign(static_cast<std::size_t>(map_.shards), {});
  for (int s = 0; s < map_.shards; ++s) {
    holders_[static_cast<std::size_t>(s)] = map_.default_holder(s);
    if (!is_held(s)) continue;
    // Master-held pages start owned by the master (shard 0; with
    // shards == 1 this is the whole heap — the unsharded layout).
    map_.for_each_page(
        s, [&](PageId p) { owners_[static_cast<std::size_t>(p)] = kMasterUid; });
  }
}

bool DirectoryShards::all_held() const {
  for (int s = 0; s < map_.shards; ++s) {
    if (!is_held(s)) return false;
  }
  return true;
}

Uid DirectoryShards::local_owner_of(PageId p) const {
  ANOW_CHECK_MSG(is_held_page(p),
                 "local owner read of page " << p << " whose shard "
                                             << map_.shard_of(p)
                                             << " is remotely held");
  return owners_[static_cast<std::size_t>(p)];
}

void DirectoryShards::set_local_owner(PageId p, Uid owner) {
  ANOW_CHECK_MSG(is_held_page(p),
                 "local owner write of page " << p << " whose shard "
                                              << map_.shard_of(p)
                                              << " is remotely held");
  owners_[static_cast<std::size_t>(p)] = owner;
}

void DirectoryShards::apply_delta_local(const OwnerDelta& delta) {
  for (const auto& [p, owner] : delta) {
    if (is_held_page(p)) owners_[static_cast<std::size_t>(p)] = owner;
  }
}

const std::vector<Uid>& DirectoryShards::full_owner_map() const {
  ANOW_CHECK_MSG(all_held(),
                 "full owner map read while shards are remotely held");
  return owners_;
}

std::vector<Uid> DirectoryShards::held_slice(int shard) const {
  ANOW_CHECK(is_held(shard));
  std::vector<Uid> out;
  out.reserve(static_cast<std::size_t>(map_.pages_in_shard(shard)));
  map_.for_each_page(shard, [&](PageId p) {
    out.push_back(owners_[static_cast<std::size_t>(p)]);
  });
  return out;
}

void DirectoryShards::fold(int shard, std::vector<Uid> owners) {
  ANOW_CHECK(!is_held(shard));
  ANOW_CHECK(static_cast<PageId>(owners.size()) ==
             map_.pages_in_shard(shard));
  holders_[static_cast<std::size_t>(shard)] = kMasterUid;
  std::size_t i = 0;
  map_.for_each_page(shard, [&](PageId p) {
    owners_[static_cast<std::size_t>(p)] = owners[i++];
  });
}

void DirectoryShards::collapse_to_master() {
  ANOW_CHECK_MSG(records_total_ == 0,
                 "directory collapse with buffered write records");
  // Back to the unsharded geometry: one master-held shard, so page
  // defaults (first-touch home assignability, hint seeding) are the
  // master's again.
  map_ = ShardMap(map_.num_pages, 1);
  holders_.assign(1, kMasterUid);
  records_.assign(1, {});
  reset_owners_to_master();
}

void DirectoryShards::reset_owners_to_master() {
  ANOW_CHECK_MSG(all_held(),
                 "owner reset while shards are remotely held");
  for (auto& o : owners_) o = kMasterUid;
}

void DirectoryShards::sort_records(ShardRecords& r) {
  if (r.sorted) return;
  std::sort(r.entries.begin(), r.entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  r.sorted = true;
}

void DirectoryShards::record_write(PageId p, Uid creator,
                                   std::int64_t lamport, Protocol protocol) {
  ShardRecords& r = records_[static_cast<std::size_t>(map_.shard_of(p))];
  std::int32_t& slot = record_slot_[static_cast<std::size_t>(p)];
  if (slot == 0) {
    if (!r.entries.empty() && r.entries.back().first > p) r.sorted = false;
    r.entries.emplace_back(p, LastWrite{creator, lamport});
    slot = static_cast<std::int32_t>(r.entries.size());
    ++records_total_;
    return;
  }
  LastWrite& lw = r.entries[static_cast<std::size_t>(slot - 1)].second;
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

std::vector<std::pair<Uid, DirDeltaRequest>>
DirectoryShards::plan_delta_requests() {
  std::vector<std::pair<Uid, DirDeltaRequest>> out;
  for (int s = 0; s < map_.shards; ++s) {
    if (is_held(s)) continue;
    ShardRecords& r = records_[static_cast<std::size_t>(s)];
    if (r.entries.empty()) continue;
    sort_records(r);
    DirDeltaRequest req;
    req.shard = s;
    req.records.reserve(r.entries.size());
    for (const auto& [p, lw] : r.entries) {
      req.records.emplace_back(p, lw.uid);
    }
    out.emplace_back(holder_of(s), std::move(req));
  }
  return out;
}

OwnerDelta DirectoryShards::merge_partials(
    const std::vector<std::pair<int, OwnerDelta>>& remote) {
  OwnerDelta delta;
  for (int s = 0; s < map_.shards; ++s) {
    ShardRecords& r = records_[static_cast<std::size_t>(s)];
    if (is_held(s)) {
      // The unsharded last-writer scan, restricted to this range: records
      // exist exactly for written pages, so iterating them page-ascending
      // reproduces the historical full-map walk bit for bit.
      sort_records(r);
      for (const auto& [p, lw] : r.entries) {
        if (lw.uid != owners_[static_cast<std::size_t>(p)]) {
          delta.emplace_back(p, lw.uid);
        }
      }
    } else {
      for (const auto& [shard, partial] : remote) {
        if (shard != s) continue;
        delta.insert(delta.end(), partial.begin(), partial.end());
        break;
      }
    }
    for (const auto& [p, lw] : r.entries) {
      (void)lw;
      record_slot_[static_cast<std::size_t>(p)] = 0;
    }
    r.entries.clear();
    r.sorted = true;
  }
  records_total_ = 0;
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
