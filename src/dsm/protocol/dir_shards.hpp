// The owner directory and its shard layout (DESIGN.md §8).
//
// The page->owner map is the state TreadMarks' master keeps so faulting
// processes can find "where an up-to-date copy of every shared memory page
// is located" (§4.1).  The master keeps all of it: every owner change is
// one the master makes (first-touch and placement staging, GC commits,
// leave-protocol transfers, restores), so every owner read is a local
// vector read.
//
// `--dir-shards N` does not split that map.  It splits the initial data
// distribution: the heap's pages are dealt block-cyclically to the first N
// processes, each of which starts with the valid copy of its pages and is
// their default owner, and every initial team member's owner hints start
// at those default holders, so first-touch fetches spread across the
// holders instead of all landing on the master.
//
// Two classes:
//   * ShardMap        — pure page->shard / shard->default-holder math,
//                       computable by every process from DsmConfig alone
//                       (no messages needed to agree on the initial layout).
//   * DirectoryShards — the master-side owner map inside the
//                       ConsistencyEngine, plus the last-writer record
//                       buffer the LRC GC delta is computed from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dsm/msg.hpp"
#include "dsm/types.hpp"

namespace anow::dsm::protocol {

/// Static shard geometry: contiguous `block`-page ranges assigned to the
/// shards round-robin (block-cyclic).  A single equal split of the heap
/// would leave every shard but the first idle — the shared heap is
/// bump-allocated from the bottom, so small working sets all land in the
/// lowest range — while the block-cyclic map spreads any allocation across
/// all holders (block = 1 is the classic IVY-style `page mod N`
/// distributed directory).  Shard s is held by uid s (the master, uid 0,
/// holds shard 0).
struct ShardMap {
  PageId num_pages = 0;
  int shards = 1;
  PageId block = 1;

  ShardMap() = default;
  ShardMap(PageId pages, int n, PageId block_pages = 1)
      : num_pages(pages),
        shards(n < 1 ? 1 : n),
        block(block_pages < 1 ? 1 : block_pages) {}

  int shard_of(PageId p) const {
    return static_cast<int>((p / block) % static_cast<PageId>(shards));
  }
  /// Calls fn(page) for every page of `shard`, in ascending page order.
  template <typename Fn>
  void for_each_page(int shard, Fn&& fn) const {
    const PageId cycle = block * static_cast<PageId>(shards);
    for (PageId base = static_cast<PageId>(shard) * block; base < num_pages;
         base += cycle) {
      const PageId end = std::min(num_pages, base + block);
      for (PageId p = base; p < end; ++p) fn(p);
    }
  }
  /// The holder a shard starts with: uid == shard index.
  Uid default_holder(int shard) const { return static_cast<Uid>(shard); }
  Uid default_holder_of_page(PageId p) const {
    return default_holder(shard_of(p));
  }
  bool sharded() const { return shards > 1; }
};

/// Last-writer record for GC ownership ("last writer wins", DESIGN.md §5).
struct LastWrite {
  Uid uid = kNoUid;
  std::int64_t lamport = -1;
};

/// The master-side owner map (owned by the ConsistencyEngine's master
/// role): the owner of every page, and the pages written since the last
/// GC with their last writers.
class DirectoryShards {
 public:
  /// attach_master-time init: one shard, every page owned by the master.
  /// configure() lays out the shards before any traffic.
  void init(PageId num_pages);

  /// start()-time layout: every page starts owned by its shard's default
  /// holder (the master for every page when shards == 1).  Must run
  /// before any protocol traffic.
  void configure(const ShardMap& map);

  const ShardMap& map() const { return map_; }

  Uid owner_of(PageId p) const { return owners_[static_cast<std::size_t>(p)]; }
  void set_owner(PageId p, Uid owner) {
    owners_[static_cast<std::size_t>(p)] = owner;
  }
  /// Applies a GC commit delta (idempotent).
  void apply_delta(const OwnerDelta& delta);
  /// The whole map, indexed by page.
  const std::vector<Uid>& owners() const { return owners_; }

  /// Restore path: back to one shard with every page owned by the master
  /// (the master holds the restored image).
  void collapse_to_master();

  // --- write records (GC delta computation) -------------------------------
  /// Logs one write notice: last-writer-wins merge into the record buffer,
  /// with the single-writer conflict check (two different writers of a
  /// single-writer page in one epoch is a protocol violation).
  void record_write(PageId p, Uid creator, std::int64_t lamport,
                    Protocol protocol);

  /// The GC owner delta: every recorded page whose last writer is not its
  /// owner, page-ascending.  Clears the records.
  OwnerDelta take_gc_delta();

 private:
  ShardMap map_;
  std::vector<Uid> owners_;
  // Compact buffer of pages written since the last GC, one entry per page,
  // sorted on demand at GC time; record_slot_ makes the per-notice merge
  // O(1).
  std::vector<std::pair<PageId, LastWrite>> records_;
  bool records_sorted_ = true;
  /// Per page: 1 + index into records_, 0 = no record.
  std::vector<std::int32_t> record_slot_;
};

/// Pages owned by `uid` in an owner map; counts first so the output
/// allocates exactly once.
std::vector<PageId> owned_pages(const std::vector<Uid>& owner, Uid uid);
/// All uids' page lists in one scan of an owner map (index = uid; sized to
/// the highest owner present).  Use instead of repeated owned_pages calls
/// when several processes are inspected at once.
std::vector<std::vector<PageId>> owned_pages_by_all(
    const std::vector<Uid>& owner);

/// Directory-related node attachment parameters, computed by DsmSystem for
/// each process from the shard map (empty == the unsharded defaults: no
/// seeded pages, every owner hint at the master; the master of an
/// unsharded system gets the whole heap seeded).
struct NodeDirInit {
  static constexpr int kSeedNone = -1;  ///< nothing seeded (slaves, joiners)
  static constexpr int kSeedAll = -2;   ///< whole heap (unsharded master)
  /// Pages this node starts with a valid+exclusive copy of: kSeedAll,
  /// kSeedNone, or a shard index (the holder's own page set).
  int seed_shard = kSeedNone;
  /// When set, owner hints start at each page's default holder instead of
  /// the master (initial team members of a sharded system).
  const ShardMap* hint_map = nullptr;
};

}  // namespace anow::dsm::protocol
