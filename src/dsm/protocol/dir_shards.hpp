// The sharded owner directory (DESIGN.md §8).
//
// The page->owner map — the state TreadMarks' master keeps so faulting
// processes can find "where an up-to-date copy of every shared memory page
// is located" (§4.1) — is split into `shards` contiguous page ranges.  Each
// range is held *authoritatively* by one of the first `shards` processes
// (uid == shard index; the master is always the holder of shard 0), which
// is also seeded with the initial valid copy of its range, so first-touch
// fetches spread across the holders instead of all landing on the master.
//
// Three classes:
//   * ShardMap        — pure page->shard / shard->default-holder math,
//                       computable by every process from DsmConfig alone
//                       (no messages needed to agree on the initial layout).
//   * DirSlice        — one shard's authoritative owner slice, owned by the
//                       holder's node-side engine.  Updated by GcPrepare /
//                       commit deltas (filtered to the range) and by
//                       OwnerUpdate segments; read by OwnerQuery and by the
//                       partial-delta computation of DirDeltaRequest.
//   * DirectoryShards — the master-side coordinator inside the
//                       ConsistencyEngine: the slices the master itself
//                       holds (shard 0, plus any shard folded back after
//                       its holder left), the per-shard write-record
//                       buffers GC delta computation feeds on, and the
//                       current holder table.
//
// With shards == 1 every page is master-held, no directory segment is ever
// sent, and every operation is the plain local vector walk the unsharded
// engine performed — byte-identical behaviour, verified by the dir-shards
// property test and the bench_protocols acceptance gate.
//
// Under a control-plane tree (DESIGN.md §12) the GC delta round becomes
// subtree-aware: the master's cookie-0 DirDeltaRequests multicast down the
// tree and each holder's partial DirDeltaReply relays hop-by-hop up its
// ancestor chain instead of straight to the master.  The slice/delta logic
// here is untouched — only the routing of the round changes.
#pragma once

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
/// distributed directory).  Shard s is held by uid s at start (the master,
/// uid 0, holds shard 0).
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
  /// Index of a page inside its shard's owner slice (pages of one shard in
  /// ascending page order).
  PageId local_index(PageId p) const {
    return (p / (block * static_cast<PageId>(shards))) * block + p % block;
  }
  /// Number of pages mapped to one shard.
  PageId pages_in_shard(int shard) const {
    const PageId cycle = block * static_cast<PageId>(shards);
    const PageId full = num_pages / cycle * block;
    const PageId rem = num_pages % cycle;
    const PageId lo = static_cast<PageId>(shard) * block;
    return full + std::min(block, std::max<PageId>(0, rem - lo));
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

/// One shard's authoritative owner slice, held by the holder's node-side
/// engine.  Owners are stored by the shard map's local index (the shard's
/// pages in ascending page order).  All methods are event-context safe (no
/// blocking).
class DirSlice {
 public:
  DirSlice(int shard, const ShardMap& map, Uid holder)
      : shard_(shard),
        map_(map),
        owners_(static_cast<std::size_t>(map.pages_in_shard(shard)),
                holder) {}

  int shard() const { return shard_; }
  bool contains(PageId p) const { return map_.shard_of(p) == shard_; }

  Uid owner_of(PageId p) const {
    return owners_[static_cast<std::size_t>(map_.local_index(p))];
  }
  void set_owner(PageId p, Uid owner) {
    owners_[static_cast<std::size_t>(map_.local_index(p))] = owner;
  }

  /// Applies the entries of `delta` that fall inside this range (GcPrepare
  /// owners, commit deltas, OwnerUpdate segments — all idempotent).
  void apply_delta(const OwnerDelta& delta) {
    for (const auto& [p, owner] : delta) {
      if (contains(p)) set_owner(p, owner);
    }
  }

  /// The holder side of DirDeltaRequest: records whose last writer differs
  /// from the authoritative owner form the shard's partial GC delta.
  OwnerDelta partial_delta(const OwnerDelta& records) const {
    OwnerDelta out;
    for (const auto& [p, writer] : records) {
      if (contains(p) && owner_of(p) != writer) out.emplace_back(p, writer);
    }
    return out;
  }

  /// The slice contents in local-index order (OwnerSlice wire format).
  const std::vector<Uid>& owners() const { return owners_; }

 private:
  int shard_;
  ShardMap map_;
  std::vector<Uid> owners_;
};

/// Master-side directory coordinator (owned by the ConsistencyEngine's
/// master role).  Holds the master's own slices, the per-shard write-record
/// buffers, and the holder table; the engine and DsmSystem drive it.
class DirectoryShards {
 public:
  /// attach_master-time init: one master-held shard spanning everything
  /// (the unsharded layout).  configure() re-partitions before any traffic.
  void init(PageId num_pages);

  /// start()-time repartition into `map.shards` ranges; shard 0 stays at
  /// the master, shards 1..N-1 move to their default holders (whose
  /// DirSlices are seeded by attach_node).  Must run before any protocol
  /// traffic.
  void configure(const ShardMap& map);

  const ShardMap& map() const { return map_; }
  bool sharded() const { return map_.sharded(); }

  /// Current holder of a shard (the default holder, or the master after
  /// the shard was folded back by a leave).
  Uid holder_of(int shard) const {
    return holders_[static_cast<std::size_t>(shard)];
  }
  Uid holder_of_page(PageId p) const { return holder_of(map_.shard_of(p)); }
  bool is_held(int shard) const { return holder_of(shard) == kMasterUid; }
  bool is_held_page(PageId p) const { return is_held(map_.shard_of(p)); }
  bool all_held() const;

  // --- master-held slice access -------------------------------------------
  Uid local_owner_of(PageId p) const;
  void set_local_owner(PageId p, Uid owner);
  /// Applies the master-held part of a delta (gc_finish, commit paths).
  void apply_delta_local(const OwnerDelta& delta);
  /// The full map; only valid when every shard is master-held (shards == 1,
  /// or after every holder left / a restore collapsed the directory).
  const std::vector<Uid>& full_owner_map() const;
  /// Copy of a master-held shard's range (fills OwnerSlice for symmetry
  /// with remote shards in tests).
  std::vector<Uid> held_slice(int shard) const;
  /// Re-adopts a shard at the master with the given authoritative contents
  /// (leave of its holder; `owners` comes from the final OwnerQuery).
  void fold(int shard, std::vector<Uid> owners);
  /// Restore path: every shard back to the master, every owner to the
  /// master (the directory collapses to the unsharded layout).
  void collapse_to_master();
  void reset_owners_to_master();

  // --- write records (GC delta computation) -------------------------------
  /// Logs one write notice: last-writer-wins merge into the per-shard
  /// record buffer, with the single-writer conflict check (two different
  /// writers of a single-writer page in one epoch is a protocol violation).
  void record_write(PageId p, Uid creator, std::int64_t lamport,
                    Protocol protocol);
  bool has_records() const { return records_total_ > 0; }

  /// One DirDeltaRequest per *remote* shard with records: the shard's
  /// buffered (page, last writer) pairs, page-ascending.  The master-held
  /// shards' records are consumed locally by merge_partials.
  std::vector<std::pair<Uid, DirDeltaRequest>> plan_delta_requests();

  /// Merges the full GC owner delta: master-held shards computed locally
  /// (record vs slice, exactly the unsharded last-writer scan), remote
  /// shards taken from the holders' partial replies.  Clears every record
  /// buffer.  Deterministic: shards in index order, pages ascending within
  /// each shard (with one shard this is the historical page-ascending
  /// full-map scan, bit for bit).
  OwnerDelta merge_partials(
      const std::vector<std::pair<int, OwnerDelta>>& remote);

 private:
  struct ShardRecords {
    // Compact buffer of pages written since the last GC, one entry per
    // page, sorted on demand at GC time; record_slot_ makes the per-notice
    // merge O(1).
    std::vector<std::pair<PageId, LastWrite>> entries;
    bool sorted = true;
  };
  void sort_records(ShardRecords& r);

  ShardMap map_;
  std::vector<Uid> holders_;              // per shard
  std::vector<Uid> owners_;               // full size; valid for held shards
  std::vector<ShardRecords> records_;     // per shard, since last GC
  /// Per page: 1 + index into its shard's record buffer, 0 = no record.
  std::vector<std::int32_t> record_slot_;
  std::int64_t records_total_ = 0;
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
/// each process from the shard map (empty == the historical defaults: no
/// seeded pages, every owner hint at the master; the master of an
/// unsharded system gets the whole heap seeded, exactly as before).
struct NodeDirInit {
  static constexpr int kSeedNone = -1;  ///< nothing seeded (slaves, joiners)
  static constexpr int kSeedAll = -2;   ///< whole heap (unsharded master)
  /// Pages this node starts with a valid+exclusive copy of: kSeedAll,
  /// kSeedNone, or a shard index (the holder's own page set).
  int seed_shard = kSeedNone;
  /// When set, owner hints start at each page's default holder instead of
  /// the master (initial team members of a sharded system).
  const ShardMap* hint_map = nullptr;
  /// >= 0: this node holds the authoritative DirSlice of that shard.
  int slice_shard = -1;
};

}  // namespace anow::dsm::protocol
