// MigrationPlanner — the execution half of the adaptive placement
// subsystem (DESIGN.md §9).
//
// Holds the policy's decision from the barrier that requested the GC until
// the GC round that executes it, and turns it into protocol actions that
// ride the round's existing messages:
//   * page re-homes are staged into the engine's pending commit delta
//     (ConsistencyEngine::stage_owner_moves), so they travel in the same
//     atomic OwnerDelta as first-touch assignments, with prepare-phase
//     validation — plus a HomeMove adoption notice staged ahead of each
//     new home's GcPrepare;
//   * shard moves extend the GC's DirDeltaRequest round with slice
//     fetches (want_slice) and then stage ShardMove segments ahead of the
//     GcPrepare fan-out: contents to the new holder, a drop to the old —
//     the same fold/adopt shape the leave protocol uses, with the GcAck
//     that already gates the commit doubling as the adoption barrier.
//
// No new ack round exists anywhere: every placement segment rides the
// GcPrepare envelope the GC round sends anyway.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dsm/msg.hpp"
#include "dsm/placement/policy.hpp"
#include "dsm/protocol/dir_shards.hpp"
#include "dsm/types.hpp"

namespace anow::util {
class StatsRegistry;
}

namespace anow::dsm {
class Channel;
}

namespace anow::dsm::placement {

class MigrationPlanner {
 public:
  /// Arms the planner with the decision of the barrier that requested the
  /// GC; consumed by the next GC round (whichever path runs it).
  void set_decision(PlacementDecision decision);
  bool has_work() const { return !decision_.empty(); }
  const PlacementDecision& decision() const { return decision_; }

  /// Extends the GC's delta-collection round: remote shards slated to move
  /// get their request flagged want_slice; moving shards without write
  /// records get a records-free request appended (the reply carries the
  /// authoritative pre-GC slice either way).  Master-held moving shards
  /// need no request — their contents are read locally at stage time.
  void add_slice_requests(
      std::vector<std::pair<Uid, DirDeltaRequest>>& requests,
      const protocol::DirectoryShards& dir);

  /// A DirDeltaReply carried a requested slice.
  void note_slice(int shard, std::vector<Uid> owners);

  /// Stages every decided move ahead of the GcPrepare fan-out and updates
  /// the master-side holder table.  `delta` is the round's merged owner
  /// delta (applied to shipped slice contents so the new holder adopts
  /// post-GC state).  Returns the number of shard moves staged; home-move
  /// counts were already recorded by stage_owner_moves.
  int stage_moves(protocol::DirectoryShards& dir, Channel& master_channel,
                  const OwnerDelta& delta, const OwnerDelta& home_moves,
                  const std::function<bool(Uid)>& is_alive,
                  util::StatsRegistry& stats);

  /// Ends the round: any unexecuted remainder is dropped (a decision never
  /// outlives the GC round it armed).
  void clear();

 private:
  PlacementDecision decision_;
  std::vector<std::pair<int, std::vector<Uid>>> slices_;
};

}  // namespace anow::dsm::placement
