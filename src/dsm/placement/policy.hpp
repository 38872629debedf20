// PlacementPolicy — the decision half of the adaptive placement subsystem
// (DESIGN.md §9).
//
// Reads the AccessMonitor's window aggregates at each barrier and decides
// which pages should re-home to their dominant writer.  Only the home-based
// engine has page homes to move: LRC's GC already moves owners to last
// writers, so DsmSystem runs the policy under --engine home alone.
//
// Decisions are hysteresis-gated (kHysteresis windows) so a page
// ping-ponging between writers never triggers a move.  DsmSystem executes
// them at the next GC round; the policy itself only reads state and keeps
// the master-side owner shadow.
//
// The owner shadow: every ownership change in the system flows through the
// master (GC commit deltas, first-touch assignments, leave-protocol
// transfers), so the policy maintains an exact local
// copy of the *post-commit* owner map — note_owner_delta() is called
// wherever the master applies or broadcasts a delta.  It is not the
// engine's owner map, which also holds the first-touch homes staged at the
// current barrier.
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/msg.hpp"
#include "dsm/protocol/dir_shards.hpp"
#include "dsm/types.hpp"

namespace anow::dsm::placement {

class AccessMonitor;

class PlacementPolicy {
 public:
  /// A page re-homes only after the same sole writer dominated it for this
  /// many consecutive monitoring windows (barrier epochs).
  static constexpr std::uint16_t kHysteresis = 2;

  /// Seeds the owner shadow from the shard layout fixed at start(), and
  /// again after a checkpoint restore collapses the directory.
  void configure(const protocol::ShardMap& map);

  /// Keeps the owner shadow exact: called for every delta the master
  /// commits or broadcasts (GC commit, queued leave transfers) — see the
  /// header comment.
  void note_owner_delta(const OwnerDelta& delta);
  Uid shadow_owner(PageId p) const {
    return owner_shadow_[static_cast<std::size_t>(p)];
  }

  /// Evaluates the window that just ended (monitor.end_window() must have
  /// run): the (page, dominant writer) re-homes, page-ascending.  `team` is
  /// the current team by pid; moves only target its members.
  OwnerDelta decide(const AccessMonitor& monitor,
                    const std::vector<Uid>& team) const;

 private:
  const protocol::ShardMap* map_ = nullptr;
  std::vector<Uid> owner_shadow_;
};

}  // namespace anow::dsm::placement
