// Hierarchical control plane (DESIGN.md §12): the tree geometry.
//
// A Topology computes each live team member's parent and children for a
// K-ary tree rooted at the master.  The tree is laid out heap-style over
// the team's *pid order* (the parent of pid i is pid (i-1)/K), so it is a
// pure function of (team, fanout): rebuilding after a join or leave needs
// no distributed agreement — every process that knows the current team
// (which every ForkMsg carries) can derive the same tree.  A departing
// interior node's children are therefore "promoted" simply by rebuilding:
// the survivors' pids compact (PidStrategy) and the heap layout reattaches
// every orphaned subtree, mirroring how a departing shard holder's slices
// fold to a survivor.
//
// Routing policy lives in DsmSystem/DsmProcess; this class only answers
// geometry questions.  Whenever the tree would have no interior node
// (fanout >= team size - 1, which the unbounded default fanout always is)
// active() is false and the callers use the flat master-centric paths,
// byte-identical to the pre-topology protocol.
#pragma once

#include <vector>

#include "dsm/types.hpp"

namespace anow::dsm::topology {

class Topology {
 public:
  Topology() = default;

  /// Recomputes the tree over `team` (uids in pid order; team[0], the
  /// master, is the root).  Called at start() and after every team
  /// mutation (adopt/expel) — collectives never straddle a rebuild, so no
  /// in-flight combining state can reference the old shape.
  void rebuild(const std::vector<Uid>& team, int fanout);

  int fanout() const { return fanout_; }
  int size() const { return static_cast<int>(team_.size()); }

  /// Tree routing in effect: the tree has at least one interior node below
  /// the root.  With fanout >= team size - 1 every slave is a direct root
  /// child, so the tree is flat and no tree segment is ever sent.
  bool active() const;

  bool is_member(Uid uid) const;

  /// Parent uid; kNoUid for the root and for non-members.
  Uid parent_of(Uid uid) const;

  /// Children uids in pid order; empty for leaves and non-members.
  const std::vector<Uid>& children_of(Uid uid) const;

  /// Hops from the root (0 for the root itself); -1 for non-members.
  int depth_of(Uid uid) const;

  /// The child of `from` whose subtree contains `dest` (dest itself when
  /// dest is a direct child).  Both must be members with dest strictly
  /// below from.
  Uid next_hop_toward(Uid from, Uid dest) const;

 private:
  int fanout_ = 1;
  std::vector<Uid> team_;
  // Indexed by uid (uids are small dense-ish ints; kNoUid-padded).
  std::vector<Uid> parent_by_uid_;
  std::vector<std::vector<Uid>> children_by_uid_;
  std::vector<Uid> no_children_;  // stays empty; returned for non-members
};

}  // namespace anow::dsm::topology
