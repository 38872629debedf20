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
// every orphaned subtree.
//
// Routing policy lives in DsmSystem/DsmProcess; this class only answers
// geometry questions.  The star is not a special case: under a fanout that
// covers the team (fanout >= team size - 1, which the unbounded default
// always is) every slave is a leaf child of the root, and collectives cross
// such a hop as the plain segments the master-centric protocol always sent.
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

  bool is_member(Uid uid) const;

  /// A member whose parent is the root and whose subtree is only itself.
  /// The hop between it and the root needs no combining or routing, so
  /// collectives cross it as plain segments (the vehicle rule).
  bool is_root_leaf(Uid uid) const;

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
