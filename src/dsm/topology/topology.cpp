#include "dsm/topology/topology.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace anow::dsm::topology {

void Topology::rebuild(const std::vector<Uid>& team, int fanout) {
  ANOW_CHECK(fanout >= 1);
  fanout_ = fanout;
  team_ = team;
  parent_by_uid_.clear();
  children_by_uid_.clear();
  if (team_.empty()) return;

  Uid max_uid = 0;
  for (const Uid uid : team_) max_uid = std::max(max_uid, uid);
  parent_by_uid_.assign(static_cast<std::size_t>(max_uid) + 1, kNoUid);
  children_by_uid_.assign(static_cast<std::size_t>(max_uid) + 1, {});

  const auto n = static_cast<std::int64_t>(team_.size());
  for (std::int64_t pid = 1; pid < n; ++pid) {
    const Uid parent = team_[static_cast<std::size_t>((pid - 1) / fanout_)];
    const Uid uid = team_[static_cast<std::size_t>(pid)];
    parent_by_uid_[static_cast<std::size_t>(uid)] = parent;
    children_by_uid_[static_cast<std::size_t>(parent)].push_back(uid);
  }
}

bool Topology::is_root_leaf(Uid uid) const {
  return !team_.empty() && parent_of(uid) == team_[0] &&
         children_of(uid).empty();
}

bool Topology::is_member(Uid uid) const {
  return uid >= 0 &&
         static_cast<std::size_t>(uid) < children_by_uid_.size() &&
         (parent_by_uid_[static_cast<std::size_t>(uid)] != kNoUid ||
          (!team_.empty() && team_[0] == uid));
}

Uid Topology::parent_of(Uid uid) const {
  if (uid < 0 || static_cast<std::size_t>(uid) >= parent_by_uid_.size()) {
    return kNoUid;
  }
  return parent_by_uid_[static_cast<std::size_t>(uid)];
}

const std::vector<Uid>& Topology::children_of(Uid uid) const {
  if (uid < 0 || static_cast<std::size_t>(uid) >= children_by_uid_.size()) {
    return no_children_;
  }
  return children_by_uid_[static_cast<std::size_t>(uid)];
}

int Topology::depth_of(Uid uid) const {
  if (!is_member(uid)) return -1;
  int depth = 0;
  for (Uid cur = uid; parent_of(cur) != kNoUid; cur = parent_of(cur)) {
    ++depth;
  }
  return depth;
}

Uid Topology::next_hop_toward(Uid from, Uid dest) const {
  Uid cur = dest;
  while (parent_of(cur) != from) {
    cur = parent_of(cur);
    ANOW_CHECK_MSG(cur != kNoUid, "uid " << dest << " is not below uid "
                                         << from << " in the tree");
  }
  return cur;
}

}  // namespace anow::dsm::topology
