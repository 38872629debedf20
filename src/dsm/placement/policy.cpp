#include "dsm/placement/policy.hpp"

#include <algorithm>

#include "dsm/placement/access_monitor.hpp"

namespace anow::dsm::placement {

void PlacementPolicy::configure(const protocol::ShardMap& map) {
  map_ = &map;
  owner_shadow_.assign(static_cast<std::size_t>(map.num_pages), kMasterUid);
  for (PageId p = 0; p < map.num_pages; ++p) {
    owner_shadow_[static_cast<std::size_t>(p)] =
        map.default_holder_of_page(p);
  }
}

void PlacementPolicy::note_owner_delta(const OwnerDelta& delta) {
  for (const auto& [p, owner] : delta) {
    owner_shadow_[static_cast<std::size_t>(p)] = owner;
  }
}

OwnerDelta PlacementPolicy::decide(const AccessMonitor& monitor,
                                  const std::vector<Uid>& team) const {
  // Team membership by uid (moves may only target live team members).
  Uid max_uid = kNoUid;
  for (const Uid u : team) max_uid = std::max(max_uid, u);
  std::vector<std::uint8_t> in_team(static_cast<std::size_t>(max_uid + 1),
                                    0);
  for (const Uid u : team) in_team[static_cast<std::size_t>(u)] = 1;
  auto is_member = [&](Uid u) {
    return u >= 0 && u <= max_uid && in_team[static_cast<std::size_t>(u)];
  };

  // A page moves to a writer that solely dominated it for kHysteresis
  // consecutive windows.  Pages still at their default home are
  // first-touch territory (assign_homes owns those); a page already homed
  // at its dominant writer needs nothing.
  OwnerDelta moves;
  for (const PageId p : monitor.last_window_pages()) {
    const PageStat& ps = monitor.page(p);
    if (!ps.fresh || ps.streak < kHysteresis) continue;
    const Uid writer = ps.streak_writer;
    if (!is_member(writer)) continue;
    if (shadow_owner(p) == writer) continue;
    if (shadow_owner(p) == map_->default_holder_of_page(p)) continue;
    moves.emplace_back(p, writer);
  }
  std::sort(moves.begin(), moves.end());
  return moves;
}

}  // namespace anow::dsm::placement
