// Channel: the per-process outbound staging API of the DSM transport.
//
// All protocol traffic leaves a process through its Channel.  Callers either
// `send()` a segment (it departs now) or `stage()` one for a destination and
// let a later send/flush to that destination carry it.  There is one
// coalescing policy and it lives here: staged segments accumulate per
// destination and the next send()/flush() to that destination merges them,
// *in staging order, ahead of the sent segment*, into one envelope
// (DESIGN.md §7).  A send with nothing staged is a single-segment envelope,
// whose wire size is the flat per-message cost.
//
// The ordering rule is what makes staging safe to sprinkle across the
// release paths: a segment staged for `to` can never be overtaken by a
// later segment to `to` from the same sender, because every departure path
// drains the stage first.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dsm/msg.hpp"
#include "dsm/types.hpp"

namespace anow::dsm {

class Channel {
 public:
  /// Hands a ready envelope to the transport (DsmSystem::send_envelope).
  using Sink = std::function<void(Uid to, Envelope env)>;

  Channel(Uid self, Sink sink) : self_(self), sink_(std::move(sink)) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Queues `seg` for the next envelope to `to`.
  void stage(Uid to, Segment seg) { buffer(to).push_back(std::move(seg)); }

  /// Sends one envelope to `to`: everything staged for it, then `seg`.
  void send(Uid to, Segment seg) {
    stage(to, std::move(seg));
    flush(to);
  }

  /// Sends everything staged for `to` (no-op when nothing is).  The staged
  /// vector itself becomes the envelope payload — zero-copy handoff to
  /// deliver, no per-segment move into a fresh buffer (DESIGN.md §10).
  void flush(Uid to) {
    auto* staged = find_buffer(to);
    if (staged == nullptr || staged->empty()) return;
    emit(to, std::move(*staged));
    staged->clear();
  }

  void flush_all() {
    for (auto& [to, staged] : buffers_) {
      if (staged.empty()) continue;
      emit(to, std::move(staged));
      staged.clear();
    }
  }

  bool has_staged(Uid to) const {
    for (const auto& [uid, staged] : buffers_) {
      if (uid == to) return !staged.empty();
    }
    return false;
  }

  /// Total segments staged across all destinations.  Observability only
  /// (the expel drain invariant, DESIGN.md §13) — protocol code reasons
  /// per destination via has_staged/take_staged.
  std::int64_t staged_total() const {
    std::int64_t n = 0;
    for (const auto& [uid, staged] : buffers_) {
      n += static_cast<std::int64_t>(staged.size());
    }
    return n;
  }

  /// Removes and returns everything staged for `to`, in staging order.
  /// The tree control plane (DESIGN.md §12) pulls the stage into the
  /// destination's multicast route so the no-overtaking rule keeps holding
  /// when a departure is tree-routed instead of direct: the staged
  /// segments still precede the instruction, inside the route.
  std::vector<Segment> take_staged(Uid to) {
    auto* staged = find_buffer(to);
    if (staged == nullptr) return {};
    std::vector<Segment> out = std::move(*staged);
    staged->clear();
    return out;
  }

 private:
  void emit(Uid to, std::vector<Segment> segs) {
    Envelope env;
    env.src = self_;
    env.segments = std::move(segs);
    sink_(to, std::move(env));
  }

  std::vector<Segment>* find_buffer(Uid to) {
    for (auto& [uid, staged] : buffers_) {
      if (uid == to) return &staged;
    }
    return nullptr;
  }

  std::vector<Segment>& buffer(Uid to) {
    if (auto* found = find_buffer(to)) return *found;
    buffers_.emplace_back(to, std::vector<Segment>{});
    return buffers_.back().second;
  }

  Uid self_;
  Sink sink_;
  // Flat per-destination buffers: a process stages for a handful of peers.
  std::vector<std::pair<Uid, std::vector<Segment>>> buffers_;
};

}  // namespace anow::dsm
