#include "analysis/race_detector.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/check.hpp"

namespace anow::analysis {

namespace {

/// Component read that tolerates ragged clocks (uids join over time).
std::int64_t comp(const std::vector<std::int64_t>& v, dsm::Uid q) {
  const auto i = static_cast<std::size_t>(q);
  return i < v.size() ? v[i] : 0;
}

void max_into(std::vector<std::int64_t>& dst,
              const std::vector<std::int64_t>& src) {
  if (dst.size() < src.size()) dst.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::max(dst[i], src[i]);
  }
}

int first_word(const std::array<std::uint64_t, dsm::kWordsPerPage / 64>& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m[i] != 0) {
      return static_cast<int>(i * 64) + std::countr_zero(m[i]);
    }
  }
  return -1;
}

int last_word(const std::array<std::uint64_t, dsm::kWordsPerPage / 64>& m) {
  for (std::size_t i = m.size(); i-- > 0;) {
    if (m[i] != 0) {
      return static_cast<int>(i * 64) + 63 - std::countl_zero(m[i]);
    }
  }
  return -1;
}

}  // namespace

void RaceDetector::grow_to(dsm::Uid uid) {
  const auto n = static_cast<std::size_t>(uid) + 1;
  if (vc_.size() < n) {
    vc_.resize(n);
    live_.resize(n, false);
    open_.resize(n);
  }
  if (!live_[static_cast<std::size_t>(uid)]) {
    live_[static_cast<std::size_t>(uid)] = true;
    auto& vc = vc_[static_cast<std::size_t>(uid)];
    if (vc.size() < n) vc.resize(n, 0);
    // A fresh process starts in epoch 1 (0 means "never synchronized with").
    if (vc[static_cast<std::size_t>(uid)] == 0) {
      vc[static_cast<std::size_t>(uid)] = 1;
    }
  }
}

void RaceDetector::record(dsm::Uid uid, dsm::GAddr addr, std::size_t len,
                          bool is_write) {
  if (len == 0) return;
  grow_to(uid);
  auto& open = open_[static_cast<std::size_t>(uid)];
  const dsm::PageId end = dsm::page_end(addr, len);
  for (dsm::PageId p = dsm::page_of(addr); p < end; ++p) {
    PageAccess& acc = open[p];
    WordMask& mask = is_write ? acc.write : acc.read;
    const dsm::GAddr base = dsm::page_base(p);
    const dsm::GAddr lo = std::max<dsm::GAddr>(addr, base);
    const dsm::GAddr hi =
        std::min<dsm::GAddr>(addr + len, base + dsm::kPageSize);
    const auto w0 = static_cast<std::size_t>(lo - base) / dsm::kWordSize;
    const auto w1 = static_cast<std::size_t>(hi - 1 - base) / dsm::kWordSize;
    for (std::size_t w = w0; w <= w1; ++w) {
      mask[w / 64] |= std::uint64_t{1} << (w % 64);
    }
  }
}

void RaceDetector::close_segment(dsm::Uid uid) {
  grow_to(uid);
  auto& open = open_[static_cast<std::size_t>(uid)];
  if (open.empty()) return;
  ++segments_closed_;
  check_against_retained(uid, open);
  Segment seg;
  seg.uid = uid;
  seg.epoch = comp(vc_[static_cast<std::size_t>(uid)], uid);
  seg.pages = std::move(open);
  open.clear();
  retained_.push_back(std::move(seg));
}

void RaceDetector::check_against_retained(
    dsm::Uid uid, std::unordered_map<dsm::PageId, PageAccess>& open) {
  const VectorClock& my_vc = vc_[static_cast<std::size_t>(uid)];
  const std::int64_t my_epoch = comp(my_vc, uid);
  for (const Segment& seg : retained_) {
    if (seg.uid == uid) continue;
    // Ordered after the stored segment?  Then no race by happens-before.
    if (comp(my_vc, seg.uid) >= seg.epoch) continue;
    ++pair_checks_;
    for (const auto& [page, mine] : open) {
      auto it = seg.pages.find(page);
      if (it == seg.pages.end()) continue;
      const PageAccess& theirs = it->second;
      WordMask ww{}, wr{}, rw{};
      bool any_ww = false, any_wr = false, any_rw = false;
      for (std::size_t i = 0; i < ww.size(); ++i) {
        ww[i] = theirs.write[i] & mine.write[i];
        wr[i] = theirs.write[i] & mine.read[i] & ~ww[i];
        rw[i] = theirs.read[i] & mine.write[i] & ~ww[i];
        any_ww |= ww[i] != 0;
        any_wr |= wr[i] != 0;
        any_rw |= rw[i] != 0;
      }
      if (any_ww) report(seg, uid, my_epoch, page, ww, "ww");
      if (any_wr) report(seg, uid, my_epoch, page, wr, "wr");
      if (any_rw) report(seg, uid, my_epoch, page, rw, "rw");
    }
  }
}

void RaceDetector::report(const Segment& old_seg, dsm::Uid uid,
                          std::int64_t epoch, dsm::PageId page,
                          const WordMask& overlap, const char* kind) {
  // One report per (page, pair, kind): the sweep loops re-touch the same
  // conflicting words every iteration and would otherwise drown the signal.
  if (!seen_keys_.insert({page, old_seg.uid, uid, kind}).second) return;
  ++race_count_;
  if (reports_.size() >= kMaxStoredReports) return;
  RaceReport r;
  r.page = page;
  r.word_first = first_word(overlap);
  r.word_last = last_word(overlap);
  r.uid_a = old_seg.uid;
  r.uid_b = uid;
  r.epoch_a = old_seg.epoch;
  r.epoch_b = epoch;
  r.kind = kind;
  reports_.push_back(r);
}

void RaceDetector::release_point(dsm::Uid uid) {
  close_segment(uid);
  auto& vc = vc_[static_cast<std::size_t>(uid)];
  if (vc.size() <= static_cast<std::size_t>(uid)) {
    vc.resize(static_cast<std::size_t>(uid) + 1, 0);
  }
  ++vc[static_cast<std::size_t>(uid)];
}

void RaceDetector::join(dsm::Uid uid, const VectorClock& src) {
  max_into(vc_[static_cast<std::size_t>(uid)], src);
}

void RaceDetector::on_barrier_arrive(dsm::Uid uid) {
  grow_to(uid);
  close_segment(uid);
  max_into(barrier_accum_, vc_[static_cast<std::size_t>(uid)]);
  release_point(uid);
}

void RaceDetector::on_barrier_sealed() {
  // All arrivals of this epoch happened (in simulated time) before this
  // point, and every arrival of the *next* epoch is causally after one of
  // this epoch's releases — so a single sealed clock is never joined late.
  barrier_sealed_ = std::move(barrier_accum_);
  barrier_accum_.clear();
  prune_retained();
}

void RaceDetector::on_barrier_release(dsm::Uid uid) {
  grow_to(uid);
  close_segment(uid);
  join(uid, barrier_sealed_);
}

void RaceDetector::on_lock_release(dsm::Uid uid, std::int64_t lock_id) {
  grow_to(uid);
  close_segment(uid);
  max_into(lock_vc_[lock_id], vc_[static_cast<std::size_t>(uid)]);
  release_point(uid);
}

void RaceDetector::on_lock_acquire(dsm::Uid uid, std::int64_t lock_id) {
  grow_to(uid);
  close_segment(uid);
  auto it = lock_vc_.find(lock_id);
  if (it != lock_vc_.end()) join(uid, it->second);
}

void RaceDetector::on_fork_publish(dsm::Uid master) {
  grow_to(master);
  close_segment(master);
  fork_vc_ = vc_[static_cast<std::size_t>(master)];
  release_point(master);
}

void RaceDetector::on_fork_join(dsm::Uid uid) {
  grow_to(uid);
  close_segment(uid);
  join(uid, fork_vc_);
}

void RaceDetector::on_expel(dsm::Uid uid) {
  if (static_cast<std::size_t>(uid) < live_.size()) {
    close_segment(uid);
    live_[static_cast<std::size_t>(uid)] = false;
  }
}

void RaceDetector::prune_retained() {
  auto covered = [this](const Segment& seg) {
    for (std::size_t p = 0; p < vc_.size(); ++p) {
      if (!live_[p]) continue;
      if (comp(vc_[p], seg.uid) < seg.epoch) return false;
    }
    return true;
  };
  std::erase_if(retained_, covered);
}

void RaceDetector::finalize(util::StatsRegistry& stats) {
  if (finalized_) return;
  finalized_ = true;
  for (std::size_t uid = 0; uid < open_.size(); ++uid) {
    close_segment(static_cast<dsm::Uid>(uid));
  }
  stats.counter("obs.race.reports") = race_count_;
  stats.counter("obs.race.segments") = segments_closed_;
  stats.counter("obs.race.checks") = pair_checks_;
}

std::string RaceDetector::races_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    const RaceReport& r = reports_[i];
    if (i != 0) os << ",";
    os << "{\"page\":" << r.page << ",\"word_first\":" << r.word_first
       << ",\"word_last\":" << r.word_last << ",\"uids\":[" << r.uid_a << ","
       << r.uid_b << "],\"epochs\":[" << r.epoch_a << "," << r.epoch_b
       << "],\"kind\":\"" << r.kind << "\"}";
  }
  os << "]";
  return os.str();
}

}  // namespace anow::analysis
