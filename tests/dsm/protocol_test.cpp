// Unit tests for the flat consistency-engine building blocks:
// the per-page AppliedMap, the master's dense DeliveryMatrix, and the
// engine's changed-page log.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "dsm/config.hpp"
#include "dsm/protocol/applied_map.hpp"
#include "dsm/protocol/delivery_matrix.hpp"
#include "dsm/protocol/engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace anow::dsm {
namespace {

TEST(AppliedMap, EmptyCoversNothing) {
  AppliedMap m;
  EXPECT_EQ(m.get(0), 0);
  EXPECT_FALSE(m.covers(3, 1));
  EXPECT_EQ(m.size(), 0u);
}

TEST(AppliedMap, BumpInsertsAndRaises) {
  AppliedMap m;
  m.bump(5, 3);
  EXPECT_EQ(m.get(5), 3);
  EXPECT_TRUE(m.covers(5, 3));
  EXPECT_FALSE(m.covers(5, 4));
  m.bump(5, 7);
  EXPECT_EQ(m.get(5), 7);
  m.bump(5, 2);  // never lowers
  EXPECT_EQ(m.get(5), 7);
}

TEST(AppliedMap, StaysSortedUnderRandomBumps) {
  util::Rng rng(42);
  AppliedMap m;
  std::map<Uid, std::int32_t> oracle;
  for (int i = 0; i < 500; ++i) {
    const Uid uid = static_cast<Uid>(rng.next_below(16));
    const auto iseq = static_cast<std::int32_t>(1 + rng.next_below(100));
    m.bump(uid, iseq);
    auto& o = oracle[uid];
    o = std::max(o, iseq);
  }
  EXPECT_EQ(m.size(), oracle.size());
  Uid prev = -1;
  for (const auto& [uid, iseq] : m) {
    EXPECT_GT(uid, prev);  // strictly ascending: sorted, no duplicates
    prev = uid;
    EXPECT_EQ(iseq, oracle.at(uid));
  }
}

TEST(DeliveryMatrix, GrowsPreservingCells) {
  protocol::DeliveryMatrix dm;
  dm.ensure(2);
  dm.raise(1, 2, 9);
  dm.raise(0, 1, 4);
  dm.ensure(40);  // forces a re-stride
  EXPECT_EQ(dm.get(1, 2), 9);
  EXPECT_EQ(dm.get(0, 1), 4);
  EXPECT_EQ(dm.get(40, 40), 0);
  dm.raise(40, 3, 2);
  EXPECT_EQ(dm.get(40, 3), 2);
}

TEST(DeliveryMatrix, RaiseIsMonotonic) {
  protocol::DeliveryMatrix dm;
  dm.ensure(4);
  dm.raise(3, 1, 5);
  dm.raise(3, 1, 2);  // lower value ignored
  EXPECT_EQ(dm.get(3, 1), 5);
}

TEST(DeliveryMatrix, ForgetClearsOneTargetRow) {
  protocol::DeliveryMatrix dm;
  dm.ensure(4);
  dm.raise(2, 1, 7);
  dm.raise(1, 2, 3);
  dm.forget(2);
  EXPECT_EQ(dm.get(2, 1), 0);
  EXPECT_EQ(dm.get(1, 2), 3);  // other rows untouched
}

TEST(DeliveryMatrix, ClearResetsEverything) {
  protocol::DeliveryMatrix dm;
  dm.ensure(8);
  for (Uid t = 0; t < 8; ++t) {
    for (Uid c = 0; c < 8; ++c) dm.raise(t, c, 1 + t + c);
  }
  dm.clear();
  for (Uid t = 0; t < 8; ++t) {
    for (Uid c = 0; c < 8; ++c) EXPECT_EQ(dm.get(t, c), 0);
  }
}

// The changed-page log the real backend's protection sync drains
// (DESIGN.md §14).  It lives in the engine base class, so both engines
// must behave alike.
class ChangedPageLog : public ::testing::TestWithParam<EngineKind> {
 protected:
  static constexpr PageId kPages = 8;

  void SetUp() override {
    config_.engine = GetParam();
    engine_ = protocol::make_engine(config_);
    engine_->attach_node(/*self=*/1, region_.data(), kPages, protocol_,
                         stats_, protocol::NodeDirInit{});
  }

  std::vector<PageId> drain() {
    std::vector<PageId> out;
    engine_->take_changed_pages(out);
    return out;
  }

  DsmConfig config_;
  std::vector<std::uint8_t> region_ =
      std::vector<std::uint8_t>(kPages * kPageSize);
  std::vector<Protocol> protocol_ =
      std::vector<Protocol>(kPages, Protocol::kMultiWriter);
  util::StatsRegistry stats_;
  std::unique_ptr<protocol::ConsistencyEngine> engine_;
};

TEST_P(ChangedPageLog, AttachLogsEveryPage) {
  std::vector<PageId> all(kPages);
  std::iota(all.begin(), all.end(), PageId{0});
  EXPECT_EQ(drain(), all);
  EXPECT_TRUE(drain().empty());  // the drain emptied the log
}

TEST_P(ChangedPageLog, MutablePageLogsOnceInPageOrder) {
  drain();
  engine_->page(5);
  engine_->page(2);
  engine_->page(5).owner_hint = 3;
  engine_->page(2);
  EXPECT_EQ(drain(), (std::vector<PageId>{2, 5}));
  EXPECT_TRUE(drain().empty());
  engine_->page(5);  // logged again after the drain
  EXPECT_EQ(drain(), (std::vector<PageId>{5}));
}

TEST_P(ChangedPageLog, ConstPageLogsNothing) {
  drain();
  const protocol::ConsistencyEngine& view = std::as_const(*engine_);
  for (PageId p = 0; p < kPages; ++p) EXPECT_FALSE(view.page(p).is_valid());
  EXPECT_TRUE(drain().empty());
}

TEST_P(ChangedPageLog, DrainReplacesTheCallersContents) {
  std::vector<PageId> out = {7, 7, 7};  // stale contents are dropped
  engine_->take_changed_pages(out);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kPages));
  engine_->page(3);
  engine_->take_changed_pages(out);
  EXPECT_EQ(out, (std::vector<PageId>{3}));
}

INSTANTIATE_TEST_SUITE_P(Engines, ChangedPageLog,
                         ::testing::Values(EngineKind::kLrc,
                                           EngineKind::kHomeLrc),
                         [](const auto& info) {
                           return std::string(enum_name(info.param));
                         });

}  // namespace
}  // namespace anow::dsm
