// Unit tests for the flat consistency-engine building blocks:
// the per-page AppliedMap and the master's dense DeliveryMatrix.
#include <gtest/gtest.h>

#include <map>

#include "dsm/protocol/applied_map.hpp"
#include "dsm/protocol/delivery_matrix.hpp"
#include "util/rng.hpp"

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

}  // namespace
}  // namespace anow::dsm
