// Unit + property tests for word-granularity RLE diffs, including the
// differential check of the vectorized scanner against the retained scalar
// reference (make_diff_scalar) and the arena-backed variant.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "dsm/diff.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace anow::dsm {
namespace {

using Page = std::array<std::uint8_t, kPageSize>;

Page zero_page() {
  Page p{};
  return p;
}

TEST(Diff, IdenticalPagesGiveEmptyDiff) {
  Page a = zero_page(), b = zero_page();
  EXPECT_TRUE(make_diff(a.data(), b.data()).empty());
}

TEST(Diff, SingleWordChange) {
  Page twin = zero_page(), cur = zero_page();
  cur[8] = 0xAB;  // word 1
  DiffBytes d = make_diff(twin.data(), cur.data());
  EXPECT_EQ(diff_run_count(d), 1u);
  EXPECT_EQ(d.size(), 4u + kWordSize);
  EXPECT_TRUE(diff_is_valid(d));
}

TEST(Diff, ApplyRecreatesPage) {
  Page twin = zero_page(), cur = zero_page();
  for (int w : {0, 1, 5, 100, 511}) {
    cur[w * kWordSize + 3] = static_cast<std::uint8_t>(w);
  }
  DiffBytes d = make_diff(twin.data(), cur.data());
  Page target = twin;
  apply_diff(target.data(), d);
  EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPageSize), 0);
}

TEST(Diff, AdjacentWordsCoalesceIntoOneRun) {
  Page twin = zero_page(), cur = zero_page();
  cur[10 * kWordSize] = 1;
  cur[11 * kWordSize] = 2;
  cur[12 * kWordSize] = 3;
  DiffBytes d = make_diff(twin.data(), cur.data());
  EXPECT_EQ(diff_run_count(d), 1u);
}

TEST(Diff, DisjointRunsStaySeparate) {
  Page twin = zero_page(), cur = zero_page();
  cur[0] = 1;                  // word 0
  cur[100 * kWordSize] = 2;    // word 100
  DiffBytes d = make_diff(twin.data(), cur.data());
  EXPECT_EQ(diff_run_count(d), 2u);
}

TEST(Diff, FullPageChange) {
  Page twin = zero_page(), cur;
  cur.fill(0xFF);
  DiffBytes d = make_diff(twin.data(), cur.data());
  EXPECT_EQ(diff_run_count(d), 1u);
  EXPECT_EQ(d.size(), 4u + kPageSize);
  Page target = zero_page();
  apply_diff(target.data(), d);
  EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPageSize), 0);
}

TEST(Diff, LastWordOnly) {
  Page twin = zero_page(), cur = zero_page();
  cur[kPageSize - 1] = 0x7;
  DiffBytes d = make_diff(twin.data(), cur.data());
  EXPECT_EQ(diff_run_count(d), 1u);
  Page target = zero_page();
  apply_diff(target.data(), d);
  EXPECT_EQ(target[kPageSize - 1], 0x7);
}

TEST(Diff, ConcurrentDisjointDiffsMerge) {
  // The multi-writer property: two writers modify disjoint words of the same
  // page; applying both diffs to the original yields the union.
  Page base = zero_page();
  Page a = base, b = base;
  a[0 * kWordSize] = 0xA;
  b[1 * kWordSize] = 0xB;
  DiffBytes da = make_diff(base.data(), a.data());
  DiffBytes db = make_diff(base.data(), b.data());
  Page merged = base;
  apply_diff(merged.data(), da);
  apply_diff(merged.data(), db);
  EXPECT_EQ(merged[0], 0xA);
  EXPECT_EQ(merged[kWordSize], 0xB);
}

TEST(Diff, TruncatedDiffRejected) {
  Page twin = zero_page(), cur = zero_page();
  cur[0] = 1;
  DiffBytes d = make_diff(twin.data(), cur.data());
  d.pop_back();
  EXPECT_FALSE(diff_is_valid(d));
  Page target = zero_page();
  EXPECT_THROW(apply_diff(target.data(), d), util::CheckError);
}

TEST(Diff, OutOfBoundsRunRejected) {
  // run at word 511 with count 2 overruns the page.
  DiffBytes d = {0xFF, 0x01, 0x02, 0x00};
  d.resize(4 + 2 * kWordSize, 0);
  EXPECT_FALSE(diff_is_valid(d));
  Page target = zero_page();
  EXPECT_THROW(apply_diff(target.data(), d), util::CheckError);
}

TEST(Diff, WalkersAgreeOnMalformedInput) {
  // The three walkers must give one verdict per malformed shape:
  // diff_is_valid false, and both apply_diff and diff_run_count throw
  // (diff_run_count used to silently ignore a truncated trailing header).
  Page twin = zero_page(), cur = zero_page();
  cur[0] = 1;
  const DiffBytes good = make_diff(twin.data(), cur.data());

  auto expect_all_reject = [&](DiffBytes d, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_FALSE(diff_is_valid(d));
    Page target = zero_page();
    EXPECT_THROW(apply_diff(target.data(), d), util::CheckError);
    EXPECT_THROW(diff_run_count(d), util::CheckError);
  };

  // Truncated trailing header: a valid run followed by a partial header.
  DiffBytes trailing = good;
  trailing.push_back(0x05);
  trailing.push_back(0x00);
  expect_all_reject(trailing, "truncated trailing header");

  // Bare partial header.
  expect_all_reject(DiffBytes{0x01, 0x00, 0x01}, "bare partial header");

  // Truncated data: header promises one word, payload is short.
  DiffBytes short_data = good;
  short_data.pop_back();
  expect_all_reject(short_data, "truncated data");

  // Out-of-bounds run: starts at word 511 with count 2.
  DiffBytes oob = {0xFF, 0x01, 0x02, 0x00};
  oob.resize(4 + 2 * kWordSize, 0);
  expect_all_reject(oob, "out-of-bounds run");

  // And the good diff passes all three.
  EXPECT_TRUE(diff_is_valid(good));
  EXPECT_EQ(diff_run_count(good), 1u);
  Page target = zero_page();
  apply_diff(target.data(), good);
  EXPECT_EQ(target[0], 1);
}

// ---------------------------------------------------------------------------
// Property tests: random pages round-trip, random disjoint writers merge.
// ---------------------------------------------------------------------------

class DiffPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DiffPropertyTest, RoundTripRandomPages) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    Page twin, cur;
    for (auto& byte : twin) byte = static_cast<std::uint8_t>(rng.next_u64());
    cur = twin;
    const int changes = static_cast<int>(rng.next_below(64));
    for (int c = 0; c < changes; ++c) {
      const auto w = rng.next_below(kWordsPerPage);
      cur[w * kWordSize + rng.next_below(kWordSize)] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    DiffBytes d = make_diff(twin.data(), cur.data());
    EXPECT_TRUE(diff_is_valid(d));
    Page target = twin;
    apply_diff(target.data(), d);
    EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPageSize), 0);
  }
}

TEST_P(DiffPropertyTest, RandomDisjointWritersMergeCommutatively) {
  util::Rng rng(GetParam() * 977);
  for (int iter = 0; iter < 25; ++iter) {
    Page base;
    for (auto& byte : base) byte = static_cast<std::uint8_t>(rng.next_u64());
    // Partition words among 3 writers randomly.
    std::array<int, kWordsPerPage> who{};
    for (auto& w : who) w = static_cast<int>(rng.next_below(3));
    std::array<Page, 3> copies = {base, base, base};
    Page expected = base;
    for (std::size_t w = 0; w < kWordsPerPage; ++w) {
      if (rng.next_bool(0.3)) {
        const auto v = rng.next_u64();
        std::memcpy(copies[who[w]].data() + w * kWordSize, &v, kWordSize);
        std::memcpy(expected.data() + w * kWordSize, &v, kWordSize);
      }
    }
    std::array<DiffBytes, 3> diffs;
    for (int i = 0; i < 3; ++i) {
      diffs[i] = make_diff(base.data(), copies[i].data());
    }
    // Apply in two different orders; both must give the same result.
    Page m1 = base, m2 = base;
    for (int i : {0, 1, 2}) apply_diff(m1.data(), diffs[i]);
    for (int i : {2, 0, 1}) apply_diff(m2.data(), diffs[i]);
    EXPECT_EQ(std::memcmp(m1.data(), expected.data(), kPageSize), 0);
    EXPECT_EQ(std::memcmp(m2.data(), expected.data(), kPageSize), 0);
  }
}

TEST_P(DiffPropertyTest, StructuredRunPatternsRoundTrip) {
  // Adversarial run structures for the scanner: dense alternating words
  // (maximum run count), long runs with single-word gaps, and runs touching
  // both page boundaries.
  util::Rng rng(GetParam() * 6364136223846793005ull);
  for (int iter = 0; iter < 40; ++iter) {
    Page twin;
    for (auto& byte : twin) byte = static_cast<std::uint8_t>(rng.next_u64());
    Page cur = twin;
    const int pattern = static_cast<int>(rng.next_below(3));
    std::size_t expected_runs = 0;
    if (pattern == 0) {
      // Every other word changes: kWordsPerPage / 2 runs.
      for (std::size_t w = 0; w < kWordsPerPage; w += 2) {
        cur[w * kWordSize] ^= 0x5A;
      }
      expected_runs = kWordsPerPage / 2;
    } else if (pattern == 1) {
      // One long run with a single-word gap in the middle.
      for (std::size_t w = 0; w < kWordsPerPage; ++w) {
        if (w == kWordsPerPage / 2) continue;
        cur[w * kWordSize + 1] ^= 0xC3;
      }
      expected_runs = 2;
    } else {
      // First and last word only.
      cur[0] ^= 1;
      cur[kPageSize - 1] ^= 1;
      expected_runs = 2;
    }
    DiffBytes d = make_diff(twin.data(), cur.data());
    EXPECT_TRUE(diff_is_valid(d));
    EXPECT_EQ(diff_run_count(d), expected_runs);
    Page target = twin;
    apply_diff(target.data(), d);
    EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPageSize), 0);
  }
}

TEST_P(DiffPropertyTest, DenseRandomChangesRoundTrip) {
  // High change densities (up to the full page) stress the reserve path and
  // the run coalescing; the empty diff must also stay valid.
  util::Rng rng(GetParam() * 0x9e3779b97f4a7c15ull);
  EXPECT_TRUE(diff_is_valid(DiffBytes{}));
  for (double density : {0.05, 0.5, 0.95, 1.0}) {
    Page twin, cur;
    for (auto& byte : twin) byte = static_cast<std::uint8_t>(rng.next_u64());
    cur = twin;
    for (std::size_t w = 0; w < kWordsPerPage; ++w) {
      if (rng.next_bool(density)) {
        cur[w * kWordSize + rng.next_below(kWordSize)] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
    }
    DiffBytes d = make_diff(twin.data(), cur.data());
    EXPECT_TRUE(diff_is_valid(d));
    Page target = twin;
    apply_diff(target.data(), d);
    EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPageSize), 0);
  }
}

TEST_P(DiffPropertyTest, VectorizedMatchesScalarReference) {
  // Differential fuzz: the SIMD/u64 block scanner must produce byte-for-byte
  // the encoding of the retained scalar reference (make_diff_scalar), and
  // the arena-backed variant the same bytes again, across every run shape
  // the scanner's block/carry logic can get wrong.
  util::Rng rng(GetParam() * 0x2545F4914F6CDD1Dull);
  util::Arena arena;
  auto check_pair = [&](const Page& twin, const Page& cur, const char* what) {
    SCOPED_TRACE(what);
    const DiffBytes vec = make_diff(twin.data(), cur.data());
    const DiffBytes ref = make_diff_scalar(twin.data(), cur.data());
    ASSERT_EQ(vec.size(), ref.size());
    if (!vec.empty()) {
      EXPECT_EQ(std::memcmp(vec.data(), ref.data(), vec.size()), 0);
    }
    const DiffView av = make_diff_arena(twin.data(), cur.data(), arena);
    ASSERT_EQ(av.size, ref.size());
    if (av.size > 0) {
      EXPECT_EQ(std::memcmp(av.data, ref.data(), av.size), 0);
    }
    // Round-trip through apply_diff recreates the current page.
    Page target = twin;
    apply_diff(target.data(), vec);
    EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPageSize), 0);
  };

  for (int iter = 0; iter < 30; ++iter) {
    Page twin;
    for (auto& byte : twin) byte = static_cast<std::uint8_t>(rng.next_u64());
    {
      // All-equal and all-different extremes.
      Page cur = twin;
      check_pair(twin, cur, "all-equal");
      for (auto& byte : cur) byte = static_cast<std::uint8_t>(~byte);
      check_pair(twin, cur, "all-different");
    }
    {
      // Sparse random scatter (the protocol's typical shape).
      Page cur = twin;
      const auto changes = 1 + rng.next_below(48);
      for (std::uint64_t c = 0; c < changes; ++c) {
        cur[rng.next_below(kWordsPerPage) * kWordSize +
            rng.next_below(kWordSize)] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      check_pair(twin, cur, "sparse scatter");
    }
    {
      // Dense random (each word changes with probability ~3/4).
      Page cur = twin;
      for (std::size_t w = 0; w < kWordsPerPage; ++w) {
        if (rng.next_bool(0.75)) cur[w * kWordSize] ^= 0x11;
      }
      check_pair(twin, cur, "dense random");
    }
    {
      // Alternating single-word runs at a random stride (2..5) and phase —
      // the maximum-run-count shapes.
      Page cur = twin;
      const std::size_t stride = 2 + rng.next_below(4);
      const std::size_t phase = rng.next_below(stride);
      for (std::size_t w = phase; w < kWordsPerPage; w += stride) {
        cur[w * kWordSize + 7] ^= 0xA5;
      }
      check_pair(twin, cur, "alternating stride");
    }
    {
      // Runs hugging the page and 64-word-block boundaries, where the
      // bitmask carry between blocks lives or dies.
      Page cur = twin;
      for (const std::size_t w :
           {std::size_t{0}, std::size_t{63}, std::size_t{64},
            std::size_t{65}, std::size_t{127}, std::size_t{128},
            kWordsPerPage - 2, kWordsPerPage - 1}) {
        cur[w * kWordSize] ^= 0x3C;
      }
      check_pair(twin, cur, "block-boundary runs");
    }
    {
      // One long run crossing several 64-word blocks at a random offset.
      Page cur = twin;
      const std::size_t start = rng.next_below(kWordsPerPage - 1);
      const std::size_t len =
          1 + rng.next_below(kWordsPerPage - start);
      for (std::size_t w = start; w < start + len; ++w) {
        cur[w * kWordSize + 2] ^= 0x66;
      }
      check_pair(twin, cur, "long spanning run");
    }
  }
}

TEST(Diff, ArenaVariantSurvivesArenaRelease) {
  // Views from one arena generation are valid until release(); after the
  // release the arena holds nothing and the next generation grows afresh
  // (old views are dead by contract, matching the archive-until-GC
  // lifetime).
  util::Arena arena;
  Page twin = zero_page(), cur = zero_page();
  cur[8] = 0xAB;
  cur[100 * kWordSize] = 0xCD;
  const DiffBytes ref = make_diff(twin.data(), cur.data());
  std::vector<DiffView> views;
  for (int i = 0; i < 16; ++i) {
    views.push_back(make_diff_arena(twin.data(), cur.data(), arena));
  }
  for (const DiffView& v : views) {
    ASSERT_EQ(v.size, ref.size());
    EXPECT_EQ(std::memcmp(v.data, ref.data(), v.size), 0);
    Page target = twin;
    apply_diff(target.data(), v.data, v.size);
    EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPageSize), 0);
  }
  arena.release();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  const DiffView again = make_diff_arena(twin.data(), cur.data(), arena);
  ASSERT_EQ(again.size, ref.size());
  EXPECT_EQ(std::memcmp(again.data, ref.data(), again.size), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace anow::dsm
