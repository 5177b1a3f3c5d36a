// Tests for the O(1)-swap partition structure behind every SE solution.

#include "mvcom/swap_set.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace {

using mvcom::common::Rng;
using mvcom::core::Selection;
using mvcom::core::SwapSet;

/// Committees on the selected side, read through positions [0, n).
std::set<std::uint32_t> selected_ids(const SwapSet& s) {
  std::set<std::uint32_t> ids;
  for (std::uint32_t p = 0; p < s.selected_count(); ++p) ids.insert(s.at(p));
  return ids;
}

TEST(SwapSetTest, RebuildReflectsBitmap) {
  const Selection x{1, 0, 1, 0, 0};
  SwapSet s(x);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.selected_count(), 2u);
  EXPECT_EQ(s.unselected_count(), 3u);
  // Both sides keep ascending committee order.
  EXPECT_EQ(s.at(0), 0u);
  EXPECT_EQ(s.at(1), 2u);
  EXPECT_EQ(s.at(2), 1u);
  EXPECT_EQ(s.at(3), 3u);
  EXPECT_EQ(s.at(4), 4u);
  EXPECT_EQ(s.to_selection(), x);
}

TEST(SwapSetTest, SwapMovesExactlyOnePair) {
  SwapSet s(Selection{1, 0, 1, 0});  // positions: [0, 2 | 1, 3]
  s.swap_positions(0, 2);            // committee 0 leaves, committee 1 joins
  EXPECT_EQ(s.at(0), 1u);
  EXPECT_EQ(s.at(2), 0u);
  EXPECT_EQ(selected_ids(s), (std::set<std::uint32_t>{1, 2}));
  EXPECT_EQ(s.selected_count(), 2u);
  EXPECT_EQ(s.to_selection(), (Selection{0, 1, 1, 0}));
}

TEST(SwapSetTest, SamplingOnlyReturnsMembersOfTheRightSide) {
  Rng rng(1);
  const Selection x{1, 1, 0, 0, 1, 0};
  SwapSet s(x);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t p = s.sample_selected_position(rng);
    const std::uint32_t q = s.sample_unselected_position(rng);
    ASSERT_LT(p, s.selected_count());
    ASSERT_GE(q, s.selected_count());
    ASSERT_LT(q, s.size());
    EXPECT_EQ(x[s.at(p)], 1);
    EXPECT_EQ(x[s.at(q)], 0);
  }
}

TEST(SwapSetTest, SamplingCoversAllCandidates) {
  Rng rng(2);
  SwapSet s(Selection{1, 1, 1, 0, 0, 0});
  std::set<std::uint32_t> seen_sel;
  std::set<std::uint32_t> seen_unsel;
  for (int i = 0; i < 500; ++i) {
    seen_sel.insert(s.at(s.sample_selected_position(rng)));
    seen_unsel.insert(s.at(s.sample_unselected_position(rng)));
  }
  EXPECT_EQ(seen_sel, (std::set<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(seen_unsel, (std::set<std::uint32_t>{3, 4, 5}));
}

TEST(SwapSetTest, PositionDrawsAreTheBoundedRngDraws) {
  // Sampling a position is exactly below(n) / n + below(I − n): the draw
  // sequence the id-returning API made, so SE trajectories are unchanged.
  SwapSet s(Selection{1, 0, 1, 1, 0, 0, 0});
  Rng a(9);
  Rng b(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(s.sample_selected_position(a), b.below(3));
    EXPECT_EQ(s.sample_unselected_position(a), 3 + b.below(4));
  }
}

TEST(SwapSetTest, RandomizedSequenceMatchesReferenceSet) {
  // Property test: a long random swap sequence agrees with a std::set
  // reference implementation at every step.
  Rng rng(3);
  const std::size_t n = 40;
  Selection x(n, 0);
  for (std::size_t i = 0; i < n / 2; ++i) x[i] = 1;
  SwapSet s(x);
  std::set<std::uint32_t> reference;
  for (std::size_t i = 0; i < n / 2; ++i) {
    reference.insert(static_cast<std::uint32_t>(i));
  }

  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t p = s.sample_selected_position(rng);
    const std::uint32_t q = s.sample_unselected_position(rng);
    const std::uint32_t out = s.at(p);
    const std::uint32_t in = s.at(q);
    ASSERT_TRUE(reference.count(out));
    ASSERT_FALSE(reference.count(in));
    s.swap_positions(p, q);
    reference.erase(out);
    reference.insert(in);
    ASSERT_EQ(s.selected_count(), reference.size());
    if (step % 100 == 0) {
      ASSERT_EQ(selected_ids(s), reference);
      const Selection snapshot = s.to_selection();
      for (std::uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(snapshot[i] != 0, reference.count(i) > 0) << "bit " << i;
      }
    }
  }
}

TEST(SwapSetTest, SelectedListMatchesContains) {
  SwapSet s(Selection{0, 1, 0, 1, 1});
  std::set<std::uint32_t> from_list(s.selected().begin(), s.selected().end());
  EXPECT_EQ(from_list, (std::set<std::uint32_t>{1, 3, 4}));
  EXPECT_EQ(from_list, selected_ids(s));
}

TEST(SwapSetTest, SixteenBitIndicesCoverTheWholeUniverse) {
  // kMaxUniverse committees: the last index, 65,535, must survive the
  // 16-bit store on both sides of the boundary.
  Selection x(SwapSet::kMaxUniverse, 0);
  x.back() = 1;
  SwapSet s(x);
  ASSERT_EQ(s.selected_count(), 1u);
  EXPECT_EQ(s.at(0), SwapSet::kMaxUniverse - 1);
  s.swap_positions(0, static_cast<std::uint32_t>(s.size() - 1));
  EXPECT_EQ(s.at(0), SwapSet::kMaxUniverse - 2);
  EXPECT_EQ(s.at(static_cast<std::uint32_t>(s.size() - 1)),
            SwapSet::kMaxUniverse - 1);
  const Selection y = s.to_selection();
  EXPECT_EQ(y[SwapSet::kMaxUniverse - 2], 1);
  EXPECT_EQ(y.back(), 0);
}

}  // namespace
