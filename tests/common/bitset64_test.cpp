// Member_mask across the word boundaries: set-bit iteration, none and
// the complement within n, at sizes that straddle one and two
// overflow words.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "quest/common/bitset64.hpp"
#include "quest/common/rng.hpp"

namespace quest {
namespace {

std::vector<std::size_t> iterated(const Member_mask& mask) {
  std::vector<std::size_t> ids;
  for (const std::size_t id : mask) ids.push_back(id);
  return ids;
}

class Member_mask_sizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Member_mask_sizes, EmptyMaskIteratesNothing) {
  const std::size_t n = GetParam();
  const Member_mask mask(n);
  EXPECT_TRUE(mask.none());
  EXPECT_TRUE(iterated(mask).empty());
  EXPECT_TRUE(mask.begin() == mask.end());
}

TEST_P(Member_mask_sizes, ComplementOfEmptyIsEveryId) {
  const std::size_t n = GetParam();
  const Member_mask all = Member_mask(n).complement(n);
  EXPECT_FALSE(all.none());
  std::vector<std::size_t> expected(n);
  for (std::size_t i = 0; i < n; ++i) expected[i] = i;
  EXPECT_EQ(iterated(all), expected);
  // Nothing at or past n, and the complement of everything is empty.
  EXPECT_TRUE(all.complement(n).none());
}

TEST_P(Member_mask_sizes, IterationMatchesTestOnRandomSubsets) {
  const std::size_t n = GetParam();
  Rng rng(n * 977 + 1);
  for (int trial = 0; trial < 50; ++trial) {
    Member_mask mask(n);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.3)) {
        mask.set(i);
        expected.push_back(i);
      }
    }
    EXPECT_EQ(iterated(mask), expected);
    EXPECT_EQ(mask.none(), expected.empty());

    const Member_mask rest = mask.complement(n);
    EXPECT_EQ(iterated(rest).size(), n - expected.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NE(rest.test(i), mask.test(i)) << "id " << i;
    }
    for (const std::size_t id : rest) EXPECT_LT(id, n);
  }
}

TEST_P(Member_mask_sizes, BoundaryIdsSurviveSetAndReset) {
  const std::size_t n = GetParam();
  Member_mask mask(n);
  const std::vector<std::size_t> edges = [n] {
    std::vector<std::size_t> ids{0, n - 1};
    for (const std::size_t id : {std::size_t{63}, std::size_t{64},
                                 std::size_t{127}, std::size_t{128}}) {
      if (id < n) ids.push_back(id);
    }
    return ids;
  }();
  for (const std::size_t id : edges) mask.set(id);
  std::vector<std::size_t> expected = edges;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(iterated(mask), expected);
  mask.reset(n - 1);
  expected.pop_back();
  EXPECT_EQ(iterated(mask), expected);
  mask.clear();
  EXPECT_TRUE(mask.none());
}

INSTANTIATE_TEST_SUITE_P(Sizes, Member_mask_sizes,
                         ::testing::Values(1, 63, 64, 65, 128, 129),
                         [](const auto& info) {
                           std::string name = "n";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace quest
