#include "src/policy/choose_best_policy.h"

#include <gtest/gtest.h>

#include "src/storage/mem_block_device.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::AddLeafOfKeys;
using testing::TinyOptions;
using testing::TreeFixture;

class ChooseBestSelectionTest : public ::testing::Test {
 protected:
  ChooseBestSelectionTest()
      : options_(TinyOptions()),
        device_(options_.block_size),
        source_(options_, &device_, 1),
        target_(options_, &device_, 2) {}

  void SourceLeaf(const std::vector<Key>& keys) {
    AddLeafOfKeys(options_, &device_, &source_, keys);
  }
  void TargetLeaf(const std::vector<Key>& keys) {
    AddLeafOfKeys(options_, &device_, &target_, keys);
  }

  Options options_;
  MemBlockDevice device_;
  Level source_;
  Level target_;
};

TEST_F(ChooseBestSelectionTest, PicksWindowWithZeroOverlap) {
  SourceLeaf({100, 110});   // Overlaps target leaf 0.
  SourceLeaf({200, 210});   // Overlaps target leaf 1.
  SourceLeaf({900, 910});   // Overlaps nothing.
  TargetLeaf({95, 115});
  TargetLeaf({195, 215});

  auto sel = SelectChooseBestFromLevel(source_, target_, 1);
  EXPECT_FALSE(sel.full);
  EXPECT_EQ(sel.leaf_begin, 2u);
  EXPECT_EQ(sel.leaf_count, 1u);
}

TEST_F(ChooseBestSelectionTest, PicksMinimumOverlapWindow) {
  SourceLeaf({100, 190});  // Spans target leaves 0-2 (3 overlaps).
  SourceLeaf({200, 290});  // Spans 1 target leaf.
  SourceLeaf({300, 390});  // Spans 2 target leaves.
  TargetLeaf({90, 120});
  TargetLeaf({130, 160});
  TargetLeaf({170, 210});
  TargetLeaf({280, 310});
  TargetLeaf({350, 420});

  auto sel = SelectChooseBestFromLevel(source_, target_, 1);
  EXPECT_EQ(sel.leaf_begin, 1u);
}

TEST_F(ChooseBestSelectionTest, TieBreaksToLeftmost) {
  SourceLeaf({100, 110});
  SourceLeaf({200, 210});
  TargetLeaf({105, 205});  // Both windows overlap exactly this one leaf.

  auto sel = SelectChooseBestFromLevel(source_, target_, 1);
  EXPECT_EQ(sel.leaf_begin, 0u);
}

TEST_F(ChooseBestSelectionTest, WindowWiderThanSourceSelectsAll) {
  SourceLeaf({1, 2});
  SourceLeaf({10, 20});
  auto sel = SelectChooseBestFromLevel(source_, target_, 10);
  EXPECT_EQ(sel.leaf_begin, 0u);
  EXPECT_EQ(sel.leaf_count, 2u);
}

TEST_F(ChooseBestSelectionTest, MultiBlockWindowSpansConsecutiveLeaves) {
  SourceLeaf({100, 110});
  SourceLeaf({120, 130});
  SourceLeaf({500, 510});
  SourceLeaf({520, 530});
  TargetLeaf({90, 140});  // Covers source leaves 0-1.

  auto sel = SelectChooseBestFromLevel(source_, target_, 2);
  EXPECT_EQ(sel.leaf_begin, 2u);  // Window {500s} overlaps nothing.
  EXPECT_EQ(sel.leaf_count, 2u);
}

TEST_F(ChooseBestSelectionTest, EmptyTargetMeansAnyWindowIsFree) {
  SourceLeaf({1, 5});
  SourceLeaf({10, 15});
  auto sel = SelectChooseBestFromLevel(source_, target_, 1);
  EXPECT_EQ(sel.leaf_begin, 0u);  // All overlap 0; leftmost wins.
}

TEST_F(ChooseBestSelectionTest, L0SelectionFindsSparseRegion) {
  Memtable mem;
  // Dense cluster at 100.. and a couple of outliers at 900+.
  for (Key k = 0; k < 20; ++k) mem.Put(100 + k, "v");
  mem.Put(900, "v");
  mem.Put(905, "v");
  TargetLeaf({95, 130});  // The dense cluster region is covered by target.

  auto sel = SelectChooseBestFromL0(mem, target_, 2);
  EXPECT_FALSE(sel.full);
  EXPECT_EQ(sel.record_begin, 20u);  // The {900, 905} window.
  EXPECT_EQ(sel.record_count, 2u);
}

TEST_F(ChooseBestSelectionTest, L0WindowLargerThanMemtableSelectsAll) {
  Memtable mem;
  mem.Put(1, "v");
  mem.Put(2, "v");
  auto sel = SelectChooseBestFromL0(mem, target_, 50);
  EXPECT_EQ(sel.record_begin, 0u);
  EXPECT_EQ(sel.record_count, 2u);
}

TEST(ChooseBestPolicyTest, EveryMergeRespectsWindowSize) {
  // Under ChooseBest, partial merges out of L0 always move exactly the
  // configured window (delta * K0 * B records) while L0 keeps its size
  // between (1-delta) and full.
  Options options = TinyOptions();
  TreeFixture fx(options, PolicyKind::kChooseBest);
  const uint64_t window =
      options.PartialMergeBlocks(0) * options.records_per_block();
  for (Key k = 0; k < 3000; ++k) {
    ASSERT_TRUE(fx.Put(k * 17 + 1).ok());
    const uint64_t l0_cap =
        options.level0_capacity_blocks * options.records_per_block();
    EXPECT_LT(fx.tree->l0_buffer().size(), l0_cap);
  }
  // Records merged into L1 arrive in window-sized steps.
  EXPECT_EQ(fx.tree->stats().records_merged_into[1] % window, 0u);
}

}  // namespace
}  // namespace lsmssd
