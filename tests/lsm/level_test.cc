#include "src/lsm/level.h"

#include <gtest/gtest.h>

#include "src/storage/mem_block_device.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;

class LevelTest : public ::testing::Test {
 protected:
  LevelTest() : options_(TinyOptions()), device_(options_.block_size) {}

  std::string Payload(char c) { return std::string(options_.payload_size, c); }

  /// Appends a leaf holding Put records with the given keys.
  void AddLeaf(Level* level, const std::vector<Key>& keys) {
    std::vector<Record> records;
    for (Key k : keys) records.push_back(Record::Put(k, Payload('p')));
    auto id = device_.WriteNewBlock(EncodeRecordBlock(options_, records));
    ASSERT_TRUE(id.ok());
    LeafMeta meta;
    meta.block = id.value();
    meta.min_key = keys.front();
    meta.max_key = keys.back();
    meta.count = static_cast<uint32_t>(keys.size());
    level->AppendLeaf(meta);
  }

  Options options_;
  MemBlockDevice device_;
};

TEST_F(LevelTest, EmptyLevel) {
  Level level(options_, &device_, 1);
  EXPECT_TRUE(level.empty());
  EXPECT_EQ(level.size_blocks(), 0u);
  EXPECT_EQ(level.record_count(), 0u);
  EXPECT_DOUBLE_EQ(level.waste_factor(), 0.0);
  EXPECT_TRUE(level.MeetsLevelWaste());
  EXPECT_TRUE(level.CheckInvariants(true).ok());
}

TEST_F(LevelTest, AppendTracksCountsAndRanges) {
  Level level(options_, &device_, 1);
  AddLeaf(&level, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  AddLeaf(&level, {20, 21, 22, 23, 24, 25, 26, 27, 28, 29});
  EXPECT_EQ(level.size_blocks(), 2u);
  EXPECT_EQ(level.record_count(), 20u);
  EXPECT_EQ(level.min_key(), 1u);
  EXPECT_EQ(level.max_key(), 29u);
  EXPECT_EQ(level.empty_slots(), 0u);
  EXPECT_TRUE(level.CheckInvariants(true).ok());
}

TEST_F(LevelTest, LookupFindsAndMisses) {
  Level level(options_, &device_, 1);
  AddLeaf(&level, {10, 20, 30, 40, 50, 60});
  AddLeaf(&level, {100, 110, 120, 130, 140});

  Record r;
  ASSERT_TRUE(level.Lookup(30, &r).ok());
  EXPECT_EQ(r.key, 30u);
  ASSERT_TRUE(level.Lookup(140, &r).ok());

  EXPECT_TRUE(level.Lookup(35, &r).IsNotFound());   // Gap inside a leaf.
  EXPECT_TRUE(level.Lookup(70, &r).IsNotFound());   // Between leaves.
  EXPECT_TRUE(level.Lookup(5, &r).IsNotFound());    // Before first.
  EXPECT_TRUE(level.Lookup(999, &r).IsNotFound());  // After last.
}

TEST_F(LevelTest, OverlapRange) {
  Level level(options_, &device_, 1);
  AddLeaf(&level, {10, 19});
  AddLeaf(&level, {20, 29});
  AddLeaf(&level, {30, 39});
  AddLeaf(&level, {40, 49});

  EXPECT_EQ(level.OverlapRange(22, 33), (std::pair<size_t, size_t>(1, 3)));
  EXPECT_EQ(level.OverlapRange(0, 5), (std::pair<size_t, size_t>(0, 0)));
  EXPECT_EQ(level.OverlapRange(50, 60), (std::pair<size_t, size_t>(4, 4)));
  EXPECT_EQ(level.OverlapRange(19, 20), (std::pair<size_t, size_t>(0, 2)));
  EXPECT_EQ(level.OverlapRange(0, 99), (std::pair<size_t, size_t>(0, 4)));
  // Range falling in the gap between leaves 0 and 1.
  EXPECT_EQ(level.OverlapRange(19, 19), (std::pair<size_t, size_t>(0, 1)));
}

TEST_F(LevelTest, SpliceReplacesAndFrees) {
  Level level(options_, &device_, 1);
  AddLeaf(&level, {10, 19});
  AddLeaf(&level, {20, 29});
  AddLeaf(&level, {30, 39});
  const BlockId old_mid = level.leaf(1).block;

  std::vector<Record> replacement = {Record::Put(21, Payload('n')),
                                     Record::Put(22, Payload('n')),
                                     Record::Put(23, Payload('n'))};
  auto id = device_.WriteNewBlock(EncodeRecordBlock(options_, replacement));
  ASSERT_TRUE(id.ok());
  const LeafMeta meta = MakeLeafMeta(options_, replacement, id.value());
  ASSERT_TRUE(level.SpliceLeaves(1, 2, {meta}, {}).ok());

  EXPECT_EQ(level.size_blocks(), 3u);
  EXPECT_EQ(level.record_count(), 7u);
  EXPECT_FALSE(device_.IsLive(old_mid));  // Old block freed.
  Record r;
  EXPECT_TRUE(level.Lookup(22, &r).ok());
  EXPECT_TRUE(level.Lookup(20, &r).IsNotFound());
}

TEST_F(LevelTest, SplicePreservedBlocksAreNotFreed) {
  Level level(options_, &device_, 1);
  AddLeaf(&level, {10, 19});
  const BlockId preserved = level.leaf(0).block;
  ASSERT_TRUE(level.RemoveLeaves(0, 1, {preserved}).ok());
  EXPECT_TRUE(device_.IsLive(preserved));
  EXPECT_TRUE(level.empty());
}

TEST_F(LevelTest, CoalescePairMergesAdjacentBlocks) {
  Level level(options_, &device_, 1);
  AddLeaf(&level, {10, 20, 30});
  AddLeaf(&level, {40, 50});
  const uint64_t writes_before = device_.stats().block_writes();

  auto writes_or = level.CoalescePair(0);
  ASSERT_TRUE(writes_or.ok());
  EXPECT_EQ(writes_or.value(), 1u);
  EXPECT_EQ(device_.stats().block_writes() - writes_before, 1u);
  EXPECT_EQ(level.size_blocks(), 1u);
  EXPECT_EQ(level.record_count(), 5u);
  auto records = level.ReadLeaf(0);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.value().front().key, 10u);
  EXPECT_EQ(records.value().back().key, 50u);
}

TEST_F(LevelTest, CompactPacksBlocksFully) {
  Level level(options_, &device_, 1);
  // Four sparse leaves (6 each with B=10) -> compact to ceil(24/10)=3.
  AddLeaf(&level, {1, 2, 3, 4, 5, 6});
  AddLeaf(&level, {11, 12, 13, 14, 15, 16});
  AddLeaf(&level, {21, 22, 23, 24, 25, 26});
  AddLeaf(&level, {31, 32, 33, 34, 35, 36});
  level.ledger().OnMergeStart(5.0);
  level.ledger().OnMergeEnd(3);

  auto writes_or = level.Compact();
  ASSERT_TRUE(writes_or.ok());
  EXPECT_EQ(writes_or.value(), 3u);
  EXPECT_EQ(level.size_blocks(), 3u);
  EXPECT_EQ(level.record_count(), 24u);
  EXPECT_EQ(level.leaf(0).count, 10u);
  EXPECT_EQ(level.leaf(1).count, 10u);
  EXPECT_EQ(level.leaf(2).count, 4u);
  // Ledger reset by compaction.
  EXPECT_EQ(level.ledger().merges_since_compaction(), 0u);
  EXPECT_EQ(level.ledger().net_increase(), 0);
  EXPECT_TRUE(level.CheckInvariants(true).ok());
}

TEST_F(LevelTest, WasteFactorArithmetic) {
  Level level(options_, &device_, 1);
  AddLeaf(&level, {1, 2, 3, 4, 5, 6, 7, 8});   // 2 empty slots.
  AddLeaf(&level, {11, 12, 13, 14, 15, 16, 17, 18, 19, 20});  // Full.
  EXPECT_EQ(level.empty_slots(), 2u);
  EXPECT_DOUBLE_EQ(level.waste_factor(), 2.0 / 20.0);
  EXPECT_TRUE(level.MeetsLevelWaste());  // 0.1 <= 0.2.
}

TEST_F(LevelTest, InvariantCheckCatchesPairwiseViolation) {
  Level level(options_, &device_, 1);
  AddLeaf(&level, {1, 2, 3});
  AddLeaf(&level, {11, 12, 13});  // 3+3 <= 10: pairwise violation.
  EXPECT_FALSE(level.CheckInvariants(false).ok());
}

TEST_F(LevelTest, SingleLeafExemptFromLevelWaste) {
  Level level(options_, &device_, 1);
  AddLeaf(&level, {1});  // 1/10 full: 90% waste but only one block.
  EXPECT_TRUE(level.MeetsLevelWaste());
  EXPECT_TRUE(level.CheckInvariants(true).ok());
}

}  // namespace
}  // namespace lsmssd
