#include "src/lsm/lsm_tree.h"

#include <gtest/gtest.h>

#include "src/util/random.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;
using testing::TreeFixture;

TEST(LsmTreeOpenTest, RejectsInvalidOptions) {
  Options bad = TinyOptions();
  bad.gamma = 0.5;
  MemBlockDevice device(bad.block_size);
  auto tree = LsmTree::Open(bad, &device, CreatePolicy(PolicyKind::kFull));
  EXPECT_TRUE(tree.status().IsInvalidArgument());
}

TEST(LsmTreeOpenTest, RejectsBlockSizeMismatch) {
  Options options = TinyOptions();
  MemBlockDevice device(options.block_size * 2);
  auto tree =
      LsmTree::Open(options, &device, CreatePolicy(PolicyKind::kFull));
  EXPECT_TRUE(tree.status().IsInvalidArgument());
}

TEST(LsmTreeOpenTest, RejectsNulls) {
  Options options = TinyOptions();
  MemBlockDevice device(options.block_size);
  EXPECT_TRUE(LsmTree::Open(options, nullptr,
                            CreatePolicy(PolicyKind::kFull))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(LsmTree::Open(options, &device, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST(LsmTreeTest, EmptyTreeBehaviour) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  EXPECT_EQ(fx.tree->num_levels(), 1u);  // Just L0.
  EXPECT_TRUE(fx.tree->Get(5).status().IsNotFound());
  std::vector<std::pair<Key, std::string>> out;
  ASSERT_TRUE(fx.tree->Scan(0, 100, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(fx.tree->TotalRecords(), 0u);
}

TEST(LsmTreeTest, PutGetWithoutMerge) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  ASSERT_TRUE(fx.Put(7).ok());
  auto v = fx.tree->Get(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), MakePayload(fx.options_copy, 7));
  // Nothing merged yet: zero device writes.
  EXPECT_EQ(fx.device.stats().block_writes(), 0u);
}

TEST(LsmTreeTest, PayloadSizeValidated) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  EXPECT_TRUE(fx.tree->Put(1, "short").IsInvalidArgument());
  EXPECT_TRUE(
      fx.tree->Put(1, std::string(999, 'x')).IsInvalidArgument());
}

TEST(LsmTreeTest, KeyWidthValidated) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);  // 4-byte keys.
  const std::string payload(fx.options_copy.payload_size, 'x');
  EXPECT_TRUE(
      fx.tree->Put(uint64_t{1} << 40, payload).IsInvalidArgument());
  EXPECT_TRUE(fx.tree->Delete(uint64_t{1} << 40).IsInvalidArgument());
}

TEST(LsmTreeTest, DeleteHidesKeyImmediately) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  ASSERT_TRUE(fx.Put(5).ok());
  ASSERT_TRUE(fx.tree->Delete(5).ok());
  EXPECT_TRUE(fx.tree->Get(5).status().IsNotFound());
}

TEST(LsmTreeTest, OverflowSpillsToLevel1) {
  Options options = TinyOptions();  // L0 capacity = 4 blocks * 10 = 40.
  TreeFixture fx(options, PolicyKind::kFull);
  for (Key k = 0; k < 40; ++k) ASSERT_TRUE(fx.Put(k * 10).ok());
  EXPECT_GE(fx.tree->num_levels(), 2u);
  EXPECT_GT(fx.tree->level(1).record_count(), 0u);
  EXPECT_GT(fx.device.stats().block_writes(), 0u);
  // All keys still readable after the merge.
  for (Key k = 0; k < 40; ++k) {
    EXPECT_TRUE(fx.tree->Get(k * 10).ok()) << "key " << k * 10;
  }
}

TEST(LsmTreeTest, GrowsMultipleLevels) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 2000; ++k) ASSERT_TRUE(fx.Put(k * 7 + 1).ok());
  EXPECT_GE(fx.tree->num_levels(), 3u);
  ASSERT_TRUE(fx.tree->CheckInvariants(true).ok());
  // No level above capacity at rest (checked inside CheckInvariants too).
  for (size_t i = 1; i < fx.tree->num_levels(); ++i) {
    EXPECT_LE(fx.tree->level(i).size_blocks(),
              fx.tree->LevelCapacityBlocks(i));
  }
}

TEST(LsmTreeTest, ScanSpansAllLevels) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 500; ++k) ASSERT_TRUE(fx.Put(k).ok());
  // Some keys are now in lower levels; newest overwrites sit in L0.
  ASSERT_TRUE(fx.tree->Put(100, std::string(20, 'Z')).ok());
  ASSERT_TRUE(fx.tree->Delete(101).ok());

  std::vector<std::pair<Key, std::string>> out;
  ASSERT_TRUE(fx.tree->Scan(95, 105, &out).ok());
  ASSERT_EQ(out.size(), 10u);  // 95..105 minus deleted 101.
  EXPECT_EQ(out[5].first, 100u);
  EXPECT_EQ(out[5].second, std::string(20, 'Z'));  // L0 shadows L1+.
  for (const auto& [k, v] : out) EXPECT_NE(k, 101u);
}

TEST(LsmTreeTest, StatsCountRequests) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  ASSERT_TRUE(fx.Put(1).ok());
  ASSERT_TRUE(fx.Put(2).ok());
  ASSERT_TRUE(fx.tree->Delete(1).ok());
  (void)fx.tree->Get(2);
  std::vector<std::pair<Key, std::string>> out;
  (void)fx.tree->Scan(0, 10, &out);
  EXPECT_EQ(fx.tree->stats().puts, 2u);
  EXPECT_EQ(fx.tree->stats().deletes, 1u);
  EXPECT_EQ(fx.tree->stats().gets, 1u);
  EXPECT_EQ(fx.tree->stats().scans, 1u);
}

TEST(LsmTreeTest, StatsWritesMatchDevice) {
  TreeFixture fx(TinyOptions(), PolicyKind::kRr);
  for (Key k = 0; k < 3000; ++k) ASSERT_TRUE(fx.Put(k * 13 + 5).ok());
  EXPECT_EQ(fx.tree->stats().TotalBlocksWritten(),
            fx.device.stats().block_writes());
}

TEST(LsmTreeTest, SetPolicyMidStream) {
  TreeFixture fx(TinyOptions(), PolicyKind::kFull);
  for (Key k = 0; k < 500; ++k) ASSERT_TRUE(fx.Put(k * 3).ok());
  fx.tree->set_policy(CreatePolicy(PolicyKind::kChooseBest));
  for (Key k = 0; k < 500; ++k) ASSERT_TRUE(fx.Put(k * 3 + 1).ok());
  ASSERT_TRUE(fx.tree->CheckInvariants(true).ok());
  EXPECT_EQ(fx.tree->policy()->name(), "ChooseBest");
}

TEST(LsmTreeTest, ApproximateDataBytes) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 100; ++k) ASSERT_TRUE(fx.Put(k).ok());
  EXPECT_EQ(fx.tree->ApproximateDataBytes(),
            fx.tree->TotalRecords() * fx.options_copy.record_size());
}

TEST(LsmTreeTest, ScanRejectsInvertedRange) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  std::vector<std::pair<Key, std::string>> out;
  EXPECT_TRUE(fx.tree->Scan(10, 5, &out).IsInvalidArgument());
}

TEST(LsmTreeTest, TombstonesPurgedAtBottomKeepDatasetBounded) {
  // Insert/delete churn over a fixed small key set: tombstones must not
  // accumulate without bound (they die at the bottom level).
  Options options = TinyOptions();
  TreeFixture fx(options, PolicyKind::kChooseBest);
  for (int round = 0; round < 50; ++round) {
    for (Key k = 0; k < 60; ++k) ASSERT_TRUE(fx.Put(k).ok());
    for (Key k = 0; k < 60; ++k) ASSERT_TRUE(fx.tree->Delete(k).ok());
  }
  // Everything was deleted; total records bounded by the live churn, far
  // below the 6000 requests issued.
  EXPECT_LT(fx.tree->TotalRecords(), 600u);
  for (Key k = 0; k < 60; ++k) {
    EXPECT_TRUE(fx.tree->Get(k).status().IsNotFound());
  }
}

TEST(BackgroundCompactTest, PutNoMergeNeverTouchesDevice) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  // TinyOptions: L0 overflows at 40 records. PutNoMerge must let the
  // memtable sail past that without any merge.
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(
        fx.tree->PutNoMerge(k, MakePayload(fx.options_copy, k)).ok());
  }
  EXPECT_EQ(fx.device.stats().block_writes(), 0u);
  EXPECT_TRUE(fx.tree->MemtableAtCapacity());
  EXPECT_EQ(fx.tree->memtable().size(), 100u);
}

TEST(BackgroundCompactTest, SealMovesMemtableAndEmptySealIsNoop) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  fx.tree->SealMemtable();  // Empty: no-op.
  EXPECT_EQ(fx.tree->sealed_count(), 0u);
  for (Key k = 0; k < 10; ++k) ASSERT_TRUE(fx.Put(k).ok());
  fx.tree->SealMemtable();
  EXPECT_EQ(fx.tree->sealed_count(), 1u);
  EXPECT_EQ(fx.tree->sealed_records(), 10u);
  EXPECT_EQ(fx.tree->memtable().size(), 0u);
  EXPECT_TRUE(fx.tree->HasCompactionWork());
}

TEST(BackgroundCompactTest, ReadsSeeSealedAndActiveNewestFirst) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  ASSERT_TRUE(fx.tree->PutNoMerge(1, MakePayload(fx.options_copy, 100)).ok());
  fx.tree->SealMemtable();
  ASSERT_TRUE(fx.tree->PutNoMerge(1, MakePayload(fx.options_copy, 200)).ok());
  ASSERT_TRUE(fx.tree->PutNoMerge(2, MakePayload(fx.options_copy, 2)).ok());
  fx.tree->SealMemtable();
  ASSERT_TRUE(fx.tree->DeleteNoMerge(2).ok());

  // key 1: the second sealed memtable's version shadows the first's.
  auto v = fx.tree->Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), MakePayload(fx.options_copy, 200));
  // key 2: the active memtable's tombstone shadows the sealed Put.
  EXPECT_TRUE(fx.tree->Get(2).status().IsNotFound());

  // Scan and iterator agree.
  std::vector<std::pair<Key, std::string>> out;
  ASSERT_TRUE(fx.tree->Scan(0, 100, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 1u);
  EXPECT_EQ(out[0].second, MakePayload(fx.options_copy, 200));
}

TEST(BackgroundCompactTest, StepsDrainQueueAndRestoreInvariants) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  // Three full memtables on the queue.
  Key next = 0;
  for (int m = 0; m < 3; ++m) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          fx.tree->PutNoMerge(next, MakePayload(fx.options_copy, next)).ok());
      ++next;
    }
    fx.tree->SealMemtable();
  }
  ASSERT_EQ(fx.tree->sealed_count(), 3u);

  int flushes = 0, merges = 0, steps = 0;
  for (;; ++steps) {
    ASSERT_LT(steps, 1000) << "compaction failed to converge";
    auto step = fx.tree->BackgroundCompactStep();
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    if (step.value() == LsmTree::CompactStep::kNone) break;
    if (step.value() == LsmTree::CompactStep::kFlush) ++flushes;
    if (step.value() == LsmTree::CompactStep::kMerge) ++merges;
  }
  EXPECT_GE(flushes, 3);
  EXPECT_EQ(fx.tree->sealed_count(), 0u);
  EXPECT_FALSE(fx.tree->HasCompactionWork());
  ASSERT_TRUE(fx.tree->CheckInvariants(/*deep=*/true).ok());
  EXPECT_EQ(fx.tree->TotalRecords(), 120u);
  for (Key k = 0; k < 120; ++k) {
    auto v = fx.tree->Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v.value(), MakePayload(fx.options_copy, k));
  }
}

TEST(BackgroundCompactTest, MatchesInlinePathContents) {
  // Same operations through the inline cascade and the sealed-queue path
  // end in trees with identical logical contents.
  TreeFixture inline_fx(TinyOptions(), PolicyKind::kChooseBest);
  TreeFixture bg_fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 500; ++k) {
    const Key key = (k * 37) % 200;
    ASSERT_TRUE(inline_fx.Put(key).ok());
    ASSERT_TRUE(
        bg_fx.tree->PutNoMerge(key, MakePayload(bg_fx.options_copy, key))
            .ok());
    if (bg_fx.tree->MemtableAtCapacity()) {
      bg_fx.tree->SealMemtable();
      // Drain eagerly about half the time to vary queue depth.
      if (k % 80 < 40) {
        for (;;) {
          auto step = bg_fx.tree->BackgroundCompactStep();
          ASSERT_TRUE(step.ok());
          if (step.value() == LsmTree::CompactStep::kNone) break;
        }
      }
    }
  }
  for (;;) {
    auto step = bg_fx.tree->BackgroundCompactStep();
    ASSERT_TRUE(step.ok());
    if (step.value() == LsmTree::CompactStep::kNone) break;
  }
  ASSERT_TRUE(bg_fx.tree->CheckInvariants(/*deep=*/true).ok());

  std::vector<std::pair<Key, std::string>> a, b;
  ASSERT_TRUE(inline_fx.tree->Scan(0, 1000, &a).ok());
  ASSERT_TRUE(bg_fx.tree->Scan(0, 1000, &b).ok());
  EXPECT_EQ(a, b);
}

TEST(BackgroundCompactTest, DrainPathWritesNoMoreBlocksThanPut) {
  // Db's inline mode commits with PutNoMerge, seals a full memtable and
  // runs BackgroundCompactStep until kNone, instead of Put's MaybeMerge
  // cascade. That swap must cost the paper's metric nothing: on the same
  // seeded workload the drain path writes no more blocks than Put, and
  // every level is back within capacity after each drain. The counts are
  // deterministic (in-memory device, seeded keys).
  struct Case {
    uint64_t k0_blocks;
    Key key_space;
    uint64_t seed;
  };
  for (const Case& c : {Case{4, 2'000, 1}, Case{4, 20'000, 2},
                        Case{25, 2'000, 3}, Case{25, 20'000, 4}}) {
    SCOPED_TRACE("K0=" + std::to_string(c.k0_blocks) +
                 " key_space=" + std::to_string(c.key_space));
    Options options = TinyOptions();
    options.level0_capacity_blocks = c.k0_blocks;
    TreeFixture put_fx(options, PolicyKind::kChooseBest);
    TreeFixture drain_fx(options, PolicyKind::kChooseBest);
    Random rng(c.seed);
    for (int i = 0; i < 40'000; ++i) {
      const Key key = rng.Uniform(c.key_space);
      ASSERT_TRUE(put_fx.Put(key).ok());
      ASSERT_TRUE(
          drain_fx.tree->PutNoMerge(key, MakePayload(options, key)).ok());
      if (!drain_fx.tree->MemtableAtCapacity()) continue;
      drain_fx.tree->SealMemtable();
      for (;;) {
        auto step = drain_fx.tree->BackgroundCompactStep();
        ASSERT_TRUE(step.ok()) << step.status().ToString();
        if (step.value() == LsmTree::CompactStep::kNone) break;
      }
      ASSERT_TRUE(drain_fx.tree->CheckInvariants().ok()) << "op " << i;
    }
    const uint64_t put_blocks = put_fx.device.stats().block_writes();
    const uint64_t drain_blocks = drain_fx.device.stats().block_writes();
    ASSERT_GT(put_blocks, 0u);
    EXPECT_LE(drain_blocks, put_blocks);
  }
}

TEST(BackgroundCompactTest, MemtableSnapshotConsolidatesNewestWins) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  ASSERT_TRUE(fx.tree->PutNoMerge(1, MakePayload(fx.options_copy, 10)).ok());
  ASSERT_TRUE(fx.tree->PutNoMerge(2, MakePayload(fx.options_copy, 20)).ok());
  fx.tree->SealMemtable();
  ASSERT_TRUE(fx.tree->PutNoMerge(2, MakePayload(fx.options_copy, 21)).ok());
  ASSERT_TRUE(fx.tree->DeleteNoMerge(3).ok());
  fx.tree->SealMemtable();
  ASSERT_TRUE(fx.tree->PutNoMerge(4, MakePayload(fx.options_copy, 40)).ok());

  std::vector<Record> snap = fx.tree->MemtableSnapshot();
  ASSERT_EQ(snap.size(), 4u);  // Keys 1, 2, 3 (tombstone), 4.
  EXPECT_EQ(snap[0].key, 1u);
  EXPECT_EQ(snap[0].payload, MakePayload(fx.options_copy, 10));
  EXPECT_EQ(snap[1].key, 2u);
  EXPECT_EQ(snap[1].payload, MakePayload(fx.options_copy, 21));  // Newer.
  EXPECT_EQ(snap[2].key, 3u);
  EXPECT_TRUE(snap[2].is_tombstone());  // Tombstones survive.
  EXPECT_EQ(snap[3].key, 4u);
}

}  // namespace
}  // namespace lsmssd
