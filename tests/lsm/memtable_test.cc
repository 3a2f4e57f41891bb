#include "src/lsm/memtable.h"

#include <gtest/gtest.h>

namespace lsmssd {
namespace {

TEST(MemtableTest, PutAndGet) {
  Memtable m;
  m.Put(3, "v3");
  m.Put(1, "v1");
  ASSERT_NE(m.Get(1), nullptr);
  EXPECT_EQ(m.Get(1)->payload, "v1");
  EXPECT_EQ(m.Get(2), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(MemtableTest, PutOverwrites) {
  Memtable m;
  m.Put(1, "old");
  m.Put(1, "new");
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.Get(1)->payload, "new");
}

TEST(MemtableTest, DeleteLogsTombstone) {
  Memtable m;
  m.Put(1, "v");
  m.Delete(1);
  ASSERT_NE(m.Get(1), nullptr);
  EXPECT_TRUE(m.Get(1)->is_tombstone());
  EXPECT_EQ(m.size(), 1u);  // Tombstone occupies a slot.

  m.Delete(9);  // Delete of an absent key still logs.
  EXPECT_TRUE(m.Get(9)->is_tombstone());
}

TEST(MemtableTest, PutRevivesTombstone) {
  Memtable m;
  m.Delete(1);
  m.Put(1, "back");
  EXPECT_FALSE(m.Get(1)->is_tombstone());
}

TEST(MemtableTest, MinMaxAndSortedKeys) {
  Memtable m;
  m.Put(50, "a");
  m.Put(10, "b");
  m.Put(30, "c");
  EXPECT_EQ(m.min_key(), 10u);
  EXPECT_EQ(m.max_key(), 50u);
  EXPECT_EQ(m.SortedKeys(), (std::vector<Key>{10, 30, 50}));
}

TEST(MemtableTest, SliceDoesNotRemove) {
  Memtable m;
  for (Key k : {10, 20, 30, 40}) m.Put(k, "v");
  auto slice = m.Slice(1, 2);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0].key, 20u);
  EXPECT_EQ(slice[1].key, 30u);
  EXPECT_EQ(m.size(), 4u);
}

TEST(MemtableTest, SliceClampsToEnd) {
  Memtable m;
  for (Key k : {1, 2, 3}) m.Put(k, "v");
  EXPECT_EQ(m.Slice(2, 10).size(), 1u);
  EXPECT_TRUE(m.Slice(5, 2).empty());
}

TEST(MemtableTest, ExtractRemovesRange) {
  Memtable m;
  for (Key k : {10, 20, 30, 40, 50}) m.Put(k, "v");
  auto extracted = m.Extract(1, 3);
  ASSERT_EQ(extracted.size(), 3u);
  EXPECT_EQ(extracted.front().key, 20u);
  EXPECT_EQ(extracted.back().key, 40u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.SortedKeys(), (std::vector<Key>{10, 50}));
}

TEST(MemtableTest, ExtractAllEmpties) {
  Memtable m;
  for (Key k : {3, 1, 2}) m.Put(k, "v");
  auto all = m.ExtractAll();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].key, 1u);  // Key order.
  EXPECT_EQ(all[2].key, 3u);
  EXPECT_TRUE(m.empty());
}

TEST(MemtableTest, UpperBoundIndex) {
  Memtable m;
  for (Key k : {10, 20, 30}) m.Put(k, "v");
  EXPECT_EQ(m.UpperBoundIndex(5), 0u);
  EXPECT_EQ(m.UpperBoundIndex(10), 1u);
  EXPECT_EQ(m.UpperBoundIndex(25), 2u);
  EXPECT_EQ(m.UpperBoundIndex(30), 3u);
  EXPECT_EQ(m.UpperBoundIndex(99), 3u);
}

TEST(MemtableTest, LowerBoundWalksEntriesInKeyOrder) {
  Memtable m;
  for (Key k : {40, 10, 30, 20}) m.Put(k, "v");
  m.Delete(30);
  EXPECT_EQ(m.LowerBound(5)->first, 10u);
  EXPECT_EQ(m.LowerBound(20)->first, 20u);  // Exact key.
  EXPECT_EQ(m.LowerBound(21)->first, 30u);  // Between keys.
  EXPECT_TRUE(m.LowerBound(41) == m.end());
  std::vector<Key> keys;
  for (auto it = m.LowerBound(15); it != m.end(); ++it) {
    keys.push_back(it->first);
  }
  EXPECT_EQ(keys, (std::vector<Key>{20, 30, 40}));
  EXPECT_TRUE(m.LowerBound(30)->second.is_tombstone());  // Caller filters.
}

TEST(MemtableTest, EveryMutationBumpsTheCounter) {
  Memtable m;
  uint64_t last = m.mutations();
  auto bumped = [&] {
    const bool moved = m.mutations() > last;
    last = m.mutations();
    return moved;
  };
  m.Put(1, "a");
  EXPECT_TRUE(bumped());
  m.Put(1, "b");  // Overwrite.
  EXPECT_TRUE(bumped());
  m.Delete(2);
  EXPECT_TRUE(bumped());
  m.EraseRange(1, 1);
  EXPECT_TRUE(bumped());
  m.Put(3, "c");
  last = m.mutations();
  (void)m.Extract(0, 1);
  EXPECT_TRUE(bumped());
  (void)m.ExtractAll();
  EXPECT_TRUE(bumped());
  Memtable other(std::move(m));  // Moved from.
  EXPECT_TRUE(bumped());
  m = Memtable();  // Assigned to.
  EXPECT_TRUE(bumped());
  (void)m.Get(1);  // Reads never count.
  (void)m.LowerBound(0);
  EXPECT_FALSE(bumped());
}

}  // namespace
}  // namespace lsmssd
