#include "src/lsm/iterator.h"

#include <map>

#include <gtest/gtest.h>

#include "src/util/random.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;
using testing::TreeFixture;

TEST(IteratorTest, EmptyTree) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  auto it = fx.tree->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->Seek(42);
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST(IteratorTest, MemtableOnly) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k : {30, 10, 20}) ASSERT_TRUE(fx.Put(k).ok());
  auto it = fx.tree->NewIterator();
  std::vector<Key> keys;
  for (it->SeekToFirst(); it->Valid(); it->Next()) keys.push_back(it->key());
  EXPECT_EQ(keys, (std::vector<Key>{10, 20, 30}));
  EXPECT_TRUE(it->status().ok());
}

TEST(IteratorTest, SpansAllLevelsInOrder) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 900; ++k) ASSERT_TRUE(fx.Put(k * 3).ok());
  ASSERT_GE(fx.tree->num_levels(), 3u);

  auto it = fx.tree->NewIterator();
  Key expected = 0;
  size_t count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->key(), expected);
    EXPECT_EQ(it->value(), MakePayload(fx.options_copy, expected));
    expected += 3;
    ++count;
  }
  EXPECT_EQ(count, 900u);
  EXPECT_TRUE(it->status().ok());
}

TEST(IteratorTest, UpperLevelsShadowLower) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 500; ++k) ASSERT_TRUE(fx.Put(k).ok());
  // Fresh overwrite lands in L0 while the original sits deeper.
  const std::string fresh(fx.options_copy.payload_size, 'Z');
  ASSERT_TRUE(fx.tree->Put(123, fresh).ok());

  auto it = fx.tree->NewIterator();
  it->Seek(123);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), 123u);
  EXPECT_EQ(it->value(), fresh);
}

TEST(IteratorTest, TombstonesAreSkipped) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 300; ++k) ASSERT_TRUE(fx.Put(k).ok());
  for (Key k = 100; k < 200; ++k) ASSERT_TRUE(fx.tree->Delete(k).ok());

  auto it = fx.tree->NewIterator();
  it->Seek(50);
  size_t seen = 0;
  for (; it->Valid(); it->Next()) {
    EXPECT_TRUE(it->key() < 100 || it->key() >= 200)
        << "deleted key " << it->key() << " surfaced";
    ++seen;
  }
  EXPECT_EQ(seen, 150u);  // 50..99 and 200..299.
}

TEST(IteratorTest, SeekSemantics) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 400; ++k) ASSERT_TRUE(fx.Put(k * 10).ok());

  auto it = fx.tree->NewIterator();
  it->Seek(1500);  // Exact hit.
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), 1500u);

  it->Seek(1501);  // Between keys: next larger.
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), 1510u);

  it->Seek(0);  // Smallest.
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), 0u);

  it->Seek(999999);  // Past the end.
  EXPECT_FALSE(it->Valid());
}

TEST(IteratorTest, AgreesWithReferenceAfterChurn) {
  TreeFixture fx(TinyOptions(), PolicyKind::kTestMixed);
  std::map<Key, std::string> reference;
  Random rng(77);
  for (int i = 0; i < 5000; ++i) {
    const Key k = rng.Uniform(2000);
    if (rng.Bernoulli(0.7)) {
      const std::string payload = MakePayload(fx.options_copy, k + i);
      ASSERT_TRUE(fx.tree->Put(k, payload).ok());
      reference[k] = payload;
    } else {
      ASSERT_TRUE(fx.tree->Delete(k).ok());
      reference.erase(k);
    }
  }
  auto it = fx.tree->NewIterator();
  auto ref = reference.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++ref) {
    ASSERT_NE(ref, reference.end());
    EXPECT_EQ(it->key(), ref->first);
    EXPECT_EQ(it->value(), ref->second);
  }
  EXPECT_EQ(ref, reference.end());
  EXPECT_TRUE(it->status().ok());
}

TEST(IteratorTest, ScanMatchesIterator) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 600; ++k) ASSERT_TRUE(fx.Put(k * 2).ok());

  std::vector<std::pair<Key, std::string>> scanned;
  ASSERT_TRUE(fx.tree->Scan(100, 300, &scanned).ok());

  auto it = fx.tree->NewIterator();
  std::vector<std::pair<Key, std::string>> iterated;
  for (it->Seek(100); it->Valid() && it->key() <= 300; it->Next()) {
    iterated.emplace_back(it->key(), it->value());
  }
  EXPECT_EQ(scanned, iterated);
  EXPECT_EQ(scanned.size(), 101u);  // 100,102,...,300.
}

// Randomized oracle across every source kind the merged iterator reads:
// on-SSD levels (at least two), the L0 buffer, sealed memtables and the
// active memtable, each written in turn over one key space so overwrites
// and tombstones shadow older versions across sources. Every Seek target
// class (before the first key, exact live and deleted keys, between keys,
// past the last key) is then walked step by step against a std::map.
TEST(IteratorTest, RandomizedOracleAcrossEverySource) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
    LsmTree& tree = *fx.tree;
    Random rng(seed);
    std::map<Key, std::string> model;
    uint64_t version = 0;
    // Odd keys only, so every even key is a "between keys" target.
    auto random_key = [&rng] { return 2 * rng.Uniform(400) + 1; };
    auto write = [&](bool cascade, int ops) {
      for (int i = 0; i < ops; ++i) {
        const Key k = random_key();
        if (rng.Bernoulli(0.7)) {
          const std::string payload =
              MakePayload(fx.options_copy, k * 100000 + ++version);
          ASSERT_TRUE((cascade ? tree.Put(k, payload)
                               : tree.PutNoMerge(k, payload))
                          .ok());
          model[k] = payload;
        } else {
          ASSERT_TRUE((cascade ? tree.Delete(k) : tree.DeleteNoMerge(k)).ok());
          model.erase(k);
        }
      }
    };
    // Oldest first: the levels, via Put's merge cascade...
    write(/*cascade=*/true, 1500);
    ASSERT_GE(tree.num_levels(), 3u);  // L0 + at least two on-SSD levels.
    // ...then a sealed memtable flushed into the L0 buffer (no merge)...
    write(/*cascade=*/false, 30);
    tree.SealMemtable();
    ASSERT_TRUE(tree.FlushSealedStep(tree.FrontSealed()).ok());
    ASSERT_TRUE(tree.PopSealedIfDrained());
    // ...then two sealed memtables left queued, then the active one.
    for (int sealed = 0; sealed < 2; ++sealed) {
      write(/*cascade=*/false, 30);
      tree.SealMemtable();
    }
    write(/*cascade=*/false, 30);
    ASSERT_GT(tree.l0_buffer_records(), 0u);
    ASSERT_EQ(tree.sealed_count(), 2u);
    ASSERT_GT(tree.active_memtable_records(), 0u);
    ASSERT_FALSE(model.empty());

    std::vector<Key> targets = {0, model.begin()->first,
                                model.rbegin()->first,
                                model.rbegin()->first + 1, 1000000};
    for (int i = 0; i < 40; ++i) {
      const Key k = random_key();
      targets.push_back(k);      // Exact: live, deleted or never written.
      targets.push_back(k + 1);  // Between keys.
    }
    auto it = tree.NewIterator();
    for (Key target : targets) {
      SCOPED_TRACE("seek " + std::to_string(target));
      it->Seek(target);
      auto ref = model.lower_bound(target);
      for (int step = 0; step < 60 && ref != model.end(); ++step, ++ref) {
        ASSERT_TRUE(it->Valid()) << "step " << step;
        ASSERT_EQ(it->key(), ref->first) << "step " << step;
        ASSERT_EQ(it->value(), ref->second) << "step " << step;
        it->Next();
      }
      if (ref == model.end()) EXPECT_FALSE(it->Valid());
      ASSERT_TRUE(it->status().ok());
    }
    // One full pass from the start.
    auto ref = model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++ref) {
      ASSERT_NE(ref, model.end());
      ASSERT_EQ(it->key(), ref->first);
      ASSERT_EQ(it->value(), ref->second);
    }
    EXPECT_EQ(ref, model.end());
    EXPECT_TRUE(it->status().ok());
  }
}

#ifndef NDEBUG
// The iterator holds positions inside the memtables' maps; a mutation of
// the tree under an open iterator is a contract violation that debug
// builds catch instead of walking freed or foreign map nodes.
TEST(IteratorDeathTest, MutationUnderAnOpenIteratorIsCaught) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 1; k <= 5; ++k) {
    ASSERT_TRUE(fx.tree->PutNoMerge(k, MakePayload(fx.options_copy, k)).ok());
  }
  auto it = fx.tree->NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  ASSERT_TRUE(fx.tree->PutNoMerge(9, MakePayload(fx.options_copy, 9)).ok());
  EXPECT_DEATH(it->Next(), "mutations");
}
#endif

}  // namespace
}  // namespace lsmssd
