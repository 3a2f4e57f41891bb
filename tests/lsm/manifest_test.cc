#include "src/lsm/manifest.h"

#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/file_block_device.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;
using testing::TreeFixture;

TEST(ManifestTest, EncodeDecodeRoundTripEmptyTree) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  auto manifest_or = DecodeManifest(EncodeManifest(*fx.tree));
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
  EXPECT_TRUE(manifest_or->memtable_records.empty());
  EXPECT_TRUE(manifest_or->levels.empty());
  EXPECT_EQ(manifest_or->options.block_size, fx.options_copy.block_size);
}

TEST(ManifestTest, EncodeDecodeRoundTripPopulatedTree) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 700; ++k) ASSERT_TRUE(fx.Put(k * 3).ok());
  ASSERT_TRUE(fx.tree->Delete(30).ok());

  auto manifest_or = DecodeManifest(EncodeManifest(*fx.tree));
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
  const Manifest& m = manifest_or.value();
  EXPECT_EQ(m.memtable_records.size(), fx.tree->l0_buffer().size());
  ASSERT_EQ(m.levels.size(), fx.tree->num_levels() - 1);
  for (size_t i = 0; i < m.levels.size(); ++i) {
    ASSERT_EQ(m.levels[i].size(), fx.tree->level(i + 1).num_leaves());
    for (size_t j = 0; j < m.levels[i].size(); ++j) {
      EXPECT_EQ(m.levels[i][j].block, fx.tree->level(i + 1).leaf(j).block);
      EXPECT_EQ(m.levels[i][j].count, fx.tree->level(i + 1).leaf(j).count);
    }
  }
}

TEST(ManifestTest, RestoreOnSameDeviceMatchesOriginal) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 900; ++k) ASSERT_TRUE(fx.Put(k * 7 + 1).ok());
  for (Key k = 0; k < 100; ++k) ASSERT_TRUE(fx.tree->Delete(k * 7 + 1).ok());

  auto manifest_or = DecodeManifest(EncodeManifest(*fx.tree));
  ASSERT_TRUE(manifest_or.ok());
  auto restored_or = LsmTree::Restore(manifest_or.value(), &fx.device,
                                      CreatePolicy(PolicyKind::kChooseBest));
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  LsmTree& restored = *restored_or.value();

  EXPECT_EQ(restored.num_levels(), fx.tree->num_levels());
  EXPECT_EQ(restored.TotalRecords(), fx.tree->TotalRecords());
  ASSERT_TRUE(restored.CheckInvariants(true).ok());

  // Every key reads identically from both trees.
  for (Key k = 0; k < 900; ++k) {
    auto a = fx.tree->Get(k * 7 + 1);
    auto b = restored.Get(k * 7 + 1);
    ASSERT_EQ(a.ok(), b.ok()) << "key " << k * 7 + 1;
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value());
    }
  }
}

TEST(ManifestTest, WritesAfterRestoreShadowRestoredMemoryResidentRecords) {
  // The manifest's memory-resident records are the oldest memory-resident
  // state: Put/Delete on the restored tree must win over them in Get,
  // Scan and the iterator.
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  std::map<Key, std::string> expect;
  for (Key k = 0; k < 500; ++k) {
    ASSERT_TRUE(fx.Put(k * 3).ok());
    expect[k * 3] = MakePayload(fx.options_copy, k * 3);
  }
  auto manifest_or = DecodeManifest(EncodeManifest(*fx.tree));
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
  const Manifest& m = manifest_or.value();
  ASSERT_GE(m.memtable_records.size(), 10u);
  auto restored_or = LsmTree::Restore(m, &fx.device,
                                      CreatePolicy(PolicyKind::kChooseBest));
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  LsmTree& restored = *restored_or.value();
  EXPECT_EQ(restored.l0_buffer_records(), m.memtable_records.size());

  // Overwrite every other restored key, delete the rest.
  const std::string fresh(fx.options_copy.payload_size, 'z');
  for (size_t i = 0; i < m.memtable_records.size(); ++i) {
    const Key key = m.memtable_records[i].key;
    if (i % 2 == 0) {
      ASSERT_TRUE(restored.Put(key, fresh).ok());
      expect[key] = fresh;
    } else {
      ASSERT_TRUE(restored.Delete(key).ok());
      expect.erase(key);
    }
  }
  ASSERT_TRUE(restored.CheckInvariants(/*deep=*/true).ok());

  for (const Record& r : m.memtable_records) {
    auto v = restored.Get(r.key);
    if (expect.count(r.key) != 0) {
      ASSERT_TRUE(v.ok()) << "key " << r.key;
      EXPECT_EQ(v.value(), fresh) << "key " << r.key;
    } else {
      EXPECT_TRUE(v.status().IsNotFound()) << "key " << r.key;
    }
  }
  const std::vector<std::pair<Key, std::string>> want(expect.begin(),
                                                      expect.end());
  std::vector<std::pair<Key, std::string>> scanned;
  ASSERT_TRUE(restored.Scan(0, 10'000, &scanned).ok());
  EXPECT_EQ(scanned, want);
  std::vector<std::pair<Key, std::string>> iterated;
  std::unique_ptr<Iterator> it = restored.NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    iterated.emplace_back(it->key(), it->value());
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(iterated, want);
}

TEST(ManifestTest, RestoreRebuildsBloomFilters) {
  Options options = TinyOptions();
  options.bloom_bits_per_key = 10;
  TreeFixture fx(options, PolicyKind::kChooseBest);
  for (Key k = 0; k < 800; ++k) ASSERT_TRUE(fx.Put(k * 2).ok());

  auto manifest_or = DecodeManifest(EncodeManifest(*fx.tree));
  ASSERT_TRUE(manifest_or.ok());
  auto restored_or = LsmTree::Restore(manifest_or.value(), &fx.device,
                                      CreatePolicy(PolicyKind::kChooseBest));
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  LsmTree& restored = *restored_or.value();

  // Negative lookups should be answered by rebuilt filters (few reads).
  const uint64_t reads_before = fx.device.stats().block_reads();
  for (Key k = 1; k < 1000; k += 2) {
    EXPECT_TRUE(restored.Get(k).status().IsNotFound());
  }
  EXPECT_LT(fx.device.stats().block_reads() - reads_before, 60u);
}

TEST(ManifestTest, CorruptionDetected) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 300; ++k) ASSERT_TRUE(fx.Put(k).ok());
  std::string data = EncodeManifest(*fx.tree);

  {  // Flipped byte in the middle.
    std::string bad = data;
    bad[bad.size() / 2] ^= 0x40;
    EXPECT_TRUE(DecodeManifest(bad).status().IsCorruption());
  }
  {  // Truncation.
    std::string bad = data.substr(0, data.size() - 9);
    EXPECT_TRUE(DecodeManifest(bad).status().IsCorruption());
  }
  {  // Bad magic.
    std::string bad = data;
    bad[0] = 'X';
    EXPECT_TRUE(DecodeManifest(bad).status().IsCorruption());
  }
}

TEST(ManifestTest, EveryByteFlipIsDetected) {
  // The manifest is the recovery root: a corrupt one must *fail loudly*
  // (Corruption), never crash the decoder or silently round-trip. The
  // trailing checksum covers everything between the magic and itself, and
  // the magic is compared byte-for-byte, so no single-byte flip anywhere
  // may survive.
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 400; ++k) ASSERT_TRUE(fx.Put(k * 3 + 1).ok());
  ASSERT_TRUE(fx.tree->Delete(4).ok());
  const std::string data = EncodeManifest(*fx.tree);
  ASSERT_TRUE(DecodeManifest(data).ok());

  for (size_t off = 0; off < data.size(); ++off) {
    for (const char mask : {char(0x01), char(0x80)}) {
      std::string bad = data;
      bad[off] ^= mask;
      const Status st = DecodeManifest(bad).status();
      EXPECT_TRUE(st.IsCorruption())
          << "flip at " << off << " -> " << st.ToString();
    }
  }
}

TEST(ManifestTest, EveryTruncationIsDetected) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 200; ++k) ASSERT_TRUE(fx.Put(k * 5).ok());
  const std::string data = EncodeManifest(*fx.tree);
  for (size_t cut = 0; cut < data.size(); ++cut) {
    const Status st = DecodeManifest(data.substr(0, cut)).status();
    EXPECT_TRUE(st.IsCorruption())
        << "cut at " << cut << " -> " << st.ToString();
  }
}

TEST(ManifestTest, DecodeRejectsOptionsAManifestShouldNeverContain) {
  // Defense in depth: even with a colliding checksum (or a buggy writer),
  // decoded options are re-validated before the tree trusts them.
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  std::string data = EncodeManifest(*fx.tree);
  auto good = DecodeManifest(data);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->options.Validate().ok());
}

TEST(ManifestTest, SaveAndLoadFile) {
  const std::string path =
      ::testing::TempDir() + "/manifest_" + std::to_string(::getpid());
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  for (Key k = 0; k < 500; ++k) ASSERT_TRUE(fx.Put(k * 5).ok());

  ASSERT_TRUE(SaveManifestToFile(*fx.tree, path).ok());
  auto manifest_or = LoadManifestFromFile(path);
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
  EXPECT_EQ(manifest_or->levels.size(), fx.tree->num_levels() - 1);
  ::unlink(path.c_str());
}

TEST(ManifestTest, FullRestartCycleOnFileDevice) {
  // End-to-end restart: persistent file device + manifest, close
  // everything, reopen, verify contents.
  const std::string dev_path =
      ::testing::TempDir() + "/lsmdev_" + std::to_string(::getpid());
  const std::string manifest_path = dev_path + ".manifest";
  Options options = TinyOptions();

  std::string manifest_bytes;
  {
    FileBlockDevice::FileOptions fopts;
    fopts.block_size = options.block_size;
    fopts.remove_on_close = false;
    auto device_or = FileBlockDevice::Open(dev_path, fopts);
    ASSERT_TRUE(device_or.ok());
    auto tree_or = LsmTree::Open(options, device_or.value().get(),
                                 CreatePolicy(PolicyKind::kChooseBest));
    ASSERT_TRUE(tree_or.ok());
    LsmTree& tree = *tree_or.value();
    for (Key k = 0; k < 600; ++k) {
      ASSERT_TRUE(tree.Put(k * 11, MakePayload(options, k * 11)).ok());
    }
    ASSERT_TRUE(SaveManifestToFile(tree, manifest_path).ok());
  }  // Device closed; file persists.

  {
    auto manifest_or = LoadManifestFromFile(manifest_path);
    ASSERT_TRUE(manifest_or.ok());

    FileBlockDevice::FileOptions fopts;
    fopts.block_size = options.block_size;
    fopts.remove_on_close = true;  // Clean up at the end.
    fopts.truncate = false;
    auto device_or = FileBlockDevice::Open(dev_path, fopts);
    ASSERT_TRUE(device_or.ok());

    std::vector<BlockId> live;
    for (const auto& level : manifest_or->levels) {
      for (const auto& leaf : level) live.push_back(leaf.block);
    }
    ASSERT_TRUE(device_or.value()->RestoreLive(live).ok());

    auto tree_or =
        LsmTree::Restore(manifest_or.value(), device_or.value().get(),
                         CreatePolicy(PolicyKind::kChooseBest));
    ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
    LsmTree& tree = *tree_or.value();
    ASSERT_TRUE(tree.CheckInvariants(true).ok());
    for (Key k = 0; k < 600; ++k) {
      auto v = tree.Get(k * 11);
      ASSERT_TRUE(v.ok()) << "key " << k * 11;
      EXPECT_EQ(v.value(), MakePayload(options, k * 11));
    }
    // The restored tree keeps working: write more and merge.
    for (Key k = 600; k < 900; ++k) {
      ASSERT_TRUE(tree.Put(k * 11, MakePayload(options, k * 11)).ok());
    }
    ASSERT_TRUE(tree.CheckInvariants(true).ok());
  }
  ::unlink(manifest_path.c_str());
}

TEST(FileBlockDeviceTest, RestoreLiveRejectsAfterAllocation) {
  auto device_or = FileBlockDevice::Open(
      ::testing::TempDir() + "/rl_" + std::to_string(::getpid()), {});
  ASSERT_TRUE(device_or.ok());
  ASSERT_TRUE(device_or.value()->WriteNewBlock(BlockData(1, 1)).ok());
  EXPECT_FALSE(device_or.value()->RestoreLive({5}).ok());
}

}  // namespace
}  // namespace lsmssd
