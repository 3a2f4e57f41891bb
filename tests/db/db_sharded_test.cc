// Db as a router over engines: the one-engine layout, sharded layout
// creation and reopen authority, reshard rejection, key routing,
// cross-shard scan/iterator merge against an oracle, stats aggregation
// (counter sums + histogram merge, the identity for one engine), and
// shard-aware scrub/quarantine.

#include "src/db/db.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/driver.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;

/// Fresh per-test root directory (recursively wiped: a sharded root
/// holds shard-<i> subdirectories, not just flat files).
std::string FreshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/dbs_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

DbOptions TinyShardedOptions(size_t shards) {
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.checkpoint_wal_bytes = 0;  // Manual checkpoints unless asked.
  dbopts.shards = shards;
  return dbopts;
}

TEST(DbShardedTest, PartitionIsDeterministicAndUsesEveryShard) {
  const size_t kShards = 4;
  std::vector<uint64_t> hits(kShards, 0);
  for (Key k = 0; k < 10000; ++k) {
    const size_t s = Db::ShardOfKey(k, kShards);
    ASSERT_LT(s, kShards);
    EXPECT_EQ(s, Db::ShardOfKey(k, kShards));  // Pure function.
    ++hits[s];
  }
  // FNV-1a over sequential keys should spread roughly evenly; the exact
  // split is layout-defining, so a gross imbalance would be a red flag.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(hits[s], 10000u / kShards / 2) << "shard " << s;
  }
  // shards=1 degenerates to the identity routing.
  EXPECT_EQ(Db::ShardOfKey(12345, 1), 0u);
}

TEST(DbShardedTest, UnshardedDbIsOneEngineInTheRoot) {
  const std::string dir = FreshDir("one");
  auto db_or = Db::Open(TinyShardedOptions(1), dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  EXPECT_EQ(db.shard_count(), 1u);
  ASSERT_NE(db.shard(0), nullptr);
  EXPECT_EQ(db.shard(0)->tree(), db.tree());
  EXPECT_NE(db.tree(), nullptr);
  EXPECT_EQ(db.shard(1), nullptr);
  // The classic layout: the engine's files sit in the root itself.
  EXPECT_FALSE(std::filesystem::exists(Db::ShardLayoutPath(dir)));
  EXPECT_FALSE(std::filesystem::exists(Db::ShardDirPath(dir, 0)));
  EXPECT_TRUE(std::filesystem::exists(Db::WalPath(dir)));
}

TEST(DbShardedTest, OneEngineStatsAggregateToTheEngineOwn) {
  const std::string dir = FreshDir("onestats");
  DbOptions dbopts = TinyShardedOptions(1);
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  for (Key k = 0; k < 400; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
  }
  ASSERT_TRUE(db.Delete(3).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Scrub().ok());
  ASSERT_TRUE(db.Get(5).ok());

  const DbStats agg = db.Stats();
  const DbStats own = db.shard(0)->Stats();
  EXPECT_GT(own.io.block_writes(), 0u);
  EXPECT_GT(own.scrub_blocks_verified, 0u);
  EXPECT_EQ(agg.shards, 1u);
  // Every counter the summary prints, byte for byte.
  EXPECT_EQ(agg.ToString(), own.ToString());
  EXPECT_EQ(agg.ToString().find("shards:"), std::string::npos);
}

TEST(DbShardedTest, OpenCreatesLayoutFileAndShardDirs) {
  const std::string dir = FreshDir("create");
  auto db_or = Db::Open(TinyShardedOptions(4), dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  EXPECT_EQ(db.shard_count(), 4u);
  EXPECT_EQ(db.tree(), nullptr);  // No single tree: use shard(i)->tree().
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_NE(db.shard(i), nullptr);
  }
  EXPECT_EQ(db.shard(4), nullptr);
  EXPECT_TRUE(std::filesystem::exists(Db::ShardLayoutPath(dir)));
  EXPECT_TRUE(std::filesystem::is_directory(Db::ShardDirPath(dir, 0)));
  EXPECT_TRUE(std::filesystem::is_directory(Db::ShardDirPath(dir, 3)));

  const Options& o = db.options();
  ASSERT_TRUE(db.Put(7, MakePayload(o, 7)).ok());
  auto v = db.Get(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), MakePayload(o, 7));
}

TEST(DbShardedTest, LayoutFileIsAuthoritativeOnReopen) {
  const std::string dir = FreshDir("reopen");
  const DbOptions dbopts = TinyShardedOptions(4);
  const Key kCount = 300;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    for (Key k = 0; k < kCount; ++k) {
      ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
    }
    ASSERT_TRUE(db.Delete(13).ok());
  }  // No checkpoint: recovery below is per-shard WAL replay.
  {
    // Reopen with DEFAULT options (shards = 1): the SHARDS file must win.
    DbOptions defaults;
    defaults.options = dbopts.options;
    defaults.checkpoint_wal_bytes = 0;
    auto db_or = Db::Open(defaults, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    EXPECT_EQ(db.shard_count(), 4u);
    const DbStats stats = db.Stats();
    EXPECT_EQ(stats.shards, 4u);
    // Every op was replayed from some shard's WAL (kCount puts + 1 del).
    EXPECT_EQ(stats.recovery_wal_entries_replayed, kCount + 1);
    for (Key k = 0; k < kCount; ++k) {
      auto v = db.Get(k);
      if (k == 13) {
        EXPECT_TRUE(v.status().IsNotFound());
      } else {
        ASSERT_TRUE(v.ok()) << "key " << k;
        EXPECT_EQ(v.value(), MakePayload(dbopts.options, k));
      }
    }
  }
}

TEST(DbShardedTest, ReshardingExistingSingleShardDbFails) {
  const std::string dir = FreshDir("reshard1");
  DbOptions single = TinyShardedOptions(1);
  {
    auto db_or = Db::Open(single, dir);
    ASSERT_TRUE(db_or.ok());
    ASSERT_TRUE(db_or.value()->Put(1, MakePayload(single.options, 1)).ok());
  }
  auto db_or = Db::Open(TinyShardedOptions(2), dir);
  EXPECT_TRUE(db_or.status().IsInvalidArgument())
      << db_or.status().ToString();
}

TEST(DbShardedTest, ReopeningWithDifferentShardCountFails) {
  const std::string dir = FreshDir("reshard2");
  { ASSERT_TRUE(Db::Open(TinyShardedOptions(2), dir).ok()); }
  auto db_or = Db::Open(TinyShardedOptions(4), dir);
  EXPECT_TRUE(db_or.status().IsInvalidArgument())
      << db_or.status().ToString();
  // The matching explicit count still works.
  EXPECT_TRUE(Db::Open(TinyShardedOptions(2), dir).ok());
}

TEST(DbShardedTest, ErrorIfExistsSeesShardedLayout) {
  const std::string dir = FreshDir("eie");
  { ASSERT_TRUE(Db::Open(TinyShardedOptions(2), dir).ok()); }
  DbOptions dbopts = TinyShardedOptions(2);
  dbopts.error_if_exists = true;
  auto db_or = Db::Open(dbopts, dir);
  EXPECT_EQ(db_or.status().code(), StatusCode::kFailedPrecondition)
      << db_or.status().ToString();
}

TEST(DbShardedTest, ZeroShardsIsRejected) {
  auto db_or = Db::Open(TinyShardedOptions(0), FreshDir("zero"));
  EXPECT_TRUE(db_or.status().IsInvalidArgument());
}

TEST(DbShardedTest, CorruptLayoutFileIsRejected) {
  const std::string dir = FreshDir("corruptlayout");
  { ASSERT_TRUE(Db::Open(TinyShardedOptions(2), dir).ok()); }
  // Flip the count without updating the checksum.
  const std::string path = Db::ShardLayoutPath(dir);
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    data = buf.str();
  }
  const size_t pos = data.find("count=2");
  ASSERT_NE(pos, std::string::npos);
  data[pos + 6] = '3';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
  }
  auto db_or = Db::Open(TinyShardedOptions(2), dir);
  EXPECT_TRUE(db_or.status().IsCorruption()) << db_or.status().ToString();
}

TEST(DbShardedTest, EveryKeyLivesInExactlyItsHashShard) {
  const std::string dir = FreshDir("routing");
  const DbOptions dbopts = TinyShardedOptions(4);
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  const Key kCount = 200;
  for (Key k = 0; k < kCount; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
  }
  for (Key k = 0; k < kCount; ++k) {
    const size_t home = Db::ShardOfKey(k, 4);
    for (size_t s = 0; s < 4; ++s) {
      auto v = db.shard(s)->Get(k);
      if (s == home) {
        ASSERT_TRUE(v.ok()) << "key " << k << " missing from shard " << s;
        EXPECT_EQ(v.value(), MakePayload(dbopts.options, k));
      } else {
        EXPECT_TRUE(v.status().IsNotFound())
            << "key " << k << " leaked into shard " << s;
      }
    }
  }
}

TEST(DbShardedTest, ScanAndIteratorMergeSortedAcrossShards) {
  const std::string dir = FreshDir("scan");
  DbOptions dbopts = TinyShardedOptions(4);
  dbopts.background_compaction = true;  // Exercise the mem_mu_ lock path.
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();

  std::map<Key, std::string> oracle;
  // Sparse keys with updates and deletes, spread across all shards.
  for (Key k = 0; k < 500; ++k) {
    const Key key = k * 7;
    const std::string payload = MakePayload(dbopts.options, key + 1);
    ASSERT_TRUE(db.Put(key, payload).ok());
    oracle[key] = payload;
  }
  for (Key k = 0; k < 500; k += 5) {
    ASSERT_TRUE(db.Delete(k * 7).ok());
    oracle.erase(k * 7);
  }

  // Range scan vs oracle.
  std::vector<std::pair<Key, std::string>> got;
  ASSERT_TRUE(db.Scan(100, 2500, &got).ok());
  std::vector<std::pair<Key, std::string>> want;
  for (const auto& [k, v] : oracle) {
    if (k >= 100 && k <= 2500) want.emplace_back(k, v);
  }
  EXPECT_EQ(got, want);

  // Inverted range mirrors the single-shard contract.
  EXPECT_TRUE(db.Scan(10, 5, &got).IsInvalidArgument());

  // Full iterator walk: sorted, complete, no duplicates.
  auto it = db.NewIterator();
  ASSERT_NE(it, nullptr);
  auto expect = oracle.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expect) {
    ASSERT_NE(expect, oracle.end());
    EXPECT_EQ(it->key(), expect->first);
    EXPECT_EQ(it->value(), expect->second);
  }
  EXPECT_EQ(expect, oracle.end());
  EXPECT_TRUE(it->status().ok());

  // Seek lands on the first key >= target across all shards.
  it->Seek(701);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), oracle.lower_bound(701)->first);
}

TEST(DbShardedTest, StatsAggregateAndMergeAcrossShards) {
  const std::string dir = FreshDir("stats");
  const DbOptions dbopts = TinyShardedOptions(4);
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  const Key kCount = 400;
  for (Key k = 0; k < kCount; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());

  const DbStats agg = db.Stats();
  EXPECT_EQ(agg.shards, 4u);
  EXPECT_EQ(agg.wal_entries_appended, kCount);
  EXPECT_EQ(agg.checkpoints, 4u);  // One per shard.
  // Cross-check each aggregate against the per-shard sum.
  uint64_t entries = 0, writes = 0, syncs = 0;
  for (size_t s = 0; s < 4; ++s) {
    const DbStats ss = db.shard(s)->Stats();
    EXPECT_GT(ss.wal_entries_appended, 0u) << "idle shard " << s;
    entries += ss.wal_entries_appended;
    writes += ss.io.block_writes();
    syncs += ss.wal_syncs;
  }
  EXPECT_EQ(agg.wal_entries_appended, entries);
  EXPECT_EQ(agg.io.block_writes(), writes);
  EXPECT_EQ(agg.wal_syncs, syncs);
  EXPECT_GT(agg.io.block_writes(), 0u);

  const std::string text = agg.ToString();
  EXPECT_NE(text.find("shards: 4"), std::string::npos);
  // Single-shard stats keep the historical format (no shards line).
  EXPECT_EQ(db.shard(0)->Stats().ToString().find("shards:"),
            std::string::npos);
}

TEST(DbShardedTest, ScrubFindsPerShardDamageAndOthersStayClean) {
  const std::string dir = FreshDir("scrub");
  const DbOptions dbopts = TinyShardedOptions(2);
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  for (Key k = 0; k < 400; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Scrub().ok());  // Clean after checkpoint.

  // Corrupt one on-SSD leaf of shard 1 only.
  Engine* victim = db.shard(1);
  ASSERT_NE(victim, nullptr);
  LsmTree* tree = victim->tree();
  ASSERT_NE(tree, nullptr);
  BlockId bad = kInvalidBlockId;
  for (size_t lvl = 1; lvl < tree->num_levels() && bad == kInvalidBlockId;
       ++lvl) {
    if (tree->level(lvl).num_leaves() > 0) {
      bad = tree->level(lvl).leaf(0).block;
    }
  }
  ASSERT_NE(bad, kInvalidBlockId) << "shard 1 spilled nothing to SSD";
  BlockData image;
  ASSERT_TRUE(
      tree->device()->ReadBlockUnverifiedForTesting(bad, &image).ok());
  image[image.size() / 3] ^= 0x20;
  ASSERT_TRUE(tree->device()->CorruptBlockForTesting(bad, image).ok());

  EXPECT_TRUE(db.Scrub().IsCorruption());
  const DbStats agg = db.Stats();
  EXPECT_EQ(agg.scrub_corruptions_found, 1u);
  EXPECT_EQ(agg.quarantined_blocks.size(), 1u);
  // The damage is attributable to its shard; the other shard is clean.
  EXPECT_EQ(db.shard(1)->Stats().quarantined_blocks.size(), 1u);
  EXPECT_TRUE(db.shard(0)->Stats().quarantined_blocks.empty());
}

TEST(DbShardedTest, CheckpointedShardedDbReopensFromManifests) {
  const std::string dir = FreshDir("ckptreopen");
  const DbOptions dbopts = TinyShardedOptions(2);
  const Key kCount = 500;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    for (Key k = 0; k < kCount; ++k) {
      ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    const DbStats stats = db.Stats();
    // A checkpoint preceded close, so recovery came from the per-shard
    // manifests, not WAL replay.
    EXPECT_EQ(stats.recovery_wal_entries_replayed, 0u);
    EXPECT_GT(stats.recovery_manifest_blocks, 0u);
    for (Key k = 0; k < kCount; ++k) {
      auto v = db.Get(k);
      ASSERT_TRUE(v.ok()) << "key " << k;
    }
  }
}

}  // namespace
}  // namespace lsmssd
