// Key–value separation (DESIGN.md §11): the vlog stays completely off
// at default options, values round-trip through pointers under Get /
// Scan / iterators, recovery replays pointers from WAL and manifest,
// the head truncation sweep recovers the durable prefix at every cut,
// GC reclaims dead segments without losing a live value, a corrupt
// entry quarantines itself without poisoning the Db, and a sharded
// facade merges vlog-resolved scans across shards.

#include "src/db/db.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/lsm/wal.h"
#include "src/storage/vlog_file.h"
#include "src/workload/driver.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;

std::string FreshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/dbv_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Tiny options with the value log on: every 20-byte payload clears the
/// 17-byte threshold, so all puts take the vlog path.
DbOptions TinyVlogOptions() {
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.options.vlog_value_threshold = 17;
  dbopts.checkpoint_wal_bytes = 0;  // Manual checkpoints unless asked.
  return dbopts;
}

/// Entry footprint of one put in the tiny config: 17-byte header plus
/// the 20-byte payload.
constexpr uint64_t kEntryBytes = vlog::kEntryHeaderSize + 20;

TEST(DbVlogTest, DefaultOptionsCreateNoVlogFiles) {
  const std::string dir = FreshDir("off");
  DbOptions dbopts;
  dbopts.options = TinyOptions();  // vlog_value_threshold stays 0.
  dbopts.checkpoint_wal_bytes = 0;
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_TRUE(Db::ListVlogSegments(dir).empty());
  const DbStats stats = db.Stats();
  EXPECT_EQ(stats.vlog_segments, 0u);
  EXPECT_EQ(stats.vlog_bytes_appended, 0u);
  // The stats summary must not even mention the vlog when it is off —
  // the default text output is part of the paper-figure surface.
  EXPECT_EQ(stats.ToString().find("vlog:"), std::string::npos);
}

TEST(DbVlogTest, PutGetScanIteratorRoundtrip) {
  const std::string dir = FreshDir("rt");
  const DbOptions dbopts = TinyVlogOptions();
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  std::map<Key, std::string> oracle;
  for (Key k = 0; k < 300; ++k) {
    const std::string payload = MakePayload(dbopts.options, k * 7);
    ASSERT_TRUE(db.Put(k * 7, payload).ok());
    oracle[k * 7] = payload;
  }
  // Overwrites and deletes: the tree must serve the newest pointer.
  for (Key k = 0; k < 50; ++k) {
    const std::string payload = MakePayload(dbopts.options, k * 7 + 1);
    ASSERT_TRUE(db.Put(k * 7, payload).ok());
    oracle[k * 7] = payload;
  }
  ASSERT_TRUE(db.Delete(14).ok());
  oracle.erase(14);

  for (const auto& [k, v] : oracle) {
    auto got = db.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), v) << "key " << k;
  }
  EXPECT_TRUE(db.Get(14).status().IsNotFound());

  // Scan resolves pointers before returning.
  std::vector<std::pair<Key, std::string>> scanned;
  ASSERT_TRUE(db.Scan(0, 700, &scanned).ok());
  std::map<Key, std::string> expect_range(oracle.begin(),
                                          oracle.upper_bound(700));
  ASSERT_EQ(scanned.size(), expect_range.size());
  for (const auto& [k, v] : scanned) {
    ASSERT_TRUE(expect_range.count(k)) << "key " << k;
    EXPECT_EQ(v, expect_range[k]) << "key " << k;
  }

  // Iterators resolve per position.
  auto it = db.NewIterator();
  ASSERT_NE(it, nullptr);
  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++n) {
    ASSERT_TRUE(oracle.count(it->key())) << "key " << it->key();
    EXPECT_EQ(it->value(), oracle[it->key()]) << "key " << it->key();
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(n, oracle.size());

  const DbStats stats = db.Stats();
  EXPECT_GE(stats.vlog_segments, 1u);
  EXPECT_EQ(stats.vlog_bytes_appended, 350 * kEntryBytes);  // Deletes skip it.
  EXPECT_NE(stats.ToString().find("vlog:"), std::string::npos);
}

TEST(DbVlogTest, ReopenRecoversPointersFromWalAndManifest) {
  const std::string dir = FreshDir("reopen");
  const DbOptions dbopts = TinyVlogOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    for (Key k = 0; k < 400; ++k) {
      ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());  // Manifest carries the frontier.
    for (Key k = 400; k < 450; ++k) {   // WAL-only tail.
      ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
    }
  }
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  for (Key k = 0; k < 450; ++k) {
    auto got = db.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), MakePayload(dbopts.options, k)) << "key " << k;
  }
  // And the reopened head keeps appending where it left off.
  ASSERT_TRUE(db.Put(9999, MakePayload(dbopts.options, 9999)).ok());
  auto got = db.Get(9999);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), MakePayload(dbopts.options, 9999));
}

TEST(DbVlogTest, HeadTruncationSweepRecoversDurablePrefix) {
  // Build one clean-closed Db with kAlways sync (every entry durable),
  // then cut the vlog head at EVERY byte offset and reopen: recovery
  // must come back with exactly the keys whose entries survived the cut
  // — a prefix, never a gap — and stay writable afterwards.
  const std::string golden = FreshDir("sweep_golden");
  const DbOptions dbopts = TinyVlogOptions();
  constexpr Key kKeys = 8;
  {
    auto db_or = Db::Open(dbopts, golden);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(db_or.value()->Put(k, MakePayload(dbopts.options, k)).ok());
    }
  }  // Clean close: vlog synced, WAL synced, no checkpoint.
  const uint64_t full = kKeys * kEntryBytes;
  ASSERT_EQ(std::filesystem::file_size(Db::VlogSegmentPath(golden, 0)), full);

  const std::string work = FreshDir("sweep_work");
  for (uint64_t cut = 0; cut <= full; ++cut) {
    std::filesystem::remove_all(work);
    std::filesystem::copy(golden, work);
    ASSERT_EQ(::truncate(Db::VlogSegmentPath(work, 0).c_str(),
                         static_cast<off_t>(cut)),
              0);
    auto db_or = Db::Open(dbopts, work);
    ASSERT_TRUE(db_or.ok()) << "cut " << cut << ": "
                            << db_or.status().ToString();
    Db& db = *db_or.value();
    const Key survivors = static_cast<Key>(cut / kEntryBytes);
    for (Key k = 0; k < kKeys; ++k) {
      auto got = db.Get(k);
      if (k < survivors) {
        ASSERT_TRUE(got.ok()) << "cut " << cut << " key " << k << ": "
                              << got.status().ToString();
        EXPECT_EQ(got.value(), MakePayload(dbopts.options, k));
      } else {
        // Beyond the durable frontier the WAL was truncated too: the
        // key is gone entirely, not half-present.
        EXPECT_TRUE(got.status().IsNotFound())
            << "cut " << cut << " key " << k << ": "
            << got.status().ToString();
      }
    }
    // The recovered Db keeps working.
    ASSERT_TRUE(db.Put(1000, MakePayload(dbopts.options, 1000)).ok())
        << "cut " << cut;
    auto got = db.Get(1000);
    ASSERT_TRUE(got.ok()) << "cut " << cut;
    EXPECT_EQ(got.value(), MakePayload(dbopts.options, 1000));
  }
}

TEST(DbVlogTest, DanglingPointerCutsItsWholeWalBatch) {
  // A WAL batch replays whole or not at all. Batch 2 holds a valid
  // pointer followed by one whose vlog bytes were lost: recovery cuts
  // the log at the start of batch 2, replays neither of its entries,
  // and truncates the vlog head back to batch 1's frontier.
  const std::string dir = FreshDir("dangle_batch");
  DbOptions dbopts = TinyVlogOptions();
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 1000;  // Batches end only at SyncWal/Close.
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    ASSERT_TRUE(db.Put(1, MakePayload(dbopts.options, 1)).ok());
    ASSERT_TRUE(db.SyncWal().ok());  // Batch 1.
    ASSERT_TRUE(db.Put(2, MakePayload(dbopts.options, 2)).ok());
    ASSERT_TRUE(db.Put(3, MakePayload(dbopts.options, 3)).ok());
  }  // Clean close: batch 2 holds keys 2 and 3.
  std::vector<size_t> offsets;
  std::vector<size_t> sizes;
  ASSERT_TRUE(WalReader::ForEachBatch(Db::WalPath(dir),
                                      [&](size_t offset,
                                          const std::vector<Record>& batch) {
                                        offsets.push_back(offset);
                                        sizes.push_back(batch.size());
                                        return Status::OK();
                                      })
                  .ok());
  ASSERT_EQ(sizes, (std::vector<size_t>{1, 2}));
  const size_t batch2 = offsets[1];
  // Lose the tail of key 3's vlog entry; key 2's stays intact.
  const std::string head = Db::VlogSegmentPath(dir, 0);
  ASSERT_EQ(std::filesystem::file_size(head), 3 * kEntryBytes);
  ASSERT_EQ(::truncate(head.c_str(), static_cast<off_t>(3 * kEntryBytes - 1)),
            0);

  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  EXPECT_EQ(db.Stats().recovery_wal_entries_replayed, 1u);
  auto got = db.Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), MakePayload(dbopts.options, 1));
  EXPECT_TRUE(db.Get(2).status().IsNotFound());
  EXPECT_TRUE(db.Get(3).status().IsNotFound());
  EXPECT_EQ(std::filesystem::file_size(Db::WalPath(dir)), batch2);
  EXPECT_EQ(std::filesystem::file_size(head), kEntryBytes);
  // The recovered Db appends cleanly behind the cut.
  ASSERT_TRUE(db.Put(4, MakePayload(dbopts.options, 4)).ok());
  db_or.value().reset();
  auto reopened = Db::Open(dbopts, dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->Get(1).ok());
  EXPECT_TRUE(reopened.value()->Get(2).status().IsNotFound());
  EXPECT_TRUE(reopened.value()->Get(4).ok());
}

TEST(DbVlogTest, RotatedSegmentWithLostVlogBytesFailsOpen) {
  // Rotation renames only a fully synced log, vlog first, so a pointer
  // in a rotated segment that reaches past its vlog bytes is lost
  // durable data: Open refuses with Corruption (and tears down the
  // half-recovered engine cleanly) instead of cutting the log.
  const std::string dir = FreshDir("rotated_dangle");
  const DbOptions dbopts = TinyVlogOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 0; k < 3; ++k) {
      ASSERT_TRUE(db_or.value()->Put(k, MakePayload(dbopts.options, k)).ok());
    }
  }  // Clean close: every entry synced, no checkpoint.
  ASSERT_EQ(::rename(Db::WalPath(dir).c_str(),
                     Db::WalSegmentPath(dir, 1).c_str()),
            0);
  const std::string head = Db::VlogSegmentPath(dir, 0);
  ASSERT_EQ(::truncate(head.c_str(), static_cast<off_t>(3 * kEntryBytes - 1)),
            0);
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.status().IsCorruption()) << db_or.status().ToString();
  EXPECT_NE(db_or.status().message().find("lost vlog bytes"),
            std::string::npos)
      << db_or.status().ToString();
}

TEST(DbVlogTest, GcReclaimsDeadSegmentsAndKeepsEveryLiveValue) {
  const std::string dir = FreshDir("gc");
  DbOptions dbopts = TinyVlogOptions();
  dbopts.vlog_segment_bytes = 4 * kEntryBytes;  // Roll every 4 entries.
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  // Overwrite a small key set many times: almost everything in the
  // early segments is dead.
  constexpr Key kKeys = 16;
  std::map<Key, std::string> oracle;
  for (int round = 0; round < 10; ++round) {
    for (Key k = 0; k < kKeys; ++k) {
      const std::string payload =
          MakePayload(dbopts.options, k + 1000 * round);
      ASSERT_TRUE(db.Put(k, payload).ok());
      oracle[k] = payload;
    }
  }
  ASSERT_TRUE(db.Delete(0).ok());
  oracle.erase(0);

  const size_t segments_before = Db::ListVlogSegments(dir).size();
  ASSERT_GT(segments_before, 10u);  // 160 entries / 4 per segment.
  ASSERT_TRUE(db.CompactVlog().ok());
  const DbStats stats = db.Stats();
  EXPECT_GT(stats.vlog_segments_reclaimed, 0u);
  EXPECT_GT(stats.vlog_gc_rewrites, 0u);
  // On disk: everything below the published tail is gone.
  EXPECT_LT(Db::ListVlogSegments(dir).size(), segments_before);

  for (const auto& [k, v] : oracle) {
    auto got = db.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), v) << "key " << k;
  }
  EXPECT_TRUE(db.Get(0).status().IsNotFound());

  // Survives a reopen: the manifest's tail matches the files on disk.
  db_or.value().reset();
  auto again_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(again_or.ok()) << again_or.status().ToString();
  for (const auto& [k, v] : oracle) {
    auto got = again_or.value()->Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), v) << "key " << k;
  }
}

TEST(DbVlogTest, AutoGcTriggersOnGarbageRatio) {
  const std::string dir = FreshDir("autogc");
  DbOptions dbopts = TinyVlogOptions();
  dbopts.vlog_segment_bytes = 8 * kEntryBytes;
  dbopts.vlog_gc_ratio = 0.5;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    for (int round = 0; round < 20; ++round) {
      for (Key k = 0; k < 8; ++k) {
        ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k + round)).ok());
      }
    }
    // The maintenance thread GCs on its own; poll briefly.
    for (int i = 0; i < 200 && db.Stats().vlog_segments_reclaimed == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(db.Stats().vlog_segments_reclaimed, 0u);
    for (Key k = 0; k < 8; ++k) {
      auto got = db.Get(k);
      ASSERT_TRUE(got.ok()) << "key " << k;
      EXPECT_EQ(got.value(), MakePayload(dbopts.options, k + 19));
    }
  }
}

TEST(DbVlogTest, CorruptEntryQuarantinesWithoutPoisoningDb) {
  const std::string dir = FreshDir("quar");
  const DbOptions dbopts = TinyVlogOptions();
  constexpr Key kKeys = 20;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(db_or.value()->Put(k, MakePayload(dbopts.options, k)).ok());
    }
  }
  // Flip one byte inside key 5's value on disk.
  constexpr Key kVictim = 5;
  const uint64_t flip_at =
      kVictim * kEntryBytes + vlog::kEntryHeaderSize + 3;
  {
    std::fstream f(Db::VlogSegmentPath(dir, 0),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(flip_at));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(flip_at));
    f.put(static_cast<char>(c ^ 0x01));
  }
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  // The victim reads as Corruption naming the segment; twice (the second
  // read hits the quarantine, not the disk).
  Status st = db.Get(kVictim).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("vlog segment 0"), std::string::npos)
      << st.ToString();
  st = db.Get(kVictim).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("quarantined"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(db.Stats().vlog_quarantined_entries, 1u);
  // Every other key still reads; the Db is not poisoned and keeps
  // accepting writes — damage is entry-local.
  for (Key k = 0; k < kKeys; ++k) {
    if (k == kVictim) continue;
    auto got = db.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), MakePayload(dbopts.options, k));
  }
  ASSERT_TRUE(db.Put(kVictim, MakePayload(dbopts.options, 777)).ok());
  auto got = db.Get(kVictim);
  ASSERT_TRUE(got.ok());  // The overwrite's fresh entry is clean.
  EXPECT_EQ(got.value(), MakePayload(dbopts.options, 777));
}

TEST(DbVlogTest, ShardedScanMergesVlogResolvedValues) {
  const std::string dir = FreshDir("sharded");
  DbOptions dbopts = TinyVlogOptions();
  dbopts.shards = 2;
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  std::map<Key, std::string> oracle;
  for (Key k = 0; k < 200; ++k) {
    const std::string payload = MakePayload(dbopts.options, k);
    ASSERT_TRUE(db.Put(k, payload).ok());
    oracle[k] = payload;
  }
  // Both shards actually took vlog writes.
  EXPECT_FALSE(Db::ListVlogSegments(Db::ShardDirPath(dir, 0)).empty());
  EXPECT_FALSE(Db::ListVlogSegments(Db::ShardDirPath(dir, 1)).empty());

  std::vector<std::pair<Key, std::string>> scanned;
  ASSERT_TRUE(db.Scan(0, 199, &scanned).ok());
  ASSERT_EQ(scanned.size(), oracle.size());
  Key prev = 0;
  for (size_t i = 0; i < scanned.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(scanned[i].first, prev);  // Merged in key order.
    }
    prev = scanned[i].first;
    EXPECT_EQ(scanned[i].second, oracle[scanned[i].first])
        << "key " << scanned[i].first;
  }
  // The facade's stats aggregate the per-shard vlog counters.
  const DbStats stats = db.Stats();
  EXPECT_GE(stats.vlog_segments, 2u);
  EXPECT_EQ(stats.vlog_bytes_appended, 200 * kEntryBytes);
}

TEST(DbVlogTest, BadVlogOptionsRejectedBeforeTouchingDisk) {
  const std::string dir = FreshDir("badopts");
  {
    DbOptions dbopts = TinyVlogOptions();
    dbopts.vlog_gc_ratio = 1.5;  // Must be in [0, 1).
    auto db_or = Db::Open(dbopts, dir);
    EXPECT_TRUE(db_or.status().IsInvalidArgument())
        << db_or.status().ToString();
    EXPECT_NE(db_or.status().message().find("vlog_gc_ratio"),
              std::string::npos)
        << db_or.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(dir));
  }
  {
    DbOptions dbopts = TinyVlogOptions();
    dbopts.options.vlog_value_threshold = 10;  // Must exceed pointer size.
    auto db_or = Db::Open(dbopts, dir);
    EXPECT_TRUE(db_or.status().IsInvalidArgument())
        << db_or.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(dir));
  }
}

}  // namespace
}  // namespace lsmssd
