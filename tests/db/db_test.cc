#include "src/db/db.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/lsm/wal.h"
#include "src/workload/driver.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;

/// Fresh per-test Db directory under the gtest temp dir.
std::string FreshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/db_" + tag + "_" +
                          std::to_string(::getpid());
  ::unlink(Db::ManifestPath(dir).c_str());
  ::unlink(Db::ManifestTmpPath(dir).c_str());
  ::unlink(Db::DevicePath(dir).c_str());
  ::unlink(Db::ChecksumPath(dir).c_str());
  ::unlink(Db::WalPath(dir).c_str());
  for (const std::string& seg : Db::ListWalSegments(dir)) {
    ::unlink(seg.c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

DbOptions TinyDbOptions() {
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.checkpoint_wal_bytes = 0;  // Manual checkpoints unless asked.
  return dbopts;
}

TEST(DbTest, OpenPutGetReopenRecoversFromWalAlone) {
  const std::string dir = FreshDir("walonly");
  const DbOptions dbopts = TinyDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    for (Key k = 0; k < 50; ++k) {
      ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
    }
    ASSERT_TRUE(db.Delete(7).ok());
    auto v = db.Get(3);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), MakePayload(dbopts.options, 3));
  }  // No checkpoint was ever taken: recovery is pure WAL replay.
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    EXPECT_EQ(db.Stats().recovery_wal_entries_replayed, 51u);
    EXPECT_EQ(db.Stats().recovery_manifest_blocks, 0u);
    for (Key k = 0; k < 50; ++k) {
      auto v = db.Get(k);
      if (k == 7) {
        EXPECT_TRUE(v.status().IsNotFound());
      } else {
        ASSERT_TRUE(v.ok()) << "key " << k;
        EXPECT_EQ(v.value(), MakePayload(dbopts.options, k));
      }
    }
  }
}

TEST(DbTest, CheckpointTruncatesWalAndReopenUsesManifest) {
  const std::string dir = FreshDir("ckpt");
  const DbOptions dbopts = TinyDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    // Enough data to spill well past L0 (merges allocate real blocks).
    for (Key k = 0; k < 600; ++k) {
      ASSERT_TRUE(db.Put(k * 3, MakePayload(dbopts.options, k * 3)).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_EQ(db.Stats().checkpoints, 1u);
    // Post-checkpoint tail.
    for (Key k = 0; k < 20; ++k) {
      ASSERT_TRUE(
          db.Put(10'000 + k, MakePayload(dbopts.options, 10'000 + k)).ok());
    }
  }
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    const DbStats stats = db.Stats();
    EXPECT_GT(stats.recovery_manifest_blocks, 0u);
    EXPECT_EQ(stats.recovery_wal_entries_replayed, 20u);  // Tail only.
    for (Key k = 0; k < 600; ++k) {
      ASSERT_TRUE(db.Get(k * 3).ok()) << "key " << k * 3;
    }
    for (Key k = 0; k < 20; ++k) {
      ASSERT_TRUE(db.Get(10'000 + k).ok());
    }
    ASSERT_TRUE(db.tree()->CheckInvariants(true).ok());
  }
}

TEST(DbTest, AutoCheckpointFiresOnWalSize) {
  const std::string dir = FreshDir("auto");
  DbOptions dbopts = TinyDbOptions();
  dbopts.checkpoint_wal_bytes = 2048;  // ~55 tiny entries.
  dbopts.background_checkpoint = false;  // Deterministic counts.
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  for (Key k = 0; k < 400; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
  }
  EXPECT_GT(db.Stats().checkpoints, 2u);
  // The WAL threshold also bounds replay work on the next open.
  auto reopened = Db::Open(dbopts, dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_LT(reopened.value()->Stats().recovery_wal_entries_replayed, 60u);
}

TEST(DbTest, AutoCheckpointCountsRecoveredWalBytes) {
  const std::string dir = FreshDir("autorec");
  DbOptions dbopts = TinyDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 0; k < 100; ++k) {
      ASSERT_TRUE(
          db_or.value()->Put(k, MakePayload(dbopts.options, k)).ok());
    }
  }  // ~3.7KB of WAL left behind.
  dbopts.checkpoint_wal_bytes = 2048;
  dbopts.background_checkpoint = false;  // Deterministic counts.
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  // The recovered tail already exceeds the threshold: the first
  // modification triggers a checkpoint rather than letting the log grow
  // unboundedly across restart loops.
  ASSERT_TRUE(db_or.value()->Put(500, MakePayload(dbopts.options, 500)).ok());
  EXPECT_EQ(db_or.value()->Stats().checkpoints, 1u);
}

TEST(DbTest, ScanAndIteratorSeeWalRecoveredState) {
  const std::string dir = FreshDir("scan");
  const DbOptions dbopts = TinyDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 1; k <= 30; ++k) {
      ASSERT_TRUE(
          db_or.value()->Put(k * 2, MakePayload(dbopts.options, k * 2)).ok());
    }
    ASSERT_TRUE(db_or.value()->Delete(10).ok());
  }
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  std::vector<std::pair<Key, std::string>> got;
  ASSERT_TRUE(db_or.value()->Scan(0, 100, &got).ok());
  EXPECT_EQ(got.size(), 29u);  // 30 puts minus the deleted key 10.
  size_t n = 0;
  auto it = db_or.value()->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++n;
  EXPECT_EQ(n, 29u);
}

TEST(DbTest, RejectsInvalidConfigurations) {
  const std::string dir = FreshDir("badopts");
  struct Case {
    const char* name;
    void (*mutate)(DbOptions&);
    const char* expect_substring;  // Must appear in the error message.
  };
  const Case kCases[] = {
      {"tree options must validate",
       [](DbOptions& o) { o.options.gamma = 1.0; }, ""},
      {"annihilate_delete_put breaks blind replay",
       [](DbOptions& o) { o.options.annihilate_delete_put = true; },
       "annihilate"},
      {"kEveryN with a zero batch never syncs",
       [](DbOptions& o) {
         o.wal_sync_mode = WalSyncMode::kEveryN;
         o.wal_sync_every_n = 0;
       },
       "wal_sync_every_n"},
      {"checkpoint threshold of one byte checkpoints every op",
       [](DbOptions& o) { o.checkpoint_wal_bytes = 1; },
       "checkpoint_wal_bytes"},
      {"checkpoint threshold under two entries checkpoints every op",
       [](DbOptions& o) { o.checkpoint_wal_bytes = 40; },
       "checkpoint_wal_bytes"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    DbOptions dbopts = TinyDbOptions();
    c.mutate(dbopts);
    const Status st = Db::Open(dbopts, dir).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find(c.expect_substring), std::string::npos)
        << st.message();
    struct ::stat unused;
    EXPECT_NE(::stat(dir.c_str(), &unused), 0)
        << "rejected Open must not leave a directory behind";
  }
  // Boundary: exactly two max-size framed entries (8B frame + 1B type +
  // 8B key + payload) is the smallest accepted threshold; 0 disables.
  DbOptions ok = TinyDbOptions();
  ok.checkpoint_wal_bytes = 2 * (4 + 4 + 1 + 8 + ok.options.payload_size);
  ok.background_checkpoint = false;
  EXPECT_TRUE(Db::Open(ok, dir).ok());
}

TEST(DbTest, CreateIfMissingAndErrorIfExists) {
  const std::string dir = FreshDir("flags");
  DbOptions dbopts = TinyDbOptions();
  dbopts.create_if_missing = false;
  EXPECT_TRUE(Db::Open(dbopts, dir).status().IsNotFound());

  dbopts.create_if_missing = true;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    ASSERT_TRUE(db_or.value()->Put(1, MakePayload(dbopts.options, 1)).ok());
    ASSERT_TRUE(db_or.value()->Checkpoint().ok());
  }
  dbopts.error_if_exists = true;
  EXPECT_EQ(Db::Open(dbopts, dir).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DbTest, ErrorIfExistsCatchesPreCheckpointLeftovers) {
  const std::string dir = FreshDir("flags2");
  DbOptions dbopts = TinyDbOptions();
  {  // Crash before the first checkpoint: wal.log exists, MANIFEST not.
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    ASSERT_TRUE(db_or.value()->Put(1, MakePayload(dbopts.options, 1)).ok());
  }
  struct ::stat st;
  ASSERT_NE(::stat(Db::ManifestPath(dir).c_str(), &st), 0);  // No manifest.
  dbopts.error_if_exists = true;
  EXPECT_EQ(Db::Open(dbopts, dir).status().code(),
            StatusCode::kFailedPrecondition);
  // Without the flag, the leftover WAL is recoverable state, not a
  // fresh directory to silently replay into.
  dbopts.error_if_exists = false;
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  EXPECT_TRUE(db_or.value()->Get(1).ok());
}

TEST(DbTest, MidWalCorruptionFailsOpenInsteadOfTruncating) {
  // Bit rot in an early WAL batch must not make Open silently truncate
  // away the later (synced, acknowledged) batches behind it.
  const std::string dir = FreshDir("rot");
  const DbOptions dbopts = TinyDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 0; k < 10; ++k) {
      ASSERT_TRUE(db_or.value()->Put(k, MakePayload(dbopts.options, k)).ok());
    }
  }
  {  // Flip one byte in the first batch's body: the file header is bytes
     // [0, 8), the batch header [8, 16), key 0's tag and length 16 and 17,
     // and its payload starts at 18 (kAlways: one batch per Put).
    std::fstream f(Db::WalPath(dir),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(20);
    char c = static_cast<char>(f.get());
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  auto db_or = Db::Open(dbopts, dir);
  EXPECT_TRUE(db_or.status().IsCorruption()) << db_or.status().ToString();
}

TEST(DbTest, OldFormatWalFailsOpenAndChangesNoFile) {
  // A wal.log in the older per-entry format (no v2 file header) is
  // refused with Corruption naming the format, before Open touches any
  // file: not the log, not the device, not even a stale MANIFEST.tmp.
  const std::string dir = FreshDir("oldwal");
  const DbOptions dbopts = TinyDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 0; k < 40; ++k) {
      ASSERT_TRUE(db_or.value()->Put(k, MakePayload(dbopts.options, k)).ok());
    }
    ASSERT_TRUE(db_or.value()->Checkpoint().ok());
  }
  // Two old-format entries: [u32 LE length][u32 LE FNV-1a of the rest]
  // [u8 type][u64 LE key][payload].
  std::string old_log;
  for (Key k : {Key{41}, Key{42}}) {
    std::string body(1, '\0');
    for (int i = 0; i < 8; ++i) body.push_back(static_cast<char>(k >> (8 * i)));
    body += MakePayload(dbopts.options, k);
    uint32_t fnv = 2166136261u;
    for (char c : body) {
      fnv ^= static_cast<uint8_t>(c);
      fnv *= 16777619u;
    }
    for (uint32_t v : {static_cast<uint32_t>(body.size()), fnv}) {
      for (int i = 0; i < 4; ++i) {
        old_log.push_back(static_cast<char>(v >> (8 * i)));
      }
    }
    old_log += body;
  }
  {
    std::ofstream out(Db::WalPath(dir), std::ios::binary | std::ios::trunc);
    out.write(old_log.data(), static_cast<std::streamsize>(old_log.size()));
    std::ofstream tmp(Db::ManifestTmpPath(dir), std::ios::binary);
    tmp << "half-written checkpoint";
  }
  auto snapshot = [&dir] {
    std::map<std::string, std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(e.path(), std::ios::binary);
      files[e.path().filename().string()] =
          std::string(std::istreambuf_iterator<char>(in), {});
    }
    return files;
  };
  const auto before = snapshot();
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.status().IsCorruption()) << db_or.status().ToString();
  EXPECT_NE(db_or.status().message().find("format"), std::string::npos)
      << db_or.status().message();
  EXPECT_EQ(snapshot(), before);
}

TEST(DbTest, BadModificationsAreRejectedBeforeLogging) {
  const std::string dir = FreshDir("reject");
  const DbOptions dbopts = TinyDbOptions();
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  EXPECT_TRUE(db.Put(1, "short").IsInvalidArgument());
  EXPECT_TRUE(db.Put(uint64_t{1} << 40, MakePayload(dbopts.options, 1))
                  .IsInvalidArgument());  // key_size = 4 bytes.
  EXPECT_FALSE(db.failed());  // Caller error, not a durability error.
  // The rejected requests were never logged: nothing replays.
  EXPECT_EQ(db.Stats().wal_entries_appended, 0u);
}

TEST(DbTest, TornWalTailFromHardKillIsTolerated) {
  const std::string dir = FreshDir("torn");
  const DbOptions dbopts = TinyDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 0; k < 10; ++k) {
      ASSERT_TRUE(db_or.value()->Put(k, MakePayload(dbopts.options, k)).ok());
    }
  }
  {  // Simulate a torn final append: half an entry of garbage.
    std::ofstream out(Db::WalPath(dir),
                      std::ios::binary | std::ios::app);
    out.write("\x20\x00\x00\x00\xde\xad", 6);
  }
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  EXPECT_EQ(db_or.value()->Stats().recovery_wal_entries_replayed, 10u);
  // And the Db keeps working, appending cleanly after recovery.
  ASSERT_TRUE(
      db_or.value()->Put(99, MakePayload(dbopts.options, 99)).ok());
  auto reopened = Db::Open(dbopts, dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value()->Get(99).ok());
}

TEST(DbTest, StaleManifestTmpIsIgnored) {
  const std::string dir = FreshDir("tmp");
  const DbOptions dbopts = TinyDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    ASSERT_TRUE(db_or.value()->Put(1, MakePayload(dbopts.options, 1)).ok());
    ASSERT_TRUE(db_or.value()->Checkpoint().ok());
  }
  {  // A checkpoint that died before its rename leaves a garbage tmp.
    std::ofstream out(Db::ManifestTmpPath(dir), std::ios::binary);
    out.write("garbage", 7);
  }
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  EXPECT_TRUE(db_or.value()->Get(1).ok());
  struct ::stat st;
  EXPECT_NE(::stat(Db::ManifestTmpPath(dir).c_str(), &st), 0);  // Gone.
}

TEST(DbTest, StoredFormatOptionsAreAuthoritativeOnReopen) {
  const std::string dir = FreshDir("fmt");
  DbOptions dbopts = TinyDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    ASSERT_TRUE(db_or.value()->Put(1, MakePayload(dbopts.options, 1)).ok());
    ASSERT_TRUE(db_or.value()->Checkpoint().ok());
  }
  // Ask for an incompatible format; the stored one must win.
  DbOptions other = dbopts;
  other.options.block_size = 512;
  other.options.payload_size = 40;
  other.options.cache_blocks = 8;  // Runtime-only: honored.
  auto db_or = Db::Open(other, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  EXPECT_EQ(db_or.value()->options().block_size, 256u);
  EXPECT_EQ(db_or.value()->options().payload_size, 20u);
  EXPECT_EQ(db_or.value()->options().cache_blocks, 8u);
  EXPECT_TRUE(db_or.value()->Get(1).ok());
}

TEST(DbTest, GroupCommitAndNoneModesAckWithoutSyncing) {
  const std::string dir = FreshDir("modes");
  DbOptions dbopts = TinyDbOptions();
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 10;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 0; k < 25; ++k) {
      ASSERT_TRUE(db_or.value()->Put(k, MakePayload(dbopts.options, k)).ok());
    }
    EXPECT_EQ(db_or.value()->Stats().wal_syncs, 2u);  // At 10 and 20.
    ASSERT_TRUE(db_or.value()->SyncWal().ok());
    EXPECT_EQ(db_or.value()->Stats().wal_syncs, 3u);
  }
  dbopts.wal_sync_mode = WalSyncMode::kNone;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (Key k = 100; k < 120; ++k) {
      ASSERT_TRUE(db_or.value()->Put(k, MakePayload(dbopts.options, k)).ok());
    }
    EXPECT_EQ(db_or.value()->Stats().wal_syncs, 0u);
  }  // Destructor syncs best-effort; a clean close loses nothing.
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  for (Key k = 100; k < 120; ++k) EXPECT_TRUE(db_or.value()->Get(k).ok());
}

TEST(DbTest, StatsSurfaceIoAndWalCounters) {
  const std::string dir = FreshDir("stats");
  DbOptions dbopts = TinyDbOptions();
  dbopts.options.cache_blocks = 16;
  dbopts.options.bloom_bits_per_key = 10;
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  for (Key k = 0; k < 500; ++k) {
    ASSERT_TRUE(db.Put(k * 2, MakePayload(dbopts.options, k * 2)).ok());
  }
  for (Key k = 0; k < 200; ++k) (void)db.Get(k * 2);
  for (Key k = 0; k < 200; ++k) (void)db.Get(k * 2 + 1);  // Bloom misses.
  const DbStats stats = db.Stats();
  EXPECT_GT(stats.io.block_writes(), 0u);
  EXPECT_GT(stats.io.cache_hits() + stats.io.cache_misses(), 0u);
  EXPECT_GT(stats.io.bloom_skips(), 0u);
  EXPECT_EQ(stats.wal_entries_appended, 500u);
  // kAlways: one batch per Put, 8-byte batch header + tag + 1-2 key
  // bytes + 1-byte length + 20-byte payload; plus the file header.
  EXPECT_GE(stats.wal_bytes_appended, 8u + 500u * 31u);
  EXPECT_LE(stats.wal_bytes_appended, 8u + 500u * 32u);
  // Every byte counted is a byte of the log file, headers included.
  EXPECT_EQ(stats.wal_bytes_appended,
            std::filesystem::file_size(Db::WalPath(dir)));
  EXPECT_EQ(stats.wal_syncs, 500u);  // kAlways.
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("wal:"), std::string::npos);
  EXPECT_NE(text.find("recovery:"), std::string::npos);
}

TEST(DbTest, LargeWorkloadWithMergesSurvivesManyReopens) {
  const std::string dir = FreshDir("large");
  DbOptions dbopts = TinyDbOptions();
  dbopts.checkpoint_wal_bytes = 4096;
  dbopts.background_checkpoint = false;  // tree() checks need quiescence.
  std::map<Key, bool> model;  // key -> live?
  for (int round = 0; round < 5; ++round) {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    for (Key i = 0; i < 300; ++i) {
      const Key k = (static_cast<Key>(round) * 131 + i * 7) % 2000;
      if (i % 5 == 4) {
        ASSERT_TRUE(db.Delete(k).ok());
        model[k] = false;
      } else {
        ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
        model[k] = true;
      }
    }
    ASSERT_TRUE(db.tree()->CheckInvariants(true).ok());
  }
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  for (const auto& [k, live] : model) {
    auto v = db_or.value()->Get(k);
    if (live) {
      ASSERT_TRUE(v.ok()) << "lost key " << k;
      EXPECT_EQ(v.value(), MakePayload(dbopts.options, k));
    } else {
      EXPECT_TRUE(v.status().IsNotFound()) << "ghost key " << k;
    }
  }
}

TEST(DbTest, BackgroundCheckpointRunsOffTheWriterThread) {
  const std::string dir = FreshDir("bg");
  DbOptions dbopts = TinyDbOptions();
  dbopts.checkpoint_wal_bytes = 2048;
  dbopts.background_checkpoint = true;  // The default, spelled out.
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    for (Key k = 0; k < 400; ++k) {
      ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
    }
    // Writers only *request* checkpoints; the maintenance thread runs
    // them asynchronously. Give it a moment (typically instant).
    for (int i = 0; i < 2000 && db.Stats().checkpoints == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GT(db.Stats().checkpoints, 0u);
    EXPECT_FALSE(db.failed());
    db.Close();  // Idempotent; the destructor calls it again.
  }
  auto reopened = Db::Open(dbopts, dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const DbStats stats = reopened.value()->Stats();
  EXPECT_GT(stats.recovery_manifest_blocks, 0u);
  EXPECT_LT(stats.recovery_wal_entries_replayed, 400u);
  for (Key k = 0; k < 400; ++k) {
    ASSERT_TRUE(reopened.value()->Get(k).ok()) << "key " << k;
  }
}

// Payload naming the writer and its op number, padded to payload_size.
std::string VersionPayload(const Options& options, int writer, int op) {
  std::string p = std::to_string(writer) + ":" + std::to_string(op) + ":";
  p.resize(options.payload_size, '.');
  return p;
}

TEST(DbTest, GroupCommitKeepsAppendOrderUnderConcurrentWriters) {
  // Every WAL write happens inside one group-commit round at a time, so
  // the log holds entries in append order even while four writers race
  // batches of N = 3, a thread forces extra rounds through SyncWal, and
  // background checkpoints rotate the log mid-run. Each writer's ops
  // carry their op number: the surviving log must hold each writer's ops
  // as one consecutive run, and a reopen must see every key's last
  // acknowledged version. Each writer waits at its halfway mark for the
  // first background checkpoint to finish, so at least one rotation lands
  // between writes however the threads are scheduled (a checkpoint's
  // manifest write can outlast the whole run).
  const std::string dir = FreshDir("gcorder");
  DbOptions dbopts = TinyDbOptions();
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 3;
  dbopts.checkpoint_wal_bytes = 4096;  // Rotations land mid-run.
  dbopts.background_checkpoint = true;
  constexpr int kWriters = 4;
  constexpr int kOps = 1500;
  constexpr int kKeysPerWriter = 16;
  const auto key_of = [](int writer, int op) {
    return static_cast<Key>(writer * 1000 + op % kKeysPerWriter + 1);
  };
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    std::atomic<int> failures{0};
    std::atomic<int> writers_left{kWriters};
    const auto first_checkpoint_done = [&db] {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (db.Stats().checkpoints == 0) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      return true;
    };
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < kOps; ++i) {
          if ((i == kOps / 2 && !first_checkpoint_done()) ||
              !db.Put(key_of(w, i), VersionPayload(dbopts.options, w, i))
                   .ok()) {
            ++failures;
            break;
          }
        }
        --writers_left;
      });
    }
    threads.emplace_back([&] {
      while (writers_left.load() > 0) {
        if (!db.SyncWal().ok()) {
          ++failures;
          return;
        }
      }
    });
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);
    EXPECT_GT(db.Stats().checkpoints, 0u);
    db.Close();  // Writes out the commit buffer.

    // The rotated segments (if a checkpoint was cut short) and the
    // active log, in replay order, hold a suffix of the append order.
    std::vector<std::string> logs = Db::ListWalSegments(dir);
    logs.push_back(Db::WalPath(dir));
    std::vector<int> last_op(kWriters, -1);
    size_t entries = 0;
    for (const std::string& path : logs) {
      auto records = WalReader::ReadAll(path);
      ASSERT_TRUE(records.ok()) << records.status().ToString();
      for (const Record& r : records.value()) {
        int w = -1;
        int op = -1;
        ASSERT_EQ(std::sscanf(r.payload.c_str(), "%d:%d:", &w, &op), 2);
        ASSERT_GE(w, 0);
        ASSERT_LT(w, kWriters);
        ASSERT_EQ(r.key, key_of(w, op));
        if (last_op[w] >= 0) {
          ASSERT_EQ(op, last_op[w] + 1) << "writer " << w << " in " << path;
        }
        last_op[w] = op;
        ++entries;
      }
    }
    for (int w = 0; w < kWriters; ++w) {
      if (last_op[w] >= 0) EXPECT_EQ(last_op[w], kOps - 1) << "writer " << w;
    }
    EXPECT_LT(entries, size_t{kWriters} * kOps);  // Checkpoints covered some.
  }
  auto reopened = Db::Open(dbopts, dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (int w = 0; w < kWriters; ++w) {
    for (int slot = 0; slot < kKeysPerWriter; ++slot) {
      int last = kOps - 1;
      while (last % kKeysPerWriter != slot) --last;
      auto v = reopened.value()->Get(key_of(w, slot));
      ASSERT_TRUE(v.ok()) << "writer " << w << " slot " << slot;
      EXPECT_EQ(v.value(), VersionPayload(dbopts.options, w, last));
    }
  }
}

TEST(DbTest, InjectedWalFaultPoisonsTheInstanceUntilReopen) {
  const std::string dir = FreshDir("poison");
  DbOptions dbopts = TinyDbOptions();
  FaultInjector fi;
  dbopts.fault_injector = &fi;
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  ASSERT_TRUE(db.Put(1, MakePayload(dbopts.options, 1)).ok());

  fi.Arm(0);  // Next durable step (the WAL append) dies.
  EXPECT_TRUE(db.Put(2, MakePayload(dbopts.options, 2)).IsIoError());
  EXPECT_TRUE(db.failed());
  EXPECT_EQ(db.Put(3, MakePayload(dbopts.options, 3)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Get(1).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.NewIterator(), nullptr);

  fi.Disarm();
  auto reopened = Db::Open(dbopts, dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->Get(1).ok());  // Acked+synced survives.
  EXPECT_TRUE(reopened.value()->Get(2).status().IsNotFound());
}

// Fills a Db so keys 1..kTryGetKeys sit in every tier: the levels, the
// L0 buffer and the active memtable; every seventh write deletes an
// earlier key.
constexpr Key kTryGetKeys = 600;
void FillEveryTier(Db& db, const DbOptions& dbopts) {
  for (Key k = 1; k <= kTryGetKeys; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
    if (k % 7 == 0) {
      ASSERT_TRUE(db.Delete(k - 3).ok());
    }
  }
}

// Uncontended, with every block in the buffer cache, TryGet is Get: the
// same answer wherever the key lives (active memtable, sealed memtable,
// L0 buffer, levels), for live keys, tombstones and keys never written,
// and no block read from the device.
TEST(DbTest, UncontendedTryGetMatchesGetInEveryTier) {
  const std::string dir = FreshDir("tryget");
  DbOptions dbopts = TinyDbOptions();
  dbopts.options.cache_blocks = 1 << 12;  // Write-through: all resident.
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  FillEveryTier(db, dbopts);
  auto expect_same = [&](const char* when) {
    const uint64_t reads = db.Stats().io.block_reads();
    for (Key k = 0; k <= kTryGetKeys + 5; ++k) {
      const std::optional<StatusOr<std::string>> tried = db.TryGet(k);
      const StatusOr<std::string> got = db.Get(k);
      ASSERT_TRUE(tried.has_value()) << when << " key " << k;
      ASSERT_EQ(tried->status().code(), got.status().code())
          << when << " key " << k;
      if (got.ok()) {
        EXPECT_EQ(tried->value(), got.value()) << when << " key " << k;
      }
    }
    EXPECT_EQ(db.Stats().io.block_reads(), reads) << when;
  };
  LsmTree& tree = *db.tree();
  ASSERT_GT(tree.num_levels(), 1u);
  ASSERT_GT(tree.l0_buffer_records(), 0u);
  ASSERT_NE(tree.FindInMemtables(kTryGetKeys), nullptr);  // Active.
  ASSERT_EQ(tree.sealed_count(), 0u);
  expect_same("active");
  // Diagnostic access: seal the active memtable in place, so its keys
  // are answered from a sealed memtable (no write follows to drain it).
  tree.SealMemtable();
  ASSERT_EQ(tree.sealed_count(), 1u);
  ASSERT_NE(tree.FindInMemtables(kTryGetKeys), nullptr);
  expect_same("sealed");
}

// TryGet reads no file: without a buffer cache a key in the levels is
// left to Get (nullopt) while memtable keys and keys outside every leaf
// are answered, and with the value log on every lookup is left to Get.
TEST(DbTest, TryGetLeavesDeviceAndValueLogReadsToGet) {
  for (const bool vlog : {false, true}) {
    SCOPED_TRACE(vlog ? "vlog on" : "vlog off");
    const std::string dir = FreshDir(vlog ? "tryget_io_vlog" : "tryget_io");
    DbOptions dbopts = TinyDbOptions();  // cache_blocks = 0.
    if (vlog) dbopts.options.vlog_value_threshold = 17;  // Every value.
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    FillEveryTier(db, dbopts);
    LsmTree& tree = *db.tree();
    ASSERT_GT(tree.num_levels(), 1u);
    const uint64_t reads = db.Stats().io.block_reads();
    size_t answered = 0, left = 0;
    for (Key k = 0; k <= kTryGetKeys + 5; ++k) {
      const std::optional<StatusOr<std::string>> tried = db.TryGet(k);
      if (vlog) {
        EXPECT_FALSE(tried.has_value()) << "key " << k;
        continue;
      }
      if (tree.FindInMemtables(k) != nullptr || k > kTryGetKeys) {
        EXPECT_TRUE(tried.has_value()) << "key " << k;
      }
      if (!tried.has_value()) {
        ++left;
        continue;
      }
      ++answered;
      const StatusOr<std::string> got = db.Get(k);
      ASSERT_EQ(tried->status().code(), got.status().code()) << "key " << k;
      if (got.ok()) {
        EXPECT_EQ(tried->value(), got.value()) << "key " << k;
      }
    }
    if (!vlog) {
      EXPECT_GT(answered, 0u);
      EXPECT_GT(left, 0u);
    }
    // Neither the TryGets nor the Gets of the keys they answered read a
    // block.
    EXPECT_EQ(db.Stats().io.block_reads(), reads);
  }
}

// TryGet reports "would block" instead of waiting: an open iterator pins
// the shared locks and a Put queues behind it for mem_mu_ exclusive;
// from then on every shared acquisition would wait for that writer.
TEST(DbTest, TryGetReportsWouldBlockWhileAWriterWaits) {
  const std::string dir = FreshDir("tryget_busy");
  const DbOptions dbopts = TinyDbOptions();
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  ASSERT_TRUE(db.Put(1, MakePayload(dbopts.options, 1)).ok());
  ASSERT_TRUE(db.TryGet(1).has_value());

  std::unique_ptr<Iterator> pin = db.NewIterator();
  ASSERT_NE(pin, nullptr);
  std::thread writer(
      [&] { EXPECT_TRUE(db.Put(2, MakePayload(dbopts.options, 2)).ok()); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool would_block = false;
  while (!would_block && std::chrono::steady_clock::now() < deadline) {
    would_block = !db.TryGet(1).has_value();
    if (!would_block) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(would_block) << "TryGet never saw the queued writer";
  pin.reset();
  writer.join();

  const std::optional<StatusOr<std::string>> after = db.TryGet(2);
  ASSERT_TRUE(after.has_value());
  ASSERT_TRUE(after->ok()) << after->status().ToString();
  EXPECT_EQ(after->value(), MakePayload(dbopts.options, 2));
}

}  // namespace
}  // namespace lsmssd
