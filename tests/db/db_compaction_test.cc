// Compaction pipeline at the Db layer: writes land in WAL + active
// memtable, and merges run on the compaction thread (background mode) or
// on the writer that sealed the memtable (inline mode). These tests exercise
// sealing, queue backpressure, wedge/unwedge, checkpoint/recovery
// interplay with queued memtables, and equivalence of the two modes.

#include <unistd.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/db/db.h"
#include "src/util/random.h"
#include "src/workload/driver.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;

std::string FreshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/dbc_" + tag + "_" +
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

DbOptions BgDbOptions() {
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.checkpoint_wal_bytes = 0;  // Manual checkpoints unless asked.
  dbopts.background_compaction = true;
  return dbopts;
}

TEST(DbCompactionTest, RejectsZeroQueueDepth) {
  DbOptions dbopts = BgDbOptions();
  dbopts.compaction_queue_depth = 0;
  auto db_or = Db::Open(dbopts, FreshDir("zdepth"));
  EXPECT_TRUE(db_or.status().IsInvalidArgument());
}

TEST(DbCompactionTest, RejectsCompactionWorkersOtherThanOne) {
  // One compaction thread per engine: any other count is refused, naming
  // the field, before a directory is created.
  for (const size_t workers : {0, 2, 4}) {
    DbOptions dbopts = BgDbOptions();
    dbopts.compaction_workers = workers;
    const std::string dir = FreshDir("workers");
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_FALSE(db_or.ok()) << workers;
    EXPECT_TRUE(db_or.status().IsInvalidArgument()) << workers;
    EXPECT_NE(db_or.status().message().find("compaction_workers"),
              std::string::npos)
        << db_or.status().ToString();
    EXPECT_NE(::access(dir.c_str(), F_OK), 0) << workers;
  }
}

TEST(DbCompactionTest, ThrottleCollapsesOnceQueueDrains) {
  // The soft throttle is a condvar wait with a queue-depth predicate, not
  // an unconditional sleep: a throttled writer resumes the moment the
  // worker pops below the threshold. With slowdown_micros set to five
  // SECONDS, a single full-penalty sleep would blow the wall-clock bound —
  // passing proves writers only ever wait out the actual drain time.
  DbOptions dbopts = BgDbOptions();
  dbopts.compaction_queue_depth = 4;
  dbopts.compaction_slowdown_depth = 1;
  dbopts.compaction_slowdown_micros = 5'000'000;
  auto db_or = Db::Open(dbopts, FreshDir("throttle"));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();

  const auto t0 = std::chrono::steady_clock::now();
  for (Key k = 0; k < 400; ++k) {  // ~10 seals at TinyOptions' 40/memtable.
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok()) << k;
  }
  ASSERT_TRUE(db.WaitForCompaction().ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  const DbStats stats = db.Stats();
  EXPECT_GT(stats.memtables_sealed, 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "a throttled writer served out the full slowdown penalty; "
         "throttle_events=" << stats.throttle_events
      << " throttle_micros=" << stats.throttle_micros;
  if (stats.throttle_events > 0) {
    EXPECT_LT(stats.throttle_micros / stats.throttle_events, 1'000'000u)
        << "average throttle wait should track drain time, not the penalty";
  }
  for (Key k = 0; k < 400; ++k) {
    ASSERT_TRUE(db.Get(k).ok()) << k;
  }
}

TEST(DbCompactionTest, WritesReadableWhileWorkerDrains) {
  const std::string dir = FreshDir("basic");
  const DbOptions dbopts = BgDbOptions();
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();

  // Several memtables' worth (TinyOptions seals every 40 records); reads
  // interleave with the worker and must always see every acked write.
  for (Key k = 0; k < 500; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok()) << k;
    if (k % 97 == 0) {
      auto v = db.Get(k);
      ASSERT_TRUE(v.ok()) << "key " << k;
    }
  }
  ASSERT_TRUE(db.Delete(123).ok());
  ASSERT_TRUE(db.WaitForCompaction().ok());

  const DbStats stats = db.Stats();
  EXPECT_GT(stats.memtables_sealed, 0u);
  EXPECT_GT(stats.background_flushes, 0u);
  EXPECT_EQ(stats.compaction_queue_depth, 0u);
  EXPECT_EQ(db.tree()->sealed_count(), 0u);
  ASSERT_TRUE(db.tree()->CheckInvariants(/*deep=*/true).ok());
  for (Key k = 0; k < 500; ++k) {
    auto v = db.Get(k);
    if (k == 123) {
      EXPECT_TRUE(v.status().IsNotFound());
    } else {
      ASSERT_TRUE(v.ok()) << "key " << k;
      EXPECT_EQ(v.value(), MakePayload(dbopts.options, k));
    }
  }
}

TEST(DbCompactionTest, MatchesInlineModeContents) {
  const DbOptions bg = BgDbOptions();
  DbOptions inline_opts = bg;
  inline_opts.background_compaction = false;

  const std::string bg_dir = FreshDir("eqbg");
  const std::string in_dir = FreshDir("eqin");
  auto bg_or = Db::Open(bg, bg_dir);
  auto in_or = Db::Open(inline_opts, in_dir);
  ASSERT_TRUE(bg_or.ok());
  ASSERT_TRUE(in_or.ok());

  Random rng(11);
  for (int i = 0; i < 2000; ++i) {
    const Key k = rng.Uniform(300);
    if (rng.Uniform(10) < 8) {
      const std::string payload = MakePayload(bg.options, k + i);
      ASSERT_TRUE(bg_or.value()->Put(k, payload).ok());
      ASSERT_TRUE(in_or.value()->Put(k, payload).ok());
    } else {
      ASSERT_TRUE(bg_or.value()->Delete(k).ok());
      ASSERT_TRUE(in_or.value()->Delete(k).ok());
    }
  }
  ASSERT_TRUE(bg_or.value()->WaitForCompaction().ok());

  std::vector<std::pair<Key, std::string>> a, b;
  ASSERT_TRUE(bg_or.value()->Scan(0, 1000, &a).ok());
  ASSERT_TRUE(in_or.value()->Scan(0, 1000, &b).ok());
  EXPECT_EQ(a, b);
}

TEST(DbCompactionTest, InlineModeDrainsEveryOpToRest) {
  // Inline mode runs the background pipeline's steps on the writer: after
  // every op the sealed queue is empty, the L0 buffer is below K0 * B,
  // and every level is within capacity — the paper's at-rest shape. The
  // memory held is bounded too: active memtable plus L0 buffer stay
  // under 2 * K0 * B records (LsmTree::Put holds at most K0 * B).
  DbOptions dbopts = BgDbOptions();
  dbopts.background_compaction = false;
  auto db_or = Db::Open(dbopts, FreshDir("inlinerest"));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  const Options& options = dbopts.options;
  const uint64_t k0_records =
      options.level0_capacity_blocks * options.records_per_block();

  std::map<Key, std::string> oracle;
  Random rng(20261017);
  for (int i = 0; i < 1500; ++i) {
    const Key k = rng.Uniform(400);
    if (rng.Uniform(5) == 0) {
      ASSERT_TRUE(db.Delete(k).ok());
      oracle.erase(k);
    } else {
      const std::string payload = MakePayload(options, k + i);
      ASSERT_TRUE(db.Put(k, payload).ok());
      oracle[k] = payload;
    }
    ASSERT_EQ(db.tree()->sealed_count(), 0u) << "op " << i;
    ASSERT_LT(db.tree()->l0_buffer_records(), k0_records) << "op " << i;
    ASSERT_LT(db.tree()->active_memtable_records() +
                  db.tree()->l0_buffer_records(),
              2 * k0_records)
        << "op " << i;
    ASSERT_TRUE(db.tree()->CheckInvariants(/*deep=*/true).ok()) << "op " << i;
  }

  const DbStats stats = db.Stats();
  EXPECT_GT(stats.memtables_sealed, 0u);
  EXPECT_EQ(stats.background_flushes, stats.memtables_sealed);
  EXPECT_GT(stats.background_merges, 0u);
  EXPECT_EQ(stats.compaction_queue_depth, 0u);
  std::vector<std::pair<Key, std::string>> got;
  ASSERT_TRUE(db.Scan(0, 1000, &got).ok());
  const std::vector<std::pair<Key, std::string>> want(oracle.begin(),
                                                      oracle.end());
  EXPECT_EQ(got, want);
}

TEST(DbCompactionTest, WedgedInlineWriterRetriesDrainOnNextOp) {
  // A full device wedges an inline writer's drain. Each later op retries
  // the drain itself and reports the backpressure again — it never waits
  // for a worker (no stall, no throttle) — and the first op after the cap
  // is lifted drains back to rest.
  DbOptions dbopts = BgDbOptions();
  dbopts.background_compaction = false;
  dbopts.max_device_blocks = 2;  // Far too small for any L0 spill.
  auto db_or = Db::Open(dbopts, FreshDir("inlinewedge"));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();

  Key next = 0;
  Status st;
  for (; next < 1000 && st.ok(); ++next) {
    st = db.Put(next, MakePayload(dbopts.options, next));
  }
  ASSERT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_FALSE(db.failed());
  for (int retry = 0; retry < 3; ++retry, ++next) {
    const uint64_t events = db.Stats().write_backpressure_events;
    EXPECT_TRUE(
        db.Put(next, MakePayload(dbopts.options, next)).IsResourceExhausted());
    EXPECT_EQ(db.Stats().write_backpressure_events, events + 1);
  }
  EXPECT_EQ(db.Stats().stall_events, 0u);
  EXPECT_EQ(db.Stats().throttle_events, 0u);

  db.SetMaxDeviceBlocks(0);
  ASSERT_TRUE(db.Put(next, MakePayload(dbopts.options, next)).ok());
  EXPECT_EQ(db.tree()->sealed_count(), 0u);
  ASSERT_TRUE(db.tree()->CheckInvariants(/*deep=*/true).ok());
  for (Key k = 0; k <= next; ++k) {
    ASSERT_TRUE(db.Get(k).ok()) << "key " << k;
  }
}

TEST(DbCompactionTest, ReopenRecoversAckedWritesIncludingQueuedOnes) {
  const std::string dir = FreshDir("reopen");
  const DbOptions dbopts = BgDbOptions();
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    for (Key k = 0; k < 300; ++k) {
      ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
    }
    // Close without quiescing: sealed memtables may still be queued. All
    // 300 writes were acked under kAlways, so reopen must restore them.
  }
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    for (Key k = 0; k < 300; ++k) {
      auto v = db.Get(k);
      ASSERT_TRUE(v.ok()) << "key " << k;
      EXPECT_EQ(v.value(), MakePayload(dbopts.options, k));
    }
  }
}

TEST(DbCompactionTest, CheckpointPersistsQueuedMemtables) {
  const std::string dir = FreshDir("ckptq");
  DbOptions dbopts = BgDbOptions();
  // Deep queue + no slowdown: maximize the chance sealed memtables are
  // still queued when the checkpoint snapshots the tree.
  dbopts.compaction_queue_depth = 8;
  dbopts.compaction_slowdown_depth = 0;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    for (Key k = 0; k < 400; ++k) {
      ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
    }
    // The checkpoint deletes the WAL segments covering these writes, so
    // the manifest MUST carry the queued (sealed but unflushed) records.
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    EXPECT_EQ(db.Stats().recovery_wal_entries_replayed, 0u);
    for (Key k = 0; k < 400; ++k) {
      auto v = db.Get(k);
      ASSERT_TRUE(v.ok()) << "key " << k;
      EXPECT_EQ(v.value(), MakePayload(dbopts.options, k));
    }
    ASSERT_TRUE(db.WaitForCompaction().ok());
    ASSERT_TRUE(db.tree()->CheckInvariants(/*deep=*/true).ok());
  }
}

TEST(DbCompactionTest, FullDeviceWedgesThenUnwedges) {
  const std::string dir = FreshDir("wedge");
  DbOptions dbopts = BgDbOptions();
  dbopts.compaction_queue_depth = 1;
  dbopts.compaction_slowdown_depth = 0;  // No throttling noise.
  dbopts.max_device_blocks = 2;          // Far too small for any flush.
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();

  // Fill until backpressure: the first seal kicks a flush that hits the
  // cap; once the queue is full AND the worker is wedged, a writer that
  // must seal is refused with ResourceExhausted BEFORE the WAL append.
  Key next = 0;
  Status refused;
  for (; next < 1000; ++next) {
    Status st = db.Put(next, MakePayload(dbopts.options, next));
    if (!st.ok()) {
      refused = st;
      break;
    }
  }
  ASSERT_TRUE(refused.IsResourceExhausted()) << refused.ToString();
  ASSERT_LT(next, 1000u) << "backpressure never engaged";
  EXPECT_FALSE(db.failed());  // Backpressure, not poison.
  EXPECT_GT(db.Stats().write_backpressure_events, 0u);
  // WaitForCompaction surfaces the wedge instead of hanging.
  EXPECT_TRUE(db.WaitForCompaction().IsResourceExhausted());

  // Every acked write is still readable (flush failure rolled back).
  for (Key k = 0; k < next; ++k) {
    ASSERT_TRUE(db.Get(k).ok()) << "key " << k;
  }
  // The refused op was never logged nor applied.
  EXPECT_TRUE(db.Get(next).status().IsNotFound());

  // Raising the cap unwedges: the retried op lands and the queue drains.
  db.SetMaxDeviceBlocks(0);
  ASSERT_TRUE(db.Put(next, MakePayload(dbopts.options, next)).ok());
  ASSERT_TRUE(db.WaitForCompaction().ok());
  EXPECT_EQ(db.Stats().compaction_queue_depth, 0u);
  for (Key k = 0; k <= next; ++k) {
    ASSERT_TRUE(db.Get(k).ok()) << "key " << k;
  }
  ASSERT_TRUE(db.tree()->CheckInvariants(/*deep=*/true).ok());
}

TEST(DbCompactionTest, IteratorHoldsConsistentSnapshot) {
  const std::string dir = FreshDir("iter");
  const DbOptions dbopts = BgDbOptions();
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
  }
  auto it = db.NewIterator();
  ASSERT_NE(it, nullptr);
  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->key(), n);
    ++n;
  }
  EXPECT_EQ(n, 100u);
  ASSERT_TRUE(it->status().ok());
}

TEST(DbCompactionTest, StatsLineCarriesCompactionFields) {
  const std::string dir = FreshDir("stats");
  const DbOptions dbopts = BgDbOptions();
  auto db_or = Db::Open(dbopts, dir);
  ASSERT_TRUE(db_or.ok());
  Db& db = *db_or.value();
  for (Key k = 0; k < 200; ++k) {
    ASSERT_TRUE(db.Put(k, MakePayload(dbopts.options, k)).ok());
  }
  ASSERT_TRUE(db.WaitForCompaction().ok());
  const std::string s = db.Stats().ToString();
  EXPECT_NE(s.find("compaction:"), std::string::npos);
  EXPECT_NE(s.find("bg_flushes="), std::string::npos);
  EXPECT_NE(s.find("queue_depth=0"), std::string::npos);
  EXPECT_NE(s.find("stall_latency_us:"), std::string::npos);
}

TEST(DbCompactionTest, SyncModeNoneStillRecoversAfterCleanClose) {
  const std::string dir = FreshDir("nosync");
  DbOptions dbopts = BgDbOptions();
  dbopts.wal_sync_mode = WalSyncMode::kNone;
  std::map<Key, std::string> oracle;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    Random rng(3);
    for (int i = 0; i < 1000; ++i) {
      const Key k = rng.Uniform(150);
      if (rng.Uniform(5) == 0) {
        ASSERT_TRUE(db.Delete(k).ok());
        oracle.erase(k);
      } else {
        const std::string payload = MakePayload(dbopts.options, k + i);
        ASSERT_TRUE(db.Put(k, payload).ok());
        oracle[k] = payload;
      }
    }
  }  // Clean close syncs the WAL tail.
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    Db& db = *db_or.value();
    std::vector<std::pair<Key, std::string>> got;
    ASSERT_TRUE(db.Scan(0, 1000, &got).ok());
    std::vector<std::pair<Key, std::string>> want(oracle.begin(),
                                                  oracle.end());
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace lsmssd
