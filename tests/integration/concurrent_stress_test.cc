// Concurrency stress for the Db facade: N writer threads and M reader
// threads hammer one Db (group commit, background checkpoints, manual
// checkpoints, iterators) and the final contents are checked against a
// serial oracle.
//
// Key-space partitioning makes the oracle exact without cross-thread
// ordering assumptions: writer w only touches keys congruent to w, so
// the expected final value of every key is decided entirely by that
// writer's own (deterministic) op sequence, whatever the interleaving.
//
// Run under TSan (see .github/workflows/ci.yml) this doubles as the
// data-race check for the whole Db locking layer.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/db/db.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;

constexpr int kWriters = 4;
constexpr int kReaders = 3;
constexpr size_t kOpsPerWriter = 25'000;  // 100k modifications total.
constexpr Key kKeysPerWriter = 8'192;     // Bounded space => real rewrites.

std::string FreshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/stress_" + tag + "_" +
                          std::to_string(::getpid());
  ::unlink(Db::ManifestPath(dir).c_str());
  ::unlink(Db::ManifestTmpPath(dir).c_str());
  ::unlink(Db::DevicePath(dir).c_str());
  ::unlink(Db::WalPath(dir).c_str());
  for (const std::string& seg : Db::ListWalSegments(dir)) {
    ::unlink(seg.c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

struct Op {
  Key key;
  bool is_delete;
  Key payload_seed;
};

/// Writer w's deterministic op sequence over its own key residue class.
std::vector<Op> WriterOps(int w) {
  std::mt19937_64 rng(0x5eed + static_cast<uint64_t>(w));
  std::vector<Op> ops;
  ops.reserve(kOpsPerWriter);
  for (size_t i = 0; i < kOpsPerWriter; ++i) {
    const Key key =
        static_cast<Key>(w) + kWriters * static_cast<Key>(rng() % kKeysPerWriter);
    const bool is_delete = rng() % 8 == 0;
    // Op-unique payload: a lost or reordered rewrite changes bytes, not
    // just presence.
    ops.push_back({key, is_delete,
                   key ^ (static_cast<Key>(i + 1) << 32) ^
                       (static_cast<Key>(w) << 56)});
  }
  return ops;
}

TEST(ConcurrentStressTest, WritersReadersCheckpointsMatchSerialOracle) {
  const std::string dir = FreshDir("oracle");
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 32;  // Cross-thread group commit.
  dbopts.checkpoint_wal_bytes = 64 * 1024;  // Many background checkpoints.
  dbopts.background_checkpoint = true;

  // The serial oracle: per-writer replay over disjoint key sets.
  std::map<Key, std::string> expected;
  for (int w = 0; w < kWriters; ++w) {
    for (const Op& op : WriterOps(w)) {
      if (op.is_delete) {
        expected.erase(op.key);
      } else {
        expected[op.key] = MakePayload(dbopts.options, op.payload_seed);
      }
    }
  }

  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&db, &failures, w] {
        const std::vector<Op> ops = WriterOps(w);
        for (size_t i = 0; i < ops.size(); ++i) {
          const Op& op = ops[i];
          const Status st =
              op.is_delete
                  ? db.Delete(op.key)
                  : db.Put(op.key, MakePayload(db.options(), op.payload_seed));
          if (!st.ok()) {
            ADD_FAILURE() << "writer " << w << " op " << i << ": "
                          << st.ToString();
            failures.fetch_add(1);
            return;
          }
          // Sprinkle synchronous durability ops into the stream: manual
          // checkpoints serialize with background ones, SyncWal exercises
          // the force-sync path against concurrent group commits.
          if (w == 0 && (i + 1) % 10'000 == 0) {
            const Status ck = db.Checkpoint();
            if (!ck.ok()) {
              ADD_FAILURE() << "manual checkpoint: " << ck.ToString();
              failures.fetch_add(1);
              return;
            }
          }
          if (w == 1 && (i + 1) % 7'777 == 0 && !db.SyncWal().ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }

    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&db, &stop, &dbopts, r] {
        std::mt19937_64 rng(0xfeed + static_cast<uint64_t>(r));
        while (!stop.load(std::memory_order_relaxed)) {
          const Key key = static_cast<Key>(rng() % (kWriters * kKeysPerWriter));
          switch (rng() % 3) {
            case 0: {  // Point lookup: value, if present, is well-formed.
              auto v = db.Get(key);
              if (v.ok()) {
                EXPECT_EQ(v.value().size(), dbopts.options.payload_size);
              } else {
                EXPECT_TRUE(v.status().IsNotFound()) << v.status().ToString();
              }
              break;
            }
            case 1: {  // Range scan over a snapshot: sorted, unique keys.
              std::vector<std::pair<Key, std::string>> rows;
              ASSERT_TRUE(db.Scan(key, key + 64, &rows).ok());
              for (size_t i = 1; i < rows.size(); ++i) {
                EXPECT_LT(rows[i - 1].first, rows[i].first);
              }
              break;
            }
            case 2: {  // Iterator: holds the shared tree lock while open.
              auto it = db.NewIterator();
              ASSERT_NE(it, nullptr);
              int n = 0;
              for (it->Seek(key); it->Valid() && n < 32; it->Next(), ++n) {
                EXPECT_EQ(it->value().size(), dbopts.options.payload_size);
              }
              EXPECT_TRUE(it->status().ok()) << it->status().ToString();
              break;
            }
          }
        }
      });
    }

    for (std::thread& t : writers) t.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : readers) t.join();
    ASSERT_EQ(failures.load(), 0);
    ASSERT_FALSE(db.failed());

    // Quiesced: the live contents must equal the serial oracle.
    std::vector<std::pair<Key, std::string>> rows;
    ASSERT_TRUE(db.Scan(0, MaxKeyForSize(8), &rows).ok());
    const std::map<Key, std::string> got(rows.begin(), rows.end());
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_TRUE(got == expected) << "live contents diverge from the oracle";

    ASSERT_TRUE(db.Checkpoint().ok());
    db.Close();
    ASSERT_TRUE(db.tree()->CheckInvariants(true).ok());
  }

  // And the whole thing must round-trip through recovery.
  DbOptions verify = dbopts;
  verify.background_checkpoint = false;
  auto db_or = Db::Open(verify, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::vector<std::pair<Key, std::string>> rows;
  ASSERT_TRUE(db_or.value()->Scan(0, MaxKeyForSize(8), &rows).ok());
  const std::map<Key, std::string> recovered(rows.begin(), rows.end());
  EXPECT_TRUE(recovered == expected) << "recovered contents diverge";
  ASSERT_TRUE(db_or.value()->tree()->CheckInvariants(true).ok());
}

// Same writer/reader mix against a 4-shard Db: routing, the N-way scan
// merge, and four independent engines' compaction threads all run under
// the same serial-oracle check.
TEST(ConcurrentStressTest, ShardedWritersReadersScansMatchSerialOracle) {
  const std::string dir = ::testing::TempDir() + "/stress_sharded_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 32;
  dbopts.checkpoint_wal_bytes = 64 * 1024;
  dbopts.background_checkpoint = true;
  dbopts.background_compaction = true;
  dbopts.shards = 4;

  std::map<Key, std::string> expected;
  for (int w = 0; w < kWriters; ++w) {
    for (const Op& op : WriterOps(w)) {
      if (op.is_delete) {
        expected.erase(op.key);
      } else {
        expected[op.key] = MakePayload(dbopts.options, op.payload_seed);
      }
    }
  }

  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    ASSERT_EQ(db.shard_count(), 4u);

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&db, &failures, w] {
        const std::vector<Op> ops = WriterOps(w);
        for (size_t i = 0; i < ops.size(); ++i) {
          const Op& op = ops[i];
          const Status st =
              op.is_delete
                  ? db.Delete(op.key)
                  : db.Put(op.key, MakePayload(db.options(), op.payload_seed));
          if (!st.ok()) {
            ADD_FAILURE() << "writer " << w << " op " << i << ": "
                          << st.ToString();
            failures.fetch_add(1);
            return;
          }
          if (w == 0 && (i + 1) % 10'000 == 0 && !db.Checkpoint().ok()) {
            failures.fetch_add(1);
            return;
          }
          if (w == 1 && (i + 1) % 7'777 == 0 && !db.SyncWal().ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }

    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&db, &stop, &dbopts, r] {
        std::mt19937_64 rng(0xfeed + static_cast<uint64_t>(r));
        while (!stop.load(std::memory_order_relaxed)) {
          const Key key = static_cast<Key>(rng() % (kWriters * kKeysPerWriter));
          switch (rng() % 3) {
            case 0: {
              auto v = db.Get(key);
              if (v.ok()) {
                EXPECT_EQ(v.value().size(), dbopts.options.payload_size);
              } else {
                EXPECT_TRUE(v.status().IsNotFound()) << v.status().ToString();
              }
              break;
            }
            case 1: {  // Cross-shard merge scan: sorted, unique keys.
              std::vector<std::pair<Key, std::string>> rows;
              ASSERT_TRUE(db.Scan(key, key + 64, &rows).ok());
              for (size_t i = 1; i < rows.size(); ++i) {
                EXPECT_LT(rows[i - 1].first, rows[i].first);
              }
              break;
            }
            case 2: {  // Merged iterator over all four shard snapshots.
              auto it = db.NewIterator();
              ASSERT_NE(it, nullptr);
              int n = 0;
              Key prev = 0;
              for (it->Seek(key); it->Valid() && n < 32; it->Next(), ++n) {
                if (n > 0) {
                  EXPECT_LT(prev, it->key());
                }
                prev = it->key();
                EXPECT_EQ(it->value().size(), dbopts.options.payload_size);
              }
              EXPECT_TRUE(it->status().ok()) << it->status().ToString();
              break;
            }
          }
        }
      });
    }

    for (std::thread& t : writers) t.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : readers) t.join();
    ASSERT_EQ(failures.load(), 0);
    ASSERT_FALSE(db.failed());
    ASSERT_TRUE(db.WaitForCompaction().ok());

    // Quiesced: the merged view must equal the serial oracle.
    std::vector<std::pair<Key, std::string>> rows;
    ASSERT_TRUE(db.Scan(0, MaxKeyForSize(8), &rows).ok());
    const std::map<Key, std::string> got(rows.begin(), rows.end());
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_TRUE(got == expected) << "live contents diverge from the oracle";

    // And every key must live in exactly its hash shard.
    std::mt19937_64 rng(0xabc);
    for (int i = 0; i < 200; ++i) {
      const auto it = expected.lower_bound(static_cast<Key>(
          rng() % (kWriters * kKeysPerWriter)));
      if (it == expected.end()) continue;
      const size_t home = Db::ShardOfKey(it->first, 4);
      for (size_t s = 0; s < 4; ++s) {
        const bool found = db.shard(s)->Get(it->first).ok();
        EXPECT_EQ(found, s == home) << "key " << it->first << " shard " << s;
      }
    }

    ASSERT_TRUE(db.Checkpoint().ok());
    db.Close();
    for (size_t s = 0; s < 4; ++s) {
      ASSERT_TRUE(db.shard(s)->tree()->CheckInvariants(true).ok())
          << "shard " << s;
    }
  }

  // Round-trip through per-shard recovery.
  DbOptions verify = dbopts;
  verify.background_checkpoint = false;
  auto db_or = Db::Open(verify, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  ASSERT_EQ(db_or.value()->shard_count(), 4u);
  std::vector<std::pair<Key, std::string>> rows;
  ASSERT_TRUE(db_or.value()->Scan(0, MaxKeyForSize(8), &rows).ok());
  const std::map<Key, std::string> recovered(rows.begin(), rows.end());
  EXPECT_TRUE(recovered == expected) << "recovered contents diverge";
}

}  // namespace
}  // namespace lsmssd
