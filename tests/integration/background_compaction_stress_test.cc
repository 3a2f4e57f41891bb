// Concurrency stress for the background compaction pipeline: N writer
// threads and M reader threads hammer one Db whose flushes and merges run
// on the compaction thread — with the maintenance thread's background
// checkpoints on at the same time — and the final contents are checked
// against a serial oracle.
//
// Key-space partitioning makes the oracle exact without cross-thread
// ordering assumptions: writer w only touches keys congruent to w, so the
// expected final value of every key is decided entirely by that writer's
// own (deterministic) op sequence, whatever the interleaving.
//
// A shallow compaction queue keeps the soft-throttle and hard-stall
// commit paths hot, so readers overlap every publish point: memtable
// seal, sealed-queue pop, L0-buffer absorption, and level swap. Run
// under TSan (see .github/workflows/ci.yml) this doubles as the
// data-race check for the whole compaction locking layer.
#include <atomic>
#include <cstdint>
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
constexpr size_t kOpsPerWriter = 15'000;  // 60k modifications total.
constexpr Key kKeysPerWriter = 4'096;     // Bounded space => real rewrites.

std::string FreshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/bgstress_" + tag + "_" +
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
std::vector<Op> WriterOps(int w, size_t ops_per_writer = kOpsPerWriter) {
  std::mt19937_64 rng(0xba5e + static_cast<uint64_t>(w));
  std::vector<Op> ops;
  ops.reserve(ops_per_writer);
  for (size_t i = 0; i < ops_per_writer; ++i) {
    const Key key = static_cast<Key>(w) +
                    kWriters * static_cast<Key>(rng() % kKeysPerWriter);
    const bool is_delete = rng() % 8 == 0;
    // Op-unique payload: a lost or reordered rewrite changes bytes, not
    // just presence.
    ops.push_back({key, is_delete,
                   key ^ (static_cast<Key>(i + 1) << 32) ^
                       (static_cast<Key>(w) << 56)});
  }
  return ops;
}

void RunStressAgainstOracle(const std::string& dir, const DbOptions& dbopts,
                            size_t ops_per_writer) {
  // The serial oracle: per-writer replay over disjoint key sets.
  std::map<Key, std::string> expected;
  for (int w = 0; w < kWriters; ++w) {
    for (const Op& op : WriterOps(w, ops_per_writer)) {
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
      writers.emplace_back([&db, &failures, w, ops_per_writer] {
        const std::vector<Op> ops = WriterOps(w, ops_per_writer);
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
          // Sprinkle synchronous ops into the stream: checkpoints
          // serialize with in-flight background flushes/merges, SyncWal
          // exercises group commit, WaitForCompaction drains the queue
          // while the other writers keep refilling it.
          if (w == 0 && (i + 1) % 6'000 == 0) {
            const Status ck = db.Checkpoint();
            if (!ck.ok()) {
              ADD_FAILURE() << "manual checkpoint: " << ck.ToString();
              failures.fetch_add(1);
              return;
            }
          }
          if (w == 1 && (i + 1) % 4'777 == 0 && !db.SyncWal().ok()) {
            failures.fetch_add(1);
            return;
          }
          if (w == 2 && (i + 1) % 5'500 == 0 &&
              !db.WaitForCompaction().ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }

    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&db, &stop, &dbopts, r] {
        std::mt19937_64 rng(0xf00d + static_cast<uint64_t>(r));
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

    // The background path actually engaged: memtables were sealed onto
    // the queue and the worker drained them.
    ASSERT_TRUE(db.WaitForCompaction().ok());
    const DbStats stats = db.Stats();
    EXPECT_GT(stats.memtables_sealed, 0u);
    EXPECT_GT(stats.background_flushes, 0u);
    EXPECT_EQ(stats.compaction_queue_depth, 0u);

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
  verify.background_compaction = false;
  auto db_or = Db::Open(verify, dir);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::vector<std::pair<Key, std::string>> rows;
  ASSERT_TRUE(db_or.value()->Scan(0, MaxKeyForSize(8), &rows).ok());
  const std::map<Key, std::string> recovered(rows.begin(), rows.end());
  EXPECT_TRUE(recovered == expected) << "recovered contents diverge";
  ASSERT_TRUE(db_or.value()->tree()->CheckInvariants(true).ok());
}

TEST(BackgroundCompactionStressTest, WritersReadersMatchSerialOracle) {
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 32;  // Cross-thread group commit.
  dbopts.checkpoint_wal_bytes = 64 * 1024;  // Many background checkpoints.
  dbopts.background_checkpoint = true;
  dbopts.background_compaction = true;
  // Shallow queue + tight slowdown: writers regularly cross the throttle
  // and stall thresholds instead of staying in the fast path.
  dbopts.compaction_queue_depth = 3;
  dbopts.compaction_slowdown_depth = 1;
  dbopts.compaction_slowdown_micros = 50;
  RunStressAgainstOracle(FreshDir("oracle"), dbopts, kOpsPerWriter);
}

}  // namespace
}  // namespace lsmssd
