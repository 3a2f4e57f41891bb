// Crash-point sweep over the Db durability protocol.
//
// A fixed workload runs against a Db whose every durable step (WAL
// append/sync/truncate, block write, device flush, manifest tmp-write/
// rename) ticks a FaultInjector. A first, disarmed run counts the steps;
// the sweep then re-runs the workload once per step k, killing the
// "process" at step k, reopening the directory, and checking the
// recovered state against a model:
//
//   * the recovered contents equal the model state after some prefix of
//     the workload (an operation is atomic: never partially visible,
//     never applied out of order);
//   * that prefix covers at least every operation that was durable when
//     the crash hit (acknowledged-and-synced writes are never lost);
//   * the recovered tree passes deep invariant checks (the block
//     directory is consistent, torn blocks unreachable);
//   * the recovered Db accepts and persists new writes.
#include <unistd.h>

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/db/db.h"
#include "src/storage/vlog_file.h"
#include "src/workload/driver.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;

struct Op {
  Key key;
  bool is_delete;
  Key payload_seed;  ///< Unique per op, so every rewrite changes the value.
};

/// Deterministic workload: interleaved puts/deletes over a small key
/// space (so deletes hit existing keys and merges carry tombstones),
/// with one explicit checkpoint in the middle. The 20-key cycle is
/// deliberately smaller than the 32-to-43-entry auto-checkpoint window
/// (checkpoint_wal_bytes=1000 / 23-byte entries plus their share of the
/// 8-byte batch headers), so keys repeat within
/// one window, and each put carries an op-unique payload — recovering a
/// stale WAL prefix on top of a newer checkpoint therefore visibly
/// regresses any key rewritten since the last group commit, instead of
/// silently rewriting it to the same bytes.
std::vector<Op> MakeWorkload() {
  std::vector<Op> ops;
  for (int i = 0; i < 80; ++i) {
    const Key k = static_cast<Key>((i * 13) % 20);
    ops.push_back({k, i % 7 == 5, k + (static_cast<Key>(i + 1) << 32)});
  }
  return ops;
}
constexpr int kCheckpointAfterOp = 40;

using ModelState = std::map<Key, std::string>;

void ApplyToModel(ModelState* model, const Op& op, const Options& options) {
  if (op.is_delete) {
    model->erase(op.key);
  } else {
    (*model)[op.key] = MakePayload(options, op.payload_seed);
  }
}

std::string WipedDir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + "/sweep_" + tag + "_" + std::to_string(::getpid());
  ::unlink(Db::ManifestPath(dir).c_str());
  ::unlink(Db::ManifestTmpPath(dir).c_str());
  ::unlink(Db::DevicePath(dir).c_str());
  ::unlink(Db::ChecksumPath(dir).c_str());
  ::unlink(Db::WalPath(dir).c_str());
  for (const std::string& seg : Db::ListWalSegments(dir)) {
    ::unlink(seg.c_str());
  }
  for (uint64_t n : Db::ListVlogSegments(dir)) {
    ::unlink(Db::VlogSegmentPath(dir, n).c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

/// Every live pair of a Db, or of one of its engines.
template <typename Store>
ModelState DumpDb(Store* db) {
  ModelState state;
  auto it = db->NewIterator();
  EXPECT_NE(it, nullptr);
  if (it == nullptr) return state;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    state.emplace(it->key(), it->value());
  }
  EXPECT_TRUE(it->status().ok());
  return state;
}

struct RunResult {
  uint64_t steps = 0;       ///< Injector steps the full run consumed.
  size_t durable_ops = 0;   ///< Ops covered by a sync/checkpoint at crash.
};

/// Runs the workload in `dir` with `dbopts` (whose injector may be
/// armed). Returns the durable-op frontier: the largest prefix of ops
/// known covered by a successful WAL sync or checkpoint.
RunResult RunWorkload(const DbOptions& dbopts, const std::string& dir,
                      FaultInjector* injector) {
  RunResult result;
  auto db_or = Db::Open(dbopts, dir);
  if (!db_or.ok()) {
    // Open of a fresh dir takes no injector steps; it cannot fail here.
    ADD_FAILURE() << "fresh open failed: " << db_or.status().ToString();
    return result;
  }
  Db& db = *db_or.value();
  const std::vector<Op> ops = MakeWorkload();
  for (size_t i = 0; i < ops.size(); ++i) {
    const uint64_t covered_before =
        db.Stats().wal_syncs + db.Stats().checkpoints;
    Status st = ops[i].is_delete
                    ? db.Delete(ops[i].key)
                    : db.Put(ops[i].key, MakePayload(dbopts.options,
                                                     ops[i].payload_seed));
    if (st.ok() && static_cast<int>(i) + 1 == kCheckpointAfterOp) {
      st = db.Checkpoint();
    }
    const DbStats stats = db.Stats();
    if (stats.wal_syncs + stats.checkpoints > covered_before) {
      // A sync/checkpoint fired during this op (even if the op itself
      // then failed): every WAL-appended op so far is durable.
      result.durable_ops = static_cast<size_t>(stats.wal_entries_appended);
    }
    if (!st.ok()) break;  // The process died mid-op.
  }
  // db destructor: best-effort final sync (a step) unless failed.
  db_or.value().reset();
  result.steps = injector->steps();
  return result;
}

void SweepMode(const char* tag, WalSyncMode mode) {
  FaultInjector injector;
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  // A one-block L0 seals the memtable every B distinct keys, so the
  // workload's 20-key cycle crosses seals, flushes and L0-buffer spills
  // and the sweep kills the process at their block writes too.
  dbopts.options.level0_capacity_blocks = 1;
  dbopts.wal_sync_mode = mode;
  // 7 does not divide any checkpoint's entry count, so in kEveryN mode a
  // checkpoint always finds unsynced appends beyond the last group
  // commit — the window where a checkpoint that skipped its WAL fsync
  // would publish a manifest the durable log does not cover.
  dbopts.wal_sync_every_n = 7;
  dbopts.checkpoint_wal_bytes = 1000;  // Auto-checkpoints mid-workload.
  // Inline checkpoints: the step at which each durable operation runs is
  // then a pure function of the workload, so pass 2 can enumerate pass
  // 1's steps exactly. (The background path gets its own sweep below.)
  dbopts.background_checkpoint = false;
  dbopts.fault_injector = &injector;

  // Pass 1: count the crash points.
  const std::string count_dir = WipedDir(std::string(tag) + "_count");
  const RunResult full = RunWorkload(dbopts, count_dir, &injector);
  ASSERT_GT(full.steps, 0u);

  // The model: state after every prefix of the workload.
  const std::vector<Op> ops = MakeWorkload();
  std::vector<ModelState> prefix_states(1);
  for (const Op& op : ops) {
    ModelState next = prefix_states.back();
    ApplyToModel(&next, op, dbopts.options);
    prefix_states.push_back(std::move(next));
  }

  // Pass 2: crash at every step, recover, verify.
  for (uint64_t crash_at = 0; crash_at < full.steps; ++crash_at) {
    SCOPED_TRACE(std::string(tag) + " crash at step " +
                 std::to_string(crash_at));
    const std::string dir =
        WipedDir(std::string(tag) + "_k" + std::to_string(crash_at));
    injector.Arm(crash_at);
    const RunResult crashed = RunWorkload(dbopts, dir, &injector);
    injector.Disarm();

    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    ASSERT_TRUE(db.tree()->CheckInvariants(true).ok());

    // The recovered contents must equal some prefix state at or past the
    // durable frontier.
    const ModelState recovered = DumpDb(&db);
    bool matched = false;
    for (size_t i = crashed.durable_ops; i < prefix_states.size(); ++i) {
      if (prefix_states[i] == recovered) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched)
        << "recovered state (" << recovered.size()
        << " keys) matches no workload prefix >= durable frontier "
        << crashed.durable_ops;

    // Recovery leaves a fully functional Db behind.
    const Key probe = 7'777;
    ASSERT_TRUE(db.Put(probe, MakePayload(dbopts.options, probe)).ok());
    ASSERT_TRUE(db.SyncWal().ok());
    auto v = db.Get(probe);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), MakePayload(dbopts.options, probe));
  }
}

TEST(CrashSweepTest, SyncAlways) { SweepMode("always", WalSyncMode::kAlways); }

TEST(CrashSweepTest, SyncEveryN) { SweepMode("everyn", WalSyncMode::kEveryN); }

TEST(CrashSweepTest, SyncNone) { SweepMode("none", WalSyncMode::kNone); }

/// Crash-point sweep with background *compaction* in flight: commits seal
/// full memtables onto the queue and the compaction thread runs the
/// flushes and merges, so the injector's durable steps interleave writer
/// WAL/checkpoint steps with compaction block writes nondeterministically —
/// the kill lands mid-flush or mid-merge on many of the sweep's points.
/// The durable frontier is still computed exactly as in SweepMode (WAL
/// syncs and inline checkpoints happen only on the writer thread), and
/// recovery must additionally leave zero leaked blocks: the device's live
/// set is exactly the recovered leaves.
void SweepBackgroundCompaction(const char* tag, WalSyncMode mode) {
  FaultInjector injector;
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.options.level0_capacity_blocks = 1;  // Seals + spills; see SweepMode.
  dbopts.wal_sync_mode = mode;
  dbopts.wal_sync_every_n = 7;
  dbopts.checkpoint_wal_bytes = 1000;  // Auto-checkpoints mid-workload.
  // Inline checkpoints keep the durable frontier a pure function of the
  // writer's own progress; only the compaction thread interleaves.
  dbopts.background_checkpoint = false;
  dbopts.background_compaction = true;
  // A shallow queue so the sweep also crosses throttled and stalled
  // commits, not just quiescent-worker windows.
  dbopts.compaction_queue_depth = 2;
  dbopts.compaction_slowdown_depth = 1;
  dbopts.fault_injector = &injector;

  // Verification reopens without the injector and without the worker
  // (tree()/DumpDb inspect the tree without the Db's locks).
  DbOptions verify_opts = dbopts;
  verify_opts.background_compaction = false;
  verify_opts.fault_injector = nullptr;

  const std::vector<Op> ops = MakeWorkload();
  std::vector<ModelState> prefix_states(1);
  for (const Op& op : ops) {
    ModelState next = prefix_states.back();
    ApplyToModel(&next, op, dbopts.options);
    prefix_states.push_back(std::move(next));
  }

  // Pass 1: size the sweep from a disarmed run. The compaction steps
  // interleave nondeterministically, so the count varies run to run; pad
  // the range so late crash points stay covered.
  const std::string count_dir = WipedDir(std::string(tag) + "_count");
  const RunResult full = RunWorkload(dbopts, count_dir, &injector);
  ASSERT_GT(full.steps, 0u);
  const uint64_t sweep_steps = full.steps + 8;

  for (uint64_t crash_at = 0; crash_at < sweep_steps; ++crash_at) {
    SCOPED_TRACE(std::string(tag) + " crash at step " +
                 std::to_string(crash_at));
    const std::string dir =
        WipedDir(std::string(tag) + "_k" + std::to_string(crash_at));
    injector.Arm(crash_at);
    const RunResult crashed = RunWorkload(dbopts, dir, &injector);
    injector.Disarm();

    auto db_or = Db::Open(verify_opts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    ASSERT_TRUE(db.tree()->CheckInvariants(true).ok());

    // Zero leaked blocks: every live device block is referenced by
    // exactly one recovered leaf. A flush or merge killed mid-batch must
    // not leave orphaned allocations behind after recovery.
    uint64_t leaves = 0;
    for (size_t i = 1; i < db.tree()->num_levels(); ++i) {
      leaves += db.tree()->level(i).num_leaves();
    }
    EXPECT_EQ(db.tree()->device()->live_blocks(), leaves)
        << "device live blocks != recovered leaves (leaked blocks)";

    // The recovered contents must equal some prefix state at or past the
    // durable frontier.
    const ModelState recovered = DumpDb(&db);
    bool matched = false;
    for (size_t i = crashed.durable_ops; i < prefix_states.size(); ++i) {
      if (prefix_states[i] == recovered) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched)
        << "recovered state (" << recovered.size()
        << " keys) matches no workload prefix >= durable frontier "
        << crashed.durable_ops;

    // Recovery leaves a fully functional Db behind.
    const Key probe = 7'777;
    ASSERT_TRUE(db.Put(probe, MakePayload(dbopts.options, probe)).ok());
    ASSERT_TRUE(db.SyncWal().ok());
    auto v = db.Get(probe);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), MakePayload(dbopts.options, probe));
  }
}

TEST(CrashSweepTest, BackgroundCompactionSyncAlways) {
  SweepBackgroundCompaction("bgc_always", WalSyncMode::kAlways);
}

TEST(CrashSweepTest, BackgroundCompactionSyncEveryN) {
  SweepBackgroundCompaction("bgc_everyn", WalSyncMode::kEveryN);
}

TEST(CrashSweepTest, BackgroundCompactionSyncNone) {
  SweepBackgroundCompaction("bgc_none", WalSyncMode::kNone);
}

// A double-crash must not weaken the guarantee: crash during the
// workload, recover, then crash again during *recovery's* first
// checkpoint and recover once more.
TEST(CrashSweepTest, CrashDuringRecoveryCheckpoint) {
  FaultInjector injector;
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.checkpoint_wal_bytes = 0;  // Manual checkpoints only (no thread).
  dbopts.background_checkpoint = false;
  dbopts.fault_injector = &injector;

  const std::string dir = WipedDir("double");
  ModelState model;
  {
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok());
    for (const Op& op : MakeWorkload()) {
      if (op.is_delete) {
        ASSERT_TRUE(db_or.value()->Delete(op.key).ok());
      } else {
        ASSERT_TRUE(
            db_or.value()
                ->Put(op.key, MakePayload(dbopts.options, op.payload_seed))
                .ok());
      }
      ApplyToModel(&model, op, dbopts.options);
    }
  }
  // Crash the post-recovery checkpoint at each of its steps.
  for (uint64_t k = 0; k < 8; ++k) {
    SCOPED_TRACE("checkpoint crash at step " + std::to_string(k));
    {
      auto db_or = Db::Open(dbopts, dir);
      ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
      injector.Arm(k);
      (void)db_or.value()->Checkpoint();  // May or may not survive.
      injector.Disarm();
    }
    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    ASSERT_TRUE(db_or.value()->tree()->CheckInvariants(true).ok());
    EXPECT_EQ(DumpDb(db_or.value().get()), model);
  }
}

// Crash-point sweep with the checkpoint running on the *background*
// maintenance thread. Steps interleave nondeterministically between the
// writer and the checkpointer, so unlike SweepMode this cannot match the
// recovered state against an exact durable-step frontier; instead it uses
// the strongest mode (kAlways: an op acked => its entry fsynced) where
// "every acknowledged op survives" is exact regardless of interleaving,
// and sweeps the kill point over a generous step range.
TEST(CrashSweepTest, CrashDuringBackgroundCheckpoint) {
  FaultInjector injector;
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.wal_sync_mode = WalSyncMode::kAlways;
  dbopts.checkpoint_wal_bytes = 1000;  // ~2 background checkpoints/run.
  dbopts.background_checkpoint = true;
  dbopts.fault_injector = &injector;

  // Recovery verification must not race a fresh maintenance thread
  // (tree()/DumpDb inspect the tree without the Db's locks).
  DbOptions verify_opts = dbopts;
  verify_opts.background_checkpoint = false;
  verify_opts.fault_injector = nullptr;

  const std::vector<Op> ops = MakeWorkload();
  std::vector<ModelState> prefix_states(1);
  for (const Op& op : ops) {
    ModelState next = prefix_states.back();
    ApplyToModel(&next, op, dbopts.options);
    prefix_states.push_back(std::move(next));
  }

  // Runs the workload; returns how many ops were acknowledged (in
  // kAlways mode: durable). The Db is closed/destroyed before return, so
  // the maintenance thread is joined and the injector is quiescent.
  auto run = [&](const std::string& dir) -> size_t {
    auto db_or = Db::Open(dbopts, dir);
    if (!db_or.ok()) {
      ADD_FAILURE() << "fresh open failed: " << db_or.status().ToString();
      return 0;
    }
    Db& db = *db_or.value();
    size_t acked = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      Status st = ops[i].is_delete
                      ? db.Delete(ops[i].key)
                      : db.Put(ops[i].key, MakePayload(dbopts.options,
                                                       ops[i].payload_seed));
      if (!st.ok()) break;  // The process died mid-op.
      ++acked;
      // A manual checkpoint mid-workload serializes with any in-flight
      // background one — both orders are exercised across the sweep.
      if (static_cast<int>(i) + 1 == kCheckpointAfterOp &&
          !db.Checkpoint().ok()) {
        break;
      }
    }
    return acked;
  };

  // Pass 1: count the steps of one (disarmed) run to size the sweep. The
  // exact count varies with thread interleaving; pad the range so late
  // crash points (including the destructor's final sync) are covered.
  const std::string count_dir = WipedDir("bg_count");
  ASSERT_EQ(run(count_dir), ops.size());
  const uint64_t sweep_steps = injector.steps() + 8;

  for (uint64_t crash_at = 0; crash_at < sweep_steps; ++crash_at) {
    SCOPED_TRACE("bg crash at step " + std::to_string(crash_at));
    const std::string dir = WipedDir("bg_k" + std::to_string(crash_at));
    injector.Arm(crash_at);
    const size_t acked = run(dir);
    injector.Disarm();

    auto db_or = Db::Open(verify_opts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    ASSERT_TRUE(db.tree()->CheckInvariants(true).ok());

    const ModelState recovered = DumpDb(&db);
    bool matched = false;
    for (size_t i = acked; i < prefix_states.size(); ++i) {
      if (prefix_states[i] == recovered) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "recovered state (" << recovered.size()
                         << " keys) matches no workload prefix >= acked "
                         << "frontier " << acked;

    // Recovery leaves a fully functional Db behind.
    const Key probe = 7'777;
    ASSERT_TRUE(db.Put(probe, MakePayload(dbopts.options, probe)).ok());
    ASSERT_TRUE(db.SyncWal().ok());
    auto v = db.Get(probe);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), MakePayload(dbopts.options, probe));
  }
}

// Crash-point sweep with a background scrub AND a background checkpoint
// concurrently in flight when the crash hits. Scrub reads deliberately
// never tick the injector (only durable steps do), so the sweep still
// enumerates the same durability protocol — but every kill now lands
// while the maintenance thread may be mid-scrub, and recovery must
// additionally leave the checksum sidecar (blocks.crc) consistent with
// every manifest-live block of blocks.dev, which the post-recovery
// Scrub() verifies bit-for-bit.
TEST(CrashSweepTest, CrashWithScrubAndCheckpointInFlight) {
  FaultInjector injector;
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.wal_sync_mode = WalSyncMode::kAlways;  // Acked == durable.
  dbopts.checkpoint_wal_bytes = 1000;  // ~2 background checkpoints/run.
  dbopts.background_checkpoint = true;
  dbopts.scrub_interval_ms = 1;  // Scrub whenever maintenance is idle.
  dbopts.scrub_batch_blocks = 8;
  dbopts.fault_injector = &injector;

  // Verification reopens without the injector and without background
  // maintenance (tree()/DumpDb inspect the tree without the Db's locks).
  DbOptions verify_opts = dbopts;
  verify_opts.background_checkpoint = false;
  verify_opts.scrub_interval_ms = 0;
  verify_opts.fault_injector = nullptr;

  const std::vector<Op> ops = MakeWorkload();
  std::vector<ModelState> prefix_states(1);
  for (const Op& op : ops) {
    ModelState next = prefix_states.back();
    ApplyToModel(&next, op, dbopts.options);
    prefix_states.push_back(std::move(next));
  }

  // Runs the workload with a foreground Scrub() overlapping the mid-run
  // checkpoint; returns acknowledged (== durable) ops.
  auto run = [&](const std::string& dir) -> size_t {
    auto db_or = Db::Open(dbopts, dir);
    if (!db_or.ok()) {
      ADD_FAILURE() << "fresh open failed: " << db_or.status().ToString();
      return 0;
    }
    Db& db = *db_or.value();
    size_t acked = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      Status st = ops[i].is_delete
                      ? db.Delete(ops[i].key)
                      : db.Put(ops[i].key, MakePayload(dbopts.options,
                                                       ops[i].payload_seed));
      if (!st.ok()) break;  // The process died mid-op.
      ++acked;
      if (static_cast<int>(i) + 1 == kCheckpointAfterOp) {
        // Foreground scrub concurrent with the checkpoint the WAL size
        // is about to trigger on the maintenance thread.
        (void)db.Scrub();  // May fail only once the injector tripped.
        if (!db.Checkpoint().ok()) break;
      }
    }
    return acked;
  };

  // Pass 1: size the sweep from a disarmed run (step counts vary with
  // thread interleaving; pad for late crash points).
  const std::string count_dir = WipedDir("scrub_count");
  ASSERT_EQ(run(count_dir), ops.size());
  const uint64_t sweep_steps = injector.steps() + 8;

  for (uint64_t crash_at = 0; crash_at < sweep_steps; ++crash_at) {
    SCOPED_TRACE("scrub crash at step " + std::to_string(crash_at));
    const std::string dir = WipedDir("scrub_k" + std::to_string(crash_at));
    injector.Arm(crash_at);
    const size_t acked = run(dir);
    injector.Disarm();

    auto db_or = Db::Open(verify_opts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    ASSERT_TRUE(db.tree()->CheckInvariants(true).ok());

    // The sidecar survived the crash consistent with the data file: every
    // manifest-live block's stored bytes match its out-of-band checksum.
    // (Torn blocks past the durable frontier are not live and are free to
    // mismatch until their slot is rewritten.)
    Status scrub = db.Scrub();
    ASSERT_TRUE(scrub.ok()) << scrub.ToString();
    EXPECT_TRUE(db.Stats().quarantined_blocks.empty());

    const ModelState recovered = DumpDb(&db);
    bool matched = false;
    for (size_t i = acked; i < prefix_states.size(); ++i) {
      if (prefix_states[i] == recovered) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "recovered state (" << recovered.size()
                         << " keys) matches no workload prefix >= acked "
                         << "frontier " << acked;

    // Recovery leaves a fully functional Db behind.
    const Key probe = 7'777;
    ASSERT_TRUE(db.Put(probe, MakePayload(dbopts.options, probe)).ok());
    ASSERT_TRUE(db.SyncWal().ok());
    auto v = db.Get(probe);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), MakePayload(dbopts.options, probe));
  }
}

// Crash-point sweep over a 2-shard facade with both per-shard compaction
// workers live. The shards share one injector, so the kill can land in
// either shard's WAL append, block flush, checkpoint rename, or the
// other shard's anything — and recovery must hold per shard:
//
//   * each shard's recovered contents equal some prefix of that shard's
//     own op subsequence (ops hash-routed to it, in submission order) at
//     or past its durable frontier — in kAlways mode, every op the
//     facade acknowledged;
//   * neither shard's device file leaks blocks (live set == leaves);
//   * one shard crashing mid-flush never corrupts the other.
TEST(CrashSweepTest, ShardedKillEveryStepRecoversPerShardPrefixes) {
  constexpr size_t kShards = 2;
  FaultInjector injector;
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.wal_sync_mode = WalSyncMode::kAlways;  // Acked == durable.
  dbopts.checkpoint_wal_bytes = 1000;
  dbopts.background_checkpoint = false;
  dbopts.background_compaction = true;
  dbopts.compaction_queue_depth = 2;
  dbopts.compaction_slowdown_depth = 1;
  dbopts.shards = kShards;
  dbopts.fault_injector = &injector;

  DbOptions verify_opts = dbopts;
  verify_opts.background_compaction = false;
  verify_opts.fault_injector = nullptr;

  // Per-shard op subsequences and their prefix states.
  const std::vector<Op> ops = MakeWorkload();
  std::vector<std::vector<Op>> shard_ops(kShards);
  for (const Op& op : ops) {
    shard_ops[Db::ShardOfKey(op.key, kShards)].push_back(op);
  }
  std::vector<std::vector<ModelState>> shard_prefixes(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_FALSE(shard_ops[s].empty()) << "workload misses shard " << s;
    shard_prefixes[s].emplace_back();
    for (const Op& op : shard_ops[s]) {
      ModelState next = shard_prefixes[s].back();
      ApplyToModel(&next, op, dbopts.options);
      shard_prefixes[s].push_back(std::move(next));
    }
  }

  auto wiped = [](const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "/sweep_shard_" + tag +
                            "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
  };

  // Runs the workload; returns per-shard acked (== durable) op counts.
  auto run = [&](const std::string& dir) -> std::vector<size_t> {
    std::vector<size_t> acked(kShards, 0);
    auto db_or = Db::Open(dbopts, dir);
    if (!db_or.ok()) {
      ADD_FAILURE() << "fresh open failed: " << db_or.status().ToString();
      return acked;
    }
    Db& db = *db_or.value();
    for (size_t i = 0; i < ops.size(); ++i) {
      Status st = ops[i].is_delete
                      ? db.Delete(ops[i].key)
                      : db.Put(ops[i].key, MakePayload(dbopts.options,
                                                       ops[i].payload_seed));
      if (!st.ok()) break;  // The process died mid-op.
      ++acked[Db::ShardOfKey(ops[i].key, kShards)];
      if (static_cast<int>(i) + 1 == kCheckpointAfterOp &&
          !db.Checkpoint().ok()) {
        break;
      }
    }
    return acked;
  };

  // Pass 1: size the sweep from a disarmed run (two workers interleave
  // nondeterministically; pad for late crash points).
  const std::vector<size_t> full = run(wiped("count"));
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_EQ(full[s], shard_ops[s].size());
  }
  const uint64_t sweep_steps = injector.steps() + 8;

  for (uint64_t crash_at = 0; crash_at < sweep_steps; ++crash_at) {
    SCOPED_TRACE("sharded crash at step " + std::to_string(crash_at));
    const std::string dir = wiped("k" + std::to_string(crash_at));
    injector.Arm(crash_at);
    const std::vector<size_t> acked = run(dir);
    injector.Disarm();

    auto db_or = Db::Open(verify_opts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    ASSERT_EQ(db.shard_count(), kShards);

    for (size_t s = 0; s < kShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      Engine* shard = db.shard(s);
      ASSERT_TRUE(shard->tree()->CheckInvariants(true).ok());

      // Zero leaked blocks in this shard's device file.
      uint64_t leaves = 0;
      for (size_t i = 1; i < shard->tree()->num_levels(); ++i) {
        leaves += shard->tree()->level(i).num_leaves();
      }
      EXPECT_EQ(shard->tree()->device()->live_blocks(), leaves)
          << "shard device leaks blocks";

      // This shard's contents are a prefix of its own subsequence, at or
      // past its durable frontier.
      const ModelState recovered = DumpDb(shard);
      bool matched = false;
      for (size_t i = acked[s]; i < shard_prefixes[s].size(); ++i) {
        if (shard_prefixes[s][i] == recovered) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched)
          << "recovered state (" << recovered.size()
          << " keys) matches no shard-op prefix >= durable frontier "
          << acked[s];
    }

    // The whole facade stays writable after recovery.
    const Key probe = 7'777;
    ASSERT_TRUE(db.Put(probe, MakePayload(dbopts.options, probe)).ok());
    ASSERT_TRUE(db.SyncWal().ok());
    auto v = db.Get(probe);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), MakePayload(dbopts.options, probe));
  }
}

// Crash-point sweep with key–value separation on (DESIGN.md §11). Every
// durable step now includes the vlog appends/syncs and the GC's
// publish-then-unlink, and the mid-run CompactVlog() puts pointer
// rewrites, the tail advance, and the crash-before-vlog-unlink window
// inside the sweep. Per crash point, recovery must additionally hold:
//
//   * every surviving tree pointer resolves to its exact value (the
//     verification Scan fails on any dangling or corrupt pointer);
//   * no leaked dead range: the segments on disk are exactly the
//     manifest's [tail, head] window — a below-tail file that recovery
//     failed to delete would show up as an extra;
//   * a post-recovery CompactVlog() pass succeeds and loses nothing.
constexpr int kVlogGcAfterOp = 60;

/// RunWorkload with vlog GC in the middle. The durable frontier counts
/// *operations* (not WAL entries — GC rewrites append entries of their
/// own), taken conservatively: ops acked before the last observed
/// sync/checkpoint are certainly durable.
RunResult RunVlogWorkload(const DbOptions& dbopts, const std::string& dir,
                          FaultInjector* injector) {
  RunResult result;
  auto db_or = Db::Open(dbopts, dir);
  if (!db_or.ok()) {
    ADD_FAILURE() << "fresh open failed: " << db_or.status().ToString();
    return result;
  }
  Db& db = *db_or.value();
  const std::vector<Op> ops = MakeWorkload();
  for (size_t i = 0; i < ops.size(); ++i) {
    const uint64_t covered_before =
        db.Stats().wal_syncs + db.Stats().checkpoints;
    Status st = ops[i].is_delete
                    ? db.Delete(ops[i].key)
                    : db.Put(ops[i].key, MakePayload(dbopts.options,
                                                     ops[i].payload_seed));
    if (st.ok() && static_cast<int>(i) + 1 == kCheckpointAfterOp) {
      st = db.Checkpoint();
    }
    if (st.ok() && static_cast<int>(i) + 1 == kVlogGcAfterOp) {
      st = db.CompactVlog();  // Rewrites + tail publish + segment unlink.
    }
    const DbStats stats = db.Stats();
    if (stats.wal_syncs + stats.checkpoints > covered_before) {
      result.durable_ops = i + (st.ok() ? 1 : 0);
    }
    if (!st.ok()) break;  // The process died mid-op.
  }
  db_or.value().reset();
  result.steps = injector->steps();
  return result;
}

void SweepVlogMode(const char* tag, WalSyncMode mode) {
  FaultInjector injector;
  DbOptions dbopts;
  dbopts.options = TinyOptions();
  dbopts.options.vlog_value_threshold = 17;  // Every 20-byte payload.
  dbopts.vlog_segment_bytes = 6 * (vlog::kEntryHeaderSize + 20);  // Rolls.
  dbopts.wal_sync_mode = mode;
  dbopts.wal_sync_every_n = 7;
  dbopts.checkpoint_wal_bytes = 1000;  // Auto-checkpoints mid-workload.
  dbopts.background_checkpoint = false;
  dbopts.fault_injector = &injector;

  // Pass 1: count the crash points.
  const std::string count_dir = WipedDir(std::string(tag) + "_count");
  const RunResult full = RunVlogWorkload(dbopts, count_dir, &injector);
  ASSERT_GT(full.steps, 0u);

  const std::vector<Op> ops = MakeWorkload();
  std::vector<ModelState> prefix_states(1);
  for (const Op& op : ops) {
    ModelState next = prefix_states.back();
    ApplyToModel(&next, op, dbopts.options);
    prefix_states.push_back(std::move(next));
  }

  for (uint64_t crash_at = 0; crash_at < full.steps; ++crash_at) {
    SCOPED_TRACE(std::string(tag) + " crash at step " +
                 std::to_string(crash_at));
    const std::string dir =
        WipedDir(std::string(tag) + "_k" + std::to_string(crash_at));
    injector.Arm(crash_at);
    const RunResult crashed = RunVlogWorkload(dbopts, dir, &injector);
    injector.Disarm();

    auto db_or = Db::Open(dbopts, dir);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Db& db = *db_or.value();
    ASSERT_TRUE(db.tree()->CheckInvariants(true).ok());

    // Zero lost live values: DumpDb resolves every pointer through the
    // vlog, so a single dangling or corrupt entry fails the Scan.
    const ModelState recovered = DumpDb(&db);
    bool matched = false;
    for (size_t i = crashed.durable_ops; i < prefix_states.size(); ++i) {
      if (prefix_states[i] == recovered) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched)
        << "recovered state (" << recovered.size()
        << " keys) matches no workload prefix >= durable frontier "
        << crashed.durable_ops;

    // Zero leaked dead ranges: disk holds exactly the manifest's
    // [tail, head] segment window (recovery re-deletes below-tail files
    // left by a crash between manifest publish and unlink).
    EXPECT_EQ(Db::ListVlogSegments(dir).size(), db.Stats().vlog_segments)
        << "vlog segments on disk leak past the [tail, head] window";

    // The recovered Db keeps working, and a fresh GC pass loses nothing.
    const Key probe = 7'777;
    ASSERT_TRUE(db.Put(probe, MakePayload(dbopts.options, probe)).ok());
    ASSERT_TRUE(db.SyncWal().ok());
    ASSERT_TRUE(db.CompactVlog().ok());
    EXPECT_EQ(Db::ListVlogSegments(dir).size(), db.Stats().vlog_segments);
    ModelState after_gc = DumpDb(&db);
    after_gc.erase(probe);
    EXPECT_EQ(after_gc, recovered) << "post-recovery GC changed contents";
    auto v = db.Get(probe);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), MakePayload(dbopts.options, probe));
  }
}

TEST(CrashSweepTest, VlogSyncAlways) {
  SweepVlogMode("vlog_always", WalSyncMode::kAlways);
}

TEST(CrashSweepTest, VlogSyncEveryN) {
  SweepVlogMode("vlog_everyn", WalSyncMode::kEveryN);
}

TEST(CrashSweepTest, VlogSyncNone) {
  SweepVlogMode("vlog_none", WalSyncMode::kNone);
}

}  // namespace
}  // namespace lsmssd
