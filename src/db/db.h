#ifndef LSMSSD_DB_DB_H_
#define LSMSSD_DB_DB_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/db/engine.h"
#include "src/lsm/iterator.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd {

/// The durable key-value store: the documented way into the library for
/// applications. A Db hash-partitions keys over DbOptions::shards
/// Engines (src/db/engine.h), each one complete LSM engine with its own
/// WAL, device file, checkpoint and compaction thread, and routes every
/// call: point operations go to the key's engine (ShardOfKey), and
/// everything else visits the engines in index order 0..N-1. One engine
/// is simply N = 1; no call treats it specially.
///
/// Thread-safety: the Db is safe for concurrent use. Reads (Get/Scan/
/// NewIterator) run under each engine's shared tree lock; Put/Delete
/// serialize through the engine's commit lock with cross-thread group
/// commit. An iterator holds the shared locks of every engine for its
/// whole lifetime, so writers wait until it is destroyed — and a thread
/// must never write while itself holding an open iterator
/// (self-deadlock). See DESIGN.md, "Threading model".
///
/// After any durability error (including injected faults) the failing
/// engine refuses further operations, and so does the whole Db: the
/// crash-recovery contract is per directory, so one poisoned engine
/// refuses the Db rather than serving a partial key space. Reopening the
/// directory recovers the last consistent state.
class Db {
 public:
  /// Opens or creates the Db rooted at directory `dir` (see
  /// DbOptions::shards for the layout). `dbopts.options` must validate;
  /// annihilate_delete_put is rejected because WAL replay re-applies a
  /// tail of the history, which eager tombstone+insert annihilation
  /// cannot tolerate. Invalid WAL/checkpoint knobs (wal_sync_every_n ==
  /// 0 under kEveryN, a non-zero checkpoint_wal_bytes too small to hold
  /// two entries) are rejected here too, before any file is touched.
  static StatusOr<std::unique_ptr<Db>> Open(const DbOptions& dbopts,
                                            const std::string& dir);

  /// Joins every engine's background threads (finishing any in-flight
  /// checkpoint), then makes a best-effort final WAL sync per engine,
  /// which writes out its commit buffer. It takes no checkpoint, so
  /// reopening replays the WAL. Idempotent; called automatically by the
  /// destructor. Concurrent operations must have completed before
  /// Close() — it is a lifetime event, not an operation.
  void Close();
  ~Db();

  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  // ---- Modifications (WAL-appended before apply) ---------------------

  /// Inserts or blind-updates `key`. `payload` must be exactly
  /// payload_size bytes. Safe to call from many threads.
  Status Put(Key key, std::string_view payload);

  /// Deletes `key` (tombstone; the key need not exist).
  Status Delete(Key key);

  // ---- Reads (shared tree locks; run concurrently with each other) ---

  StatusOr<std::string> Get(Key key);
  /// Get that neither waits for a lock nor reads a file: returns
  /// std::nullopt when a writer or a merge step holds the engine's tree
  /// or memtable lock, or is queued for it, when the lookup may read a
  /// block outside the buffer cache, and whenever the value log is on
  /// (a found value's resolve reads it); Get's result otherwise. For
  /// callers that must not block, such as the server's event loop.
  std::optional<StatusOr<std::string>> TryGet(Key key);
  /// Appends every live pair in [lo, hi] to `out`, in key order.
  Status Scan(Key lo, Key hi, std::vector<std::pair<Key, std::string>>* out);
  /// The returned iterator pins the current state of every engine by
  /// holding their shared locks until destroyed, taken in engine order
  /// 0..N-1 (the fixed order keeps concurrent readers deadlock-free and
  /// makes the merged view one consistent cut): readers proceed, writers
  /// wait. Do not write from the thread holding it. Returns nullptr
  /// after a durability failure.
  std::unique_ptr<Iterator> NewIterator() const;

  // ---- Durability ----------------------------------------------------

  /// Takes a checkpoint of every engine now, synchronously (manifest +
  /// WAL rotation + slot recycling). Serializes with any in-flight
  /// automatic checkpoint.
  Status Checkpoint();

  /// fsyncs every WAL now (makes every acked modification durable
  /// without the cost of a checkpoint).
  Status SyncWal();

  /// Blocks until every engine's background compaction pipeline is idle:
  /// no sealed memtable queued, no worker step running, no kick pending.
  /// Returns a worker's sticky error if compaction is wedged (e.g.
  /// ResourceExhausted on a full device) instead of waiting forever.
  /// No-op (OK) when background_compaction is off: there every writer
  /// drains before it returns. Benches and tests use it to quiesce
  /// before measuring or checking invariants.
  Status WaitForCompaction();

  // ---- Integrity -----------------------------------------------------

  /// Synchronously verifies the checksum of every manifest-live block
  /// of every engine (one full scrub pass). Returns OK if all blocks
  /// verified clean, Corruption naming the count of damaged blocks
  /// otherwise (their ids land in Stats().quarantined_blocks). Every
  /// engine is scrubbed even after one reports damage. Runs under the
  /// shared tree locks, concurrently with reads.
  Status Scrub();

  /// Garbage-collects every engine's value log synchronously: rewrites
  /// the live entries of every sealed segment to the head, advances the
  /// tail over them, and checkpoints so the reclaimed segments are
  /// deleted. No-op (OK) when key–value separation is off or only the
  /// head segment exists.
  Status CompactVlog();

  /// Raises (or clears, with 0) the devices' live-block cap, split
  /// evenly (rounded up) over the engines. Writers backpressured by
  /// ResourceExhausted make progress again on their next operation once
  /// capacity allows.
  void SetMaxDeviceBlocks(uint64_t max_blocks);

  // ---- Introspection -------------------------------------------------

  /// Every engine's counters summed (IoStats merged, quarantine ids
  /// concatenated, stall histograms merged); `shards` is the engine
  /// count.
  DbStats Stats() const;
  const Options& options() const { return engines_.front()->options(); }
  const std::string& dir() const { return dir_; }
  /// True after a durability error in any engine; all operations refuse
  /// until reopen.
  bool failed() const;
  /// The lone engine's tree, for research/diagnostic code; nullptr when
  /// sharded — use shard(i)->tree() per engine instead (valid for every
  /// N). Mutating a tree directly bypasses the WAL — such changes are
  /// lost on crash — and bypasses the engine's locks: only touch it
  /// while nothing else (including a background checkpoint) runs.
  LsmTree* tree() {
    return engines_.size() == 1 ? engines_.front()->tree() : nullptr;
  }

  // ---- Sharding ------------------------------------------------------

  /// Number of engines behind this Db (1 when unsharded).
  size_t shard_count() const { return engines_.size(); }
  /// Engine `i` (diagnostics, per-engine stats and trees), for every N;
  /// nullptr when out of range. The Db owns it; do not Close() it
  /// directly.
  Engine* shard(size_t i) {
    return i < engines_.size() ? engines_[i].get() : nullptr;
  }
  /// The stable partition function: FNV-1a 64-bit over the key's 8
  /// little-endian bytes, mod `shards` (>= 1). Pure and layout-defining
  /// — it is what the SHARDS file pins, so it must never change for
  /// existing layouts.
  static size_t ShardOfKey(Key key, size_t shards);

  // Layout of an engine directory (exposed for tools/tests).
  static std::string ManifestPath(const std::string& dir);
  static std::string ManifestTmpPath(const std::string& dir);
  static std::string DevicePath(const std::string& dir);
  /// Out-of-band checksum sidecar for blocks.dev (blocks.crc).
  static std::string ChecksumPath(const std::string& dir);
  static std::string WalPath(const std::string& dir);
  /// Path of rotated WAL segment number `seq` (wal.old.<seq>).
  static std::string WalSegmentPath(const std::string& dir, uint64_t seq);
  /// Existing rotated segments in `dir`, sorted by sequence number
  /// (replay order). Exposed so tests can wipe a Db directory completely.
  static std::vector<std::string> ListWalSegments(const std::string& dir);
  /// Path of value-log segment `n` (vlog-<n>); present only when
  /// key–value separation is on.
  static std::string VlogSegmentPath(const std::string& dir, uint64_t n);
  /// Existing vlog segment numbers in `dir`, sorted ascending.
  static std::vector<uint64_t> ListVlogSegments(const std::string& dir);
  /// Root layout file of a sharded Db (`SHARDS`): shard count + partition
  /// function, checksummed, written atomically at creation and
  /// authoritative on reopen. Absent for single-shard layouts.
  static std::string ShardLayoutPath(const std::string& dir);
  static std::string ShardLayoutTmpPath(const std::string& dir);
  /// Directory of engine `i` under a sharded root (`shard-<i>`).
  static std::string ShardDirPath(const std::string& dir, size_t i);
  /// Decodes + checksum-verifies an existing SHARDS file; returns the
  /// shard count. Exposed so offline tools (scrub) can walk a sharded
  /// root without opening the Db.
  static StatusOr<size_t> ReadShardLayout(const std::string& dir);

 private:
  explicit Db(std::string dir) : dir_(std::move(dir)) {}

  /// Encodes and atomically publishes the SHARDS file (tmp + fsync +
  /// rename + dir fsync).
  static Status WriteShardLayout(const std::string& dir, size_t shards);

  Engine* EngineOf(Key key) const {
    return engines_[ShardOfKey(key, engines_.size())].get();
  }

  std::string dir_;
  std::vector<std::unique_ptr<Engine>> engines_;  ///< Index = shard.
};

}  // namespace lsmssd

#endif  // LSMSSD_DB_DB_H_
