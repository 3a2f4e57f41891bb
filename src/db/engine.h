#ifndef LSMSSD_DB_ENGINE_H_
#define LSMSSD_DB_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/db/pinned_block_device.h"
#include "src/format/options.h"
#include "src/lsm/iterator.h"
#include "src/lsm/lsm_tree.h"
#include "src/lsm/wal.h"
#include "src/policy/policy_factory.h"
#include "src/storage/fault_injection.h"
#include "src/storage/fault_injection_block_device.h"
#include "src/storage/file_block_device.h"
#include "src/storage/io_stats.h"
#include "src/util/histogram.h"
#include "src/util/shared_mutex.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd {

class ValueLog;

/// When WAL appends are written and fsynced. An append only encodes the
/// entry into an in-memory commit buffer; the buffer reaches the file as
/// one checksummed batch, with one write(), in a sync round (kEveryN, kAlways, SyncWal, a
/// checkpoint, Close) or once it holds 64 KiB (WalWriter::
/// kMaxPendingBytes; the only writes under kNone). An acknowledged
/// modification is *guaranteed* to survive a crash only once a sync (or
/// a checkpoint) covering it has succeeded. A process crash loses the
/// unsynced tail exactly as a host crash does: fewer than N entries
/// under kEveryN, at most 64 KiB under kNone, nothing under kAlways. A
/// crash never leaves a modification partially visible under any mode.
enum class WalSyncMode {
  kNone,    ///< Sync only at checkpoint/close. Fastest; crash may lose
            ///< the acked tail (never tear it).
  kEveryN,  ///< Group commit: one writer writes and fsyncs the batch
            ///< once it reaches DbOptions::wal_sync_every_n unsynced
            ///< appends (across all threads), and every waiter it covers
            ///< is acked together.
  kAlways,  ///< Sync before acknowledging every modification.
};

/// Configuration of a durable Db instance.
struct DbOptions {
  /// Tree/format options. When opening an existing Db, the format fields
  /// stored in its manifest are authoritative; only the runtime-only
  /// fields (cache_blocks, bloom_bits_per_key) are taken from here.
  Options options;

  /// Merge policy driving the tree (and its Mixed parameters, when the
  /// policy is kMixed).
  PolicyKind policy = PolicyKind::kChooseBest;
  MixedParams mixed_params;

  WalSyncMode wal_sync_mode = WalSyncMode::kAlways;
  uint64_t wal_sync_every_n = 64;  ///< Used by kEveryN only; must be > 0.

  /// Hash-partition keys across this many Engines, each a complete LSM
  /// engine (own memtable pipeline, WAL, device file, compaction
  /// thread) configured by every other field here; the Db routes every
  /// call over them. Each engine holds its own memory pipeline, so N
  /// engines hold up to N times one engine's memory-resident records.
  /// Layout: with 1 (the default) the lone engine lives in the root
  /// directory itself and there is no layout file; with N > 1 engine i
  /// lives in `shard-<i>`, and the partition function (stable FNV-1a
  /// over the key bytes) and the count are recorded in a root `SHARDS`
  /// file at creation. On reopen that file is authoritative, so a
  /// sharded Db reopens correctly even with the default options.
  /// Opening an existing Db with a *different* non-default shard count,
  /// or asking for shards > 1 on an existing single-shard directory,
  /// fails: resharding in place is not supported.
  size_t shards = 1;

  /// Automatic checkpoint threshold: a checkpoint runs once the live WAL
  /// (rotated segments + active log) exceeds this many bytes. 0 disables
  /// automatic checkpoints (call Db::Checkpoint() manually). Must
  /// otherwise be large enough that checkpoints cannot fire on every
  /// single modification (>= two logged entries); Open rejects smaller
  /// values.
  uint64_t checkpoint_wal_bytes = 8ull << 20;

  /// Run automatic checkpoints on the Db's background maintenance thread
  /// (the default): the writer that trips the threshold only *requests*
  /// a checkpoint and returns; the maintenance thread takes it, and the
  /// slow part (device flush + manifest write) runs off the commit lock,
  /// so no writer ever stalls behind a manifest write. When false,
  /// auto-checkpoints run inline in the tripping writer before its op
  /// returns — fully deterministic, used by the crash-point sweep and by
  /// tests that count checkpoints. Db::Checkpoint() is synchronous either
  /// way.
  bool background_checkpoint = true;

  bool create_if_missing = true;  ///< Open fails on a missing dir if false.
  bool error_if_exists = false;   ///< Open fails on an existing Db if true.

  /// Who runs compaction. In both modes Put/Delete land in the WAL and
  /// the active memtable only; a full memtable is *sealed* onto a queue
  /// of immutable memtables, which compaction drains one bounded step at
  /// a time (LsmTree::BackgroundCompactStep's order: flush, then merge
  /// the shallowest overflowing level). When true, one background
  /// compaction thread runs the steps, publishing each atomically under
  /// the engine's locks; writers never wait for a merge unless the queue backs up
  /// — then they are first throttled (see compaction_slowdown_depth) and
  /// finally stalled until the thread frees a slot (counted and timed in
  /// DbStats). Default off: the writer that seals the memtable runs the
  /// steps itself, until none is left, before its op returns. Off, the
  /// memtable plus L0 buffer hold under 2 * K0 * B records between ops
  /// (each below K0 * B), twice LsmTree::Put's K0 * B bound.
  bool background_compaction = false;

  /// Hard bound on queued sealed memtables (>= 1). A writer that must
  /// seal while the queue is full stalls until compaction drains one.
  /// Memory ceiling: (compaction_queue_depth + 1) * K0 * B records.
  size_t compaction_queue_depth = 4;

  /// Must be 1: background mode runs exactly one compaction thread, and
  /// Open rejects any other value. (A pool bought nothing while every
  /// merge step holds the exclusive tree lock; the field stays so code
  /// that sets it keeps compiling.)
  size_t compaction_workers = 1;

  /// Soft backpressure: while the queue holds at least this many sealed
  /// memtables, every modification sleeps compaction_slowdown_micros
  /// before committing, slowing writers so compaction can catch up
  /// before they hit the hard stall. 0 disables throttling.
  size_t compaction_slowdown_depth = 3;
  uint64_t compaction_slowdown_micros = 200;

  /// Caps the device's simultaneously-live blocks; 0 = unlimited. When a
  /// merge hits the cap it aborts atomically (the pre-merge tree stays
  /// fully readable, zero blocks leak) and the triggering Put/Delete
  /// returns ResourceExhausted — write backpressure, not a poisoned Db.
  /// Raise at runtime with SetMaxDeviceBlocks(). A sharded Db gives each
  /// engine the ceiling of an even split.
  uint64_t max_device_blocks = 0;

  /// Background scrub cadence: every `scrub_interval_ms` of maintenance-
  /// thread idle time, verify the checksums of the next
  /// `scrub_batch_blocks` manifest-live blocks (round-robin by block id,
  /// wrapping). 0 disables background scrubbing; Db::Scrub() runs a full
  /// synchronous pass either way. Corrupt blocks land in the quarantine
  /// set (Db::Stats().quarantined_blocks) without failing the Db.
  uint64_t scrub_interval_ms = 0;
  uint64_t scrub_batch_blocks = 32;

  /// Value-log GC trigger (only meaningful when Options::vlog_enabled()):
  /// when the estimated dead fraction of the value log reaches this
  /// ratio, the maintenance thread rewrites the live entries out of the
  /// oldest segment, advances the tail, and checkpoints to reclaim it.
  /// 0 disables automatic GC (Db::CompactVlog() still works); must be
  /// < 1 otherwise.
  double vlog_gc_ratio = 0.0;

  /// Value-log segment roll threshold: once the head segment reaches
  /// this many bytes it is sealed (fsynced) and a fresh `vlog-<n+1>`
  /// starts. Smaller segments mean finer-grained GC. Must be > 0.
  uint64_t vlog_segment_bytes = 4ull << 20;

  /// Test seam: when set, every durable step (block write/flush, WAL
  /// append/sync, segment rotate/unlink, manifest write/rename) consults
  /// this injector, and a tripped injector kills the instance mid-step —
  /// the crash-point sweep in tests/integration/crash_sweep_test.cc
  /// drives recovery through every such point. Must outlive the Db.
  FaultInjector* fault_injector = nullptr;
};

/// Counters surfaced by Db::Stats().
struct DbStats {
  IoStats io;  ///< Physical device accounting (incl. cache/bloom counters).
  uint64_t wal_entries_appended = 0;  ///< Since this Db was opened.
  uint64_t wal_bytes_appended = 0;    ///< Log file bytes, since open.
  uint64_t wal_syncs = 0;             ///< Successful explicit WAL fsyncs.
  uint64_t checkpoints = 0;           ///< Checkpoints taken since open.
  uint64_t recovery_wal_entries_replayed = 0;  ///< Replayed during Open.
  uint64_t recovery_manifest_blocks = 0;  ///< Blocks restored from manifest.
  uint64_t deferred_frees = 0;  ///< Blocks pinned for recovery, free deferred.

  /// Block ids that failed checksum verification (on a read or a scrub),
  /// sorted. A quarantined block keeps returning Corruption on every
  /// access; it leaves the set only when a merge/compaction frees it.
  std::vector<BlockId> quarantined_blocks;
  uint64_t scrub_blocks_verified = 0;   ///< Clean verdicts, since open.
  uint64_t scrub_corruptions_found = 0; ///< Corrupt verdicts, since open.
  /// Put/Delete calls that returned ResourceExhausted because the device
  /// hit max_device_blocks (the op itself is logged and applied; only the
  /// triggered merge was rolled back).
  uint64_t write_backpressure_events = 0;

  // Compaction. Seals, flushes, merges and step time count in both
  // modes (the inline writer runs the same steps the compaction thread
  // does); the throttle and stall counters stay zero when
  // background_compaction is off, since an inline writer never waits for
  // that thread.
  uint64_t memtables_sealed = 0;     ///< Active memtables moved to the queue.
  uint64_t background_flushes = 0;   ///< Steps draining a sealed memtable.
  uint64_t background_merges = 0;    ///< Steps merging out of a level.
  uint64_t compaction_queue_depth = 0;  ///< Sealed memtables queued right now.
  uint64_t compaction_micros = 0;    ///< Wall time inside compaction steps.
  uint64_t throttle_events = 0;      ///< Ops delayed by the soft slowdown.
  uint64_t throttle_micros = 0;
  uint64_t stall_events = 0;         ///< Ops that hit the hard queue-full stall.
  uint64_t stall_micros = 0;
  /// Per-op hard-stall wait times in microseconds (only stalled ops are
  /// recorded; an empty histogram means no writer ever hit the wall). For
  /// a sharded Db this is the *merge* of every shard's histogram
  /// (LatencyHistogram::Merge), not one shard's view.
  LatencyHistogram stall_latency;

  uint64_t shards = 1;  ///< Engines summed into these counters.

  // Value log (all zero, and no ToString line, when separation is off).
  uint64_t vlog_segments = 0;         ///< Segments in [tail, head] right now.
  uint64_t vlog_bytes_appended = 0;   ///< Entry bytes appended since open.
  uint64_t vlog_gc_rewrites = 0;      ///< Live entries GC re-appended.
  uint64_t vlog_segments_reclaimed = 0;  ///< Segments GC deleted since open.
  uint64_t vlog_quarantined_entries = 0; ///< Entries failing checksum reads.

  /// Multi-line human-readable summary (CLI stats line).
  std::string ToString() const;
};

/// One durable LSM engine over one directory. It owns the FileBlockDevice
/// (`blocks.dev`) and its PinnedBlockDevice, the write-ahead log
/// (`wal.log`, plus rotated `wal.old.<n>` segments while a checkpoint is
/// in flight) with its group commit, the checkpoint (`MANIFEST`), the
/// LsmTree wired over them, the compaction step runner and its thread,
/// and the maintenance thread (checkpoints, scrub, vlog GC ticks). The
/// value-log segments (`vlog-<n>`), when key–value separation is on,
/// belong to a ValueLog (src/db/value_log.h) it drives under its commit
/// lock. Applications reach it through Db (src/db/db.h), which routes
/// keys over 1..N engines; LsmTree stays the research core underneath.
///
/// Open recovers: MANIFEST -> LsmTree::Restore -> WAL replay. Every
/// Put/Delete is WAL-appended *before* it is applied, then fsynced per
/// WalSyncMode. A checkpoint (manual, or once the live WAL exceeds
/// DbOptions::checkpoint_wal_bytes) syncs and *rotates* the WAL, so
/// writers keep appending while it publishes the manifest, then deletes
/// the rotated segments. Safe for concurrent use; DESIGN.md §7 has the
/// lock hierarchy and protocols.
///
/// After any durability error (including injected faults) the engine
/// enters a failed state and refuses further operations; reopening the
/// directory recovers the last consistent state.
///
/// Each public method keeps the contract of the Db method of the same
/// name, restricted to this engine's directory and keys.
class Engine {
 public:
  /// Opens or creates the engine in `dir`, creating the directory if
  /// missing. Db::Open validates `dbopts` and applies create_if_missing
  /// and error_if_exists to the root before it opens any engine.
  static StatusOr<std::unique_ptr<Engine>> Open(const DbOptions& dbopts,
                                                const std::string& dir);

  /// Joins the maintenance and compaction threads, then makes a
  /// best-effort final WAL sync (unless failed), which writes out the
  /// commit buffer. Idempotent.
  void Close();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Status Put(Key key, std::string_view payload);
  Status Delete(Key key);
  StatusOr<std::string> Get(Key key);
  std::optional<StatusOr<std::string>> TryGet(Key key);
  std::unique_ptr<Iterator> NewIterator() const;

  Status Checkpoint();
  Status SyncWal();
  Status WaitForCompaction();
  Status Scrub();
  Status CompactVlog();
  void SetMaxDeviceBlocks(uint64_t max_blocks);

  DbStats Stats() const;
  const Options& options() const { return tree_->options(); }
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// The underlying tree, for research/diagnostic code. Mutating it
  /// directly bypasses the WAL — such changes are lost on crash — and
  /// bypasses the engine's locks: only touch it while nothing else
  /// (including a background checkpoint) runs.
  LsmTree* tree() { return tree_.get(); }

  /// What every operation returns once the engine has failed.
  static Status FailedStatus();

 private:
  Engine(DbOptions dbopts, std::string dir);

  /// WAL-append + memtable apply under the commit lock (plus the inline
  /// drain when background_compaction is off), group-commit sync per
  /// policy, then trigger/run the auto-checkpoint if the threshold
  /// tripped.
  Status Apply(RecordType type, Key key, std::string_view payload);

  /// One group-commit round, led by the caller (db_mu_ held via `lk`, no
  /// round in flight): claims every appended entry, then with db_mu_
  /// released writes the commit buffer with one write() and, when `sync`,
  /// syncs the vlog head and fsyncs the WAL. Every WAL write runs in such
  /// a round, one at a time. Poisons and returns the error on failure.
  Status WalRoundLocked(std::unique_lock<std::mutex>& lk, bool sync);

  /// Blocks until every entry up to `target` is covered by a successful
  /// fsync, becoming the group-commit leader when no sync is in flight
  /// (the leader fsyncs with the commit lock *released*; followers wait
  /// on sync_cv_). `lk` must hold db_mu_. Poisons and returns the error
  /// on fsync failure.
  Status SyncCoveringLocked(std::unique_lock<std::mutex>& lk,
                            uint64_t target);

  /// Quiesces in-flight syncs and issues at least one fsync, so that on
  /// return (with db_mu_ held continuously since the last check) every
  /// appended entry is synced and no sync is in flight — the WAL file is
  /// stable and may be rotated or handed to a new writer.
  Status ForceSyncAllLocked(std::unique_lock<std::mutex>& lk);

  /// Writes the commit buffer out (no fsync) once it holds
  /// WalWriter::kMaxPendingBytes, waiting out an in-flight round first.
  Status FlushWalLocked(std::unique_lock<std::mutex>& lk);

  /// Serialized checkpoint entry point (waits out a concurrent
  /// checkpoint, then runs one). `lk` must hold db_mu_.
  Status CheckpointLocked(std::unique_lock<std::mutex>& lk);
  /// The checkpoint protocol itself; db_mu_ is released during the
  /// device flush + manifest write (see DESIGN.md). Requires
  /// checkpoint_in_progress_ set by the caller.
  Status CheckpointBodyLocked(std::unique_lock<std::mutex>& lk);

  /// Background maintenance thread: runs auto-checkpoints requested by
  /// writers, periodic scrub batches and vlog GC ticks until Close().
  void MaintenanceLoop();

  /// The compaction thread's body (background mode only): sleeps on
  /// comp_cv_ until a writer seals a memtable (or the cap is raised),
  /// then runs one step at a time until there is no work, waking stalled
  /// writers after every step. Runs WITHOUT db_mu_ (a hard-stalled writer
  /// waits for compaction progress *while holding it*, which is why this
  /// is not the maintenance thread); takes db_mu_ only to poison the
  /// engine on a durability error, after publishing the error under
  /// comp_mu_ so the stalled writer can wake and release db_mu_ first.
  void CompactionLoop();

  // ---- Background compaction (see DESIGN.md, "Compaction scheduling
  // & write stalls") -----------------------------------------------------

  /// Write-path gate, called with db_mu_ held before the WAL append:
  /// applies the soft throttle, and when the active memtable is full,
  /// seals it onto the queue — stalling first if the queue is at
  /// compaction_queue_depth — and kicks the compaction thread. Returns
  /// its sticky error (without applying the op) when compaction is
  /// wedged.
  Status MaybeSealOrStallLocked();

  /// Moves the active memtable onto the sealed queue, publishes the new
  /// depth and counts the seal. Requires mem_mu_ held exclusively.
  void SealActiveMemtableLocked();

  /// Inline mode's compaction: when there is work, seals a full active
  /// memtable and runs RunOneCompactionStep until it does nothing. Called
  /// by the committing writer (db_mu_ held) and by WAL replay in Open
  /// (before any other thread exists), so in either case it is the only
  /// step runner. Returns the failing step's error; the next call retries
  /// the drain.
  Status DrainCompactionLocked();

  /// The one step runner of both modes: runs PlanAndRunStep, timed, and
  /// publishes the result under comp_mu_ (counters, queue depth, step
  /// time, and the sticky compaction_error_, which progress clears).
  Status RunOneCompactionStep(LsmTree::CompactStep* step);

  /// Plans once (LsmTree::PlanCompaction) and acts once: a flush under
  /// mem_mu_ exclusive only (pure memory), a merge out of the plan's
  /// source under tree_mu_ exclusive only, so writers keep appending
  /// through it. Leaves `*step` at kNone when there is no work. The
  /// caller must be the only step driver (the compaction thread, or an
  /// inline drain under db_mu_): the L0 buffer and the levels change only
  /// here, so the plan stays valid until it is acted on.
  Status PlanAndRunStep(LsmTree::CompactStep* step, bool* popped);

  /// One background scrub batch: verifies the next scrub_batch_blocks
  /// live blocks after the round-robin cursor. `lk` must hold db_mu_.
  void ScrubTickLocked(std::unique_lock<std::mutex>& lk);

  /// Verifies `blocks` under the shared tree lock with db_mu_ (held via
  /// `lk`) released, and counts the verdicts; blocks freed meanwhile are
  /// skipped. Returns the first transport error, else Corruption when a
  /// block failed its checksum.
  Status VerifyBlocksLocked(std::unique_lock<std::mutex>& lk,
                            const std::vector<BlockId>& blocks);

  /// WAL replay in Open: every rotated segment, then the active log, one
  /// batch at a time, each first offered to `vlog` (null when off). A torn
  /// or dangling rotated segment is Corruption; the active log is cut at
  /// the start of its first torn or dangling batch.
  Status ReplayWal(const std::vector<std::string>& segments, ValueLog* vlog);

  /// tmp + fsync + rename + dir-fsync, with injected crash points.
  /// Called *without* db_mu_ held.
  Status WriteManifestAtomically(const std::string& data);
  /// Block ids referenced by the live tree (the next manifest's pin set).
  /// Requires db_mu_ (tree structure is stable under it).
  std::vector<BlockId> CurrentTreeBlocks() const;
  /// Opens a WAL writer on `path`, wrapping it for fault injection when
  /// configured.
  StatusOr<std::unique_ptr<WalWriter>> MakeWalWriter(
      const std::string& path) const;

  /// Get's body. With `try_only` it neither waits nor reads a file: it
  /// returns nullopt where a lock would block, where the level walk may
  /// read a block outside the buffer cache, and always in vlog mode.
  std::optional<StatusOr<std::string>> GetImpl(Key key, bool try_only);
  /// The stored payload of `key` (a pointer in vlog mode): memtables
  /// first, then levels. Requires tree_mu_ shared; takes mem_mu_ shared
  /// for the memtable probe unless `mem_held`. With `try_only`, nullopt
  /// where it would wait or read a block outside the buffer cache.
  std::optional<StatusOr<std::string>> FindStoredLocked(Key key,
                                                        bool try_only,
                                                        bool mem_held);
  /// Apply's body under db_mu_, which GC's rewrites share.
  Status ApplyLocked(RecordType type, Key key, std::string_view payload,
                     std::unique_lock<std::mutex>& lk);
  /// Vlog GC up to segment `stop`: collects every sealed segment below it
  /// (re-Putting each entry whose pointer the tree still stores), then
  /// checkpoints to publish the advanced tail.
  Status CollectVlogLocked(std::unique_lock<std::mutex>& lk, uint64_t stop);
  /// Marks the instance failed, wakes every waiter, and passes `st`
  /// through. Requires db_mu_ held.
  Status FailLocked(Status st);

  /// Bytes currently in the live WAL: rotated segments + recovered tail
  /// + appends to the active log. Requires db_mu_.
  uint64_t WalLiveBytesLocked() const;

  DbOptions dbopts_;
  std::string dir_;

  std::unique_ptr<FileBlockDevice> device_;  ///< Base physical device.
  std::unique_ptr<FaultInjectionBlockDevice> fault_device_;  ///< Optional.
  std::unique_ptr<PinnedBlockDevice> pinned_;
  std::unique_ptr<LsmTree> tree_;
  std::unique_ptr<WalWriter> wal_;  ///< Active log; swapped at rotation.
  /// Null unless the tree's options enable key–value separation. Its
  /// writer side runs under db_mu_, in commit order before the WAL
  /// append; its readers take only the value log's own leaf lock.
  std::unique_ptr<ValueLog> value_log_;

  // ---- Concurrency. Lock order db_mu_ -> tree_mu_ -> mem_mu_ -> comp_mu_
  // (any prefix may be skipped, the order never reversed); DESIGN.md §7
  // tabulates what each one guards. db_mu_ is the commit lock; tree_mu_
  // guards the on-SSD tree, mem_mu_ the memtables and the L0 buffer's
  // flush absorption; comp_mu_ is a leaf guarding compaction state and
  // stall_cv_, on which stalled writers wait *holding db_mu_* — so the
  // compaction thread never touches db_mu_ between steps. The value
  // log's lock is a leaf too.
  mutable std::mutex db_mu_;
  mutable SharedMutex tree_mu_;
  mutable SharedMutex mem_mu_;
  mutable std::mutex comp_mu_;
  std::condition_variable sync_cv_;   ///< Group-commit rounds completing.
  std::condition_variable ckpt_cv_;   ///< Checkpoint slot freeing up.
  std::condition_variable maint_cv_;  ///< Work for the maintenance thread.
  std::condition_variable stall_cv_;  ///< Compaction progress (comp_mu_).
  std::condition_variable comp_cv_;   ///< Work for compaction (comp_mu_).
  std::thread maintenance_;
  std::thread compaction_;  ///< Background mode only.

  std::atomic<bool> failed_{false};
  bool closed_ = false;               ///< Close() ran (under db_mu_).
  bool stop_maintenance_ = false;     ///< Tells MaintenanceLoop to exit.
  bool checkpoint_requested_ = false; ///< Writer tripped the threshold.
  bool checkpoint_in_progress_ = false;
  bool sync_in_progress_ = false;     ///< A WAL round (write/fsync) runs.

  // Compaction state (under comp_mu_).
  size_t sealed_queued_ = 0;      ///< Sealed memtables awaiting drain.
  bool compaction_scheduled_ = false;  ///< Kicked, drain not started yet.
  bool compaction_running_ = false;    ///< CompactionLoop is draining.
  bool stop_compaction_ = false;  ///< Tells CompactionLoop to exit.
  /// Sticky compaction error (ResourceExhausted/Corruption): surfaced to
  /// writers that must seal, cleared by a later successful step or by
  /// SetMaxDeviceBlocks. Durability errors poison the engine instead.
  Status compaction_error_;
  uint64_t memtables_sealed_ = 0;
  uint64_t background_flushes_ = 0;
  uint64_t background_merges_ = 0;
  uint64_t compaction_micros_ = 0;
  uint64_t throttle_events_ = 0;
  uint64_t throttle_micros_ = 0;
  uint64_t stall_events_ = 0;
  uint64_t stall_micros_ = 0;
  LatencyHistogram stall_hist_;

  // Group-commit bookkeeping (under db_mu_). Sequence numbers count WAL
  // entries appended since open; they survive rotation (unlike the
  // per-writer counters, which reset with each fresh wal.log).
  uint64_t seq_appended_ = 0;  ///< Entries appended.
  uint64_t seq_synced_ = 0;    ///< Entries covered by a completed fsync.
  uint64_t sync_target_ = 0;   ///< Entries covered once the in-flight
                               ///< fsync completes (kEveryN batching).

  /// Log file bytes appended since open: entries, batch headers and
  /// file headers.
  uint64_t wal_bytes_total_ = 0;
  uint64_t wal_syncs_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t recovery_replayed_ = 0;
  uint64_t recovery_manifest_blocks_ = 0;
  uint64_t wal_recovered_bytes_ = 0;  ///< Active-WAL size found at Open.
  uint64_t wal_old_bytes_ = 0;    ///< Total bytes in rotated segments.
  uint64_t next_wal_segment_ = 1; ///< Next rotation's segment number.

  // Integrity bookkeeping (under db_mu_).
  uint64_t scrub_blocks_verified_ = 0;
  uint64_t scrub_corruptions_ = 0;
  uint64_t backpressure_events_ = 0;
  BlockId scrub_cursor_ = 0;  ///< Background scrub resumes after this id.

};

}  // namespace lsmssd

#endif  // LSMSSD_DB_ENGINE_H_
