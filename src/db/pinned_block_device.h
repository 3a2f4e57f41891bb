#ifndef LSMSSD_DB_PINNED_BLOCK_DEVICE_H_
#define LSMSSD_DB_PINNED_BLOCK_DEVICE_H_

#include <atomic>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "src/storage/block_device.h"

namespace lsmssd {

/// BlockDevice decorator that keeps the last durable checkpoint
/// recoverable. The recovery image is (manifest, blocks it references):
/// if a merge frees a manifest-referenced block and a later allocation
/// reuses its slot, a crash before the *next* checkpoint would recover
/// the old manifest over a corrupted block — silent data loss. This
/// wrapper therefore *pins* the blocks referenced by the most recent
/// durable manifest: freeing a pinned block is deferred (the tree sees a
/// successful free and can no longer read the block through this device,
/// but the slot is not recycled) until Commit() declares the next
/// manifest durable, at which point deferred frees hit the base device
/// and the pin set is swapped.
///
/// Allocation-order note: deferring frees only delays slot reuse; it
/// never triggers extra block writes, so the paper's write counts are
/// unaffected (fig02/06/10 run on bare devices anyway).
class PinnedBlockDevice : public BlockDevice {
 public:
  /// `base` must outlive this object. The initial pin set is the block
  /// list of the manifest the Db was opened from (empty for a fresh Db).
  PinnedBlockDevice(BlockDevice* base, std::vector<BlockId> pinned);

  size_t block_size() const override { return base_->block_size(); }
  StatusOr<BlockId> WriteNewBlock(const BlockData& data) override;
  /// Forwards the batch to the base device (fresh blocks are never pinned,
  /// so no pin bookkeeping applies) and mirrors the per-block stats.
  Status WriteBlocks(const std::vector<BlockData>& blocks,
                     std::vector<BlockId>* ids) override;
  Status ReadBlock(BlockId id, BlockData* out) override;
  StatusOr<std::shared_ptr<const BlockData>> ReadBlockShared(
      BlockId id) override;
  /// Forwards the batch after screening deferred-freed ids. On a vectored
  /// failure, retries per-block so the corrupt id (if any) is named and
  /// quarantined exactly as a ReadBlock would.
  Status ReadBlocks(const std::vector<BlockId>& ids,
                    std::vector<BlockData>* out) override;
  Status FreeBlock(BlockId id) override;
  Status VerifyBlock(BlockId id) override;
  Status CorruptBlockForTesting(BlockId id, const BlockData& data) override {
    return base_->CorruptBlockForTesting(id, data);
  }
  Status ReadBlockUnverifiedForTesting(BlockId id, BlockData* out) override {
    return base_->ReadBlockUnverifiedForTesting(id, out);
  }
  Status Flush() override { return base_->Flush(); }
  uint64_t live_blocks() const override {
    return base_->live_blocks() - deferred_.size();
  }

  /// A checkpoint is about to release the commit lock and publish a
  /// manifest referencing exactly `snapshot`: pin that set *now*, before
  /// writers may run again, so a concurrent merge cannot free one of its
  /// blocks and let a later allocation recycle the slot under the
  /// manifest being written. Ends with CommitCheckpoint() (publish
  /// succeeded) or AbortCheckpoint() (it failed).
  void BeginCheckpoint(const std::vector<BlockId>& snapshot);

  /// The manifest pinned by BeginCheckpoint() is durable: it becomes the
  /// recovery pin set, and every deferred free *not* in it is released on
  /// the base device. (A block freed while the manifest was in flight is
  /// still referenced by the now-durable manifest; its free stays
  /// deferred until the next checkpoint.) Errors from the base frees are
  /// returned but leave the wrapper consistent.
  Status CommitCheckpoint();

  /// The in-flight manifest failed: drop its pin set. Deferred frees for
  /// blocks only it pinned stay deferred — the Db poisons itself on a
  /// failed checkpoint, so no further allocation can recycle them anyway.
  void AbortCheckpoint();

  /// Single-step form (no concurrency window): BeginCheckpoint +
  /// CommitCheckpoint in one call, for callers that hold every lock
  /// across the whole publish.
  Status Commit(const std::vector<BlockId>& new_pinned);

  /// Blocks whose free is currently deferred (tests/introspection). Safe
  /// to call without the tree lock: the count is kept in an atomic.
  size_t deferred_frees() const {
    return deferred_count_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the quarantine: every block id that has failed checksum
  /// verification (on a read or a scrub) since open. Quarantined ids are
  /// never silently served; each access keeps returning Corruption. A
  /// block leaves quarantine only by being freed (e.g. a merge rewrote
  /// the level) — until then the set names what a repair tool must
  /// restore from a replica or backup.
  std::vector<BlockId> QuarantinedBlocks() const;
  size_t quarantined_count() const;

  // Like CachedBlockDevice, this wrapper mirrors the tree's logical I/O
  // into its own stats() (a deferred free counts as a free), so
  // tree->device()->stats() stays the complete account whether or not a
  // cache sits on top.
  //
  // Thread-compatibility: not internally locked. The Db's locking
  // discipline covers it — FreeBlock/WriteNewBlock run under the
  // exclusive tree lock, reads under the shared one, and the three
  // checkpoint calls under the commit lock (CommitCheckpoint additionally
  // under the exclusive tree lock, since it frees device slots readers
  // might otherwise probe).

 private:
  /// Adds `id` to the quarantine when `st` is a Corruption verdict.
  void NoteCorruption(BlockId id, const Status& st);
  /// Drops `id` from the quarantine after a successful free.
  void NoteFreed(BlockId id);

  BlockDevice* base_;
  std::unordered_set<BlockId> pinned_;
  /// Pin set of a manifest currently being written (empty otherwise).
  std::unordered_set<BlockId> checkpoint_pinned_;
  bool checkpoint_active_ = false;
  std::unordered_set<BlockId> deferred_;  ///< Freed by the tree, still pinned.
  /// deferred_.size(), readable by Db::Stats() under no tree lock (merges
  /// free blocks under the exclusive tree lock alone).
  std::atomic<size_t> deferred_count_{0};
  /// Quarantine has its own lock: corruption is discovered on the *read*
  /// path, where concurrent Db readers hold only the shared tree lock.
  mutable std::mutex quarantine_mu_;
  std::unordered_set<BlockId> quarantined_;
};

}  // namespace lsmssd

#endif  // LSMSSD_DB_PINNED_BLOCK_DEVICE_H_
