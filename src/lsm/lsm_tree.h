#ifndef LSMSSD_LSM_LSM_TREE_H_
#define LSMSSD_LSM_LSM_TREE_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/format/options.h"
#include "src/format/record.h"
#include "src/lsm/iterator.h"
#include "src/lsm/level.h"
#include "src/lsm/memtable.h"
#include "src/lsm/stats.h"
#include "src/policy/merge_policy.h"
#include "src/storage/block_device.h"
#include "src/storage/lru_cache.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd {

struct Manifest;

/// The LSM tree of the paper: a memory-resident L0 plus on-SSD levels
/// L1..L_{h-1} with geometrically increasing capacities (K_i = K0 *
/// Gamma^i), relaxed level storage, and pluggable merge policies
/// (Section II). Modifications enter L0; overflowing levels are merged
/// down by the configured policy; reads walk the levels top-down.
///
/// Typical usage:
///
///   Options options;
///   MemBlockDevice device(options.block_size);
///   auto tree = LsmTree::Open(options, &device,
///                             CreatePolicy(PolicyKind::kChooseBest));
///   tree.value()->Put(42, std::string(options.payload_size, 'x'));
///
/// Thread-compatible, not internally locked: the paper scopes concurrency
/// control out (Section II), and the tree keeps the paper's synchronous
/// merge structure. Concurrent reads (Get/Scan/NewIterator) are safe
/// against each other; any Put/Delete/merge must be exclusive. lsmssd::Db
/// layers exactly that reader/writer locking on top (see DESIGN.md,
/// "Threading model"); research code driving a bare LsmTree from one
/// thread needs no locks at all.
class LsmTree {
 public:
  /// Validates `options` (which must match `device->block_size()`), and
  /// builds an empty tree. `device` must outlive the tree.
  static StatusOr<std::unique_ptr<LsmTree>> Open(
      const Options& options, BlockDevice* device,
      std::unique_ptr<MergePolicy> policy);

  /// Reconstructs a tree from a Manifest snapshot (src/lsm/manifest.h)
  /// whose data blocks are already present on `device`. Bloom filters are
  /// rebuilt from the data blocks when enabled; leaf metadata is verified
  /// against block contents in that case.
  static StatusOr<std::unique_ptr<LsmTree>> Restore(
      const Manifest& manifest, BlockDevice* device,
      std::unique_ptr<MergePolicy> policy);

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  // ---- Modifications (may trigger merges) ---------------------------

  /// Inserts or blind-updates `key`. `payload` must be exactly
  /// Options::payload_size bytes.
  Status Put(Key key, std::string_view payload);

  /// Deletes `key` (logs a tombstone; the key need not exist).
  Status Delete(Key key);

  // ---- Step-driven write path -----------------------------------------
  //
  // The decoupled write path lsmssd::Db uses in both of its modes:
  // modifications land in the *active* memtable only (never merging
  // inline); when it fills, the caller seals it onto a queue of immutable
  // memtables, and compaction drains the queue one bounded step at a
  // time — on a background compaction thread, or on the writer itself
  // until no step is left. Compaction may run concurrently with PutNoMerge/
  // DeleteNoMerge as long as the caller serializes them against the
  // active memtable and the sealed list (Db's memtable lock) and gives
  // BackgroundCompactStep exclusive access to the levels (Db's tree
  // lock); see DESIGN.md, "Compaction scheduling & write stalls".

  /// Put/Delete without the MaybeMerge cascade. The active
  /// memtable may exceed its capacity transiently; the caller is expected
  /// to seal it.
  Status PutNoMerge(Key key, std::string_view payload);
  Status DeleteNoMerge(Key key);

  /// True once the active memtable holds >= K0 * B records (the same
  /// overflow test Put applies before merging).
  bool MemtableAtCapacity() const;

  /// Moves the active memtable onto the back of the sealed queue and
  /// installs a fresh empty one. No-op when the active memtable is empty.
  void SealMemtable();

  /// Sealed memtables not yet fully drained (the compaction queue depth).
  size_t sealed_count() const { return sealed_.size(); }
  /// Records across all sealed memtables.
  uint64_t sealed_records() const;

  /// True when a compaction step would do something (PlanCompaction
  /// offers a flush or a merge): a sealed memtable awaits flushing, or
  /// the L0 buffer or an on-SSD level is over capacity.
  bool HasCompactionWork() const;

  /// Kind of work one BackgroundCompactStep performed.
  enum class CompactStep { kNone, kFlush, kMerge };

  /// The compaction scheduler's choice of next step, made in this one
  /// place for every caller: BackgroundCompactStep and lsmssd::Engine's
  /// step runner (its compaction thread, or the inline writer's drain).
  struct CompactPlan {
    /// Flush the oldest sealed memtable first: one is queued and the L0
    /// buffer is not backlogged (see L0BufferBacklogged).
    bool flush = false;
    /// Otherwise merge out of the shallowest overflowing source
    /// (MergeSourceStep): 0 when the L0 buffer is at K0 capacity, else
    /// the first on-SSD level over K_i. Empty when nothing overflows.
    std::optional<size_t> merge_source;
  };
  CompactPlan PlanCompaction() const;

  /// Executes ONE bounded unit of compaction, the first in PlanCompaction's
  /// order — absorbing the oldest sealed memtable into the L0 buffer
  /// (kFlush), or one policy-selected merge out of the first merge source
  /// (kMerge) — and returns without cascading, so the caller can release
  /// its exclusive lock between steps and writers/readers interleave.
  /// Levels may be over capacity between steps; repeated calls until
  /// kNone restore every invariant. Failure atomicity matches
  /// MergeExecutor::Merge. Single-threaded convenience over the phase
  /// methods below; lsmssd::Engine drives the phases itself so each can
  /// run under exactly the locks it needs.
  StatusOr<CompactStep> BackgroundCompactStep();

  // The phases of one step. Locking contracts (Engine's discipline, see
  // DESIGN.md "Compaction scheduling & write stalls"): FrontSealed/
  // FlushSealedStep/PopSealedIfDrained touch only memory-resident state
  // (the sealed queue and the L0 buffer), so a flush runs entirely under
  // the exclusive *memtable* lock and never takes the tree lock. Merge
  // steps (MergeSourceStep) mutate levels and device metadata and need
  // the exclusive tree lock. The L0 buffer is written by both a flush
  // (absorb) and an L0 spill (Slice/EraseRange inside MergeSourceStep(0))
  // under different locks, so one thread at a time may run steps.

  /// The sealed memtable the next flush step drains (the oldest), or
  /// nullptr when the queue is empty.
  Memtable* FrontSealed() {
    return sealed_.empty() ? nullptr : sealed_.front().get();
  }
  /// Absorbs `m` (which must be FrontSealed()) completely into the
  /// memory-resident L0 buffer — pure memory, no device I/O, so `m` is
  /// always drained when this returns. The buffer plays the L0 role the
  /// active memtable plays under Put: records spill to L1 only through
  /// policy-windowed merges once it overflows (MergeSourceStep(0)).
  Status FlushSealedStep(Memtable* m);
  /// Pops the front sealed memtable if a flush step emptied it; returns
  /// whether it popped.
  bool PopSealedIfDrained();

  /// One policy-selected merge out of `source` (0 = the L0 buffer spill,
  /// i >= 1 = level Li into Li+1), growing the tree by one level first
  /// when the target does not exist yet. Returns kNone when `source` is
  /// not overflowing. Failure atomicity matches MergeExecutor::Merge.
  StatusOr<CompactStep> MergeSourceStep(size_t source);

  /// Records currently absorbed into the L0 buffer (always 0 when the
  /// tree is driven through Put/Delete alone).
  uint64_t l0_buffer_records() const { return l0_buffer_.size(); }

  // ---- Reads ---------------------------------------------------------

  /// Returns the payload for `key`, or NotFound.
  StatusOr<std::string> Get(Key key);

  /// Memory-resident half of Get: probes the active memtable, then the
  /// sealed memtables newest-first. Returns the winning record (possibly
  /// a tombstone) or nullptr when no memtable has the key. Split out so
  /// lsmssd::Db can hold its memtable lock for exactly this probe.
  const Record* FindInMemtables(Key key) const;

  /// On-SSD half of Get: walks the levels top-down. The caller must have
  /// established that no memtable shadows `key`.
  StatusOr<std::string> GetFromLevels(Key key);
  /// False when GetFromLevels(key) finds every block it may read in the
  /// buffer cache, so it reads nothing from the device. Conservative (a
  /// deeper level's block counts even if a shallower level holds the
  /// key), and it counts no hit or miss and reorders no cache entry.
  bool GetFromLevelsReadsDevice(Key key) const;

  /// Collects all live (non-deleted) records with keys in [lo, hi], in key
  /// order.
  Status Scan(Key lo, Key hi,
              std::vector<std::pair<Key, std::string>>* out);

  /// Streaming forward iterator over all live records (see iterator.h).
  /// The tree must not be modified while the iterator is in use.
  std::unique_ptr<Iterator> NewIterator() const;

  // ---- Introspection (used by policies, tests, benches) --------------

  /// Total number of levels h, *including* the memory-resident L0.
  size_t num_levels() const { return 1 + levels_.size(); }
  /// The L0 a merge policy should look at: normally the active memtable;
  /// during a background flush step, the sealed memtable being drained
  /// (so SelectMerge and the L0 merge path work unchanged against it).
  const Memtable& memtable() const {
    return compacting_l0_ != nullptr ? *compacting_l0_ : memtable_;
  }
  /// Record count of the *active* memtable, bypassing the compacting_l0_
  /// redirect above.
  size_t active_memtable_records() const { return memtable_.size(); }
  /// Consolidated snapshot of every memory-resident record (active +
  /// sealed memtables, newest version of each key, tombstones kept), in
  /// key order — what a manifest must persist so deleting WAL segments
  /// after a checkpoint cannot lose queued-but-unflushed writes.
  std::vector<Record> MemtableSnapshot() const;
  /// On-SSD level L_i, 1 <= i < num_levels().
  const Level& level(size_t i) const;
  Level* mutable_level(size_t i);
  const Options& options() const { return options_; }
  /// The device all tree I/O goes through. With Options::cache_blocks > 0
  /// this is the tree-owned CachedBlockDevice wrapping the device passed
  /// to Open/Restore; its IoStats mirror the base device's write/alloc/
  /// free counts, so block-write accounting is unchanged by caching.
  BlockDevice* device() { return device_; }
  /// The tree-owned buffer cache, or nullptr when cache_blocks == 0.
  CachedBlockDevice* cache_device() { return cache_device_.get(); }
  const LsmStats& stats() const { return stats_; }
  MergePolicy* policy() { return policy_.get(); }
  /// Swaps the merge policy (e.g., while learning Mixed parameters).
  void set_policy(std::unique_ptr<MergePolicy> policy);

  /// K_i in blocks.
  uint64_t LevelCapacityBlocks(size_t i) const {
    return options_.LevelCapacityBlocks(i);
  }
  bool IsBottomLevel(size_t i) const { return i + 1 == num_levels(); }

  /// Records across all levels (including tombstones).
  uint64_t TotalRecords() const;
  /// Live-record payload bytes, approximated as records * record_size.
  uint64_t ApproximateDataBytes() const;

  /// Verifies structural invariants of every level (plus, with `deep`,
  /// block contents against metadata). Test/debug helper.
  Status CheckInvariants(bool deep = false) const;

 private:
  LsmTree(const Options& options, BlockDevice* device,
          std::unique_ptr<MergePolicy> policy);

  bool LevelOverflowing(size_t i) const;
  /// True once the L0 buffer holds at least twice its nominal K0
  /// capacity. Flush steps must then yield to overflow merges: a flush
  /// absorbs a sealed memtable with no device I/O while a merge pays
  /// real device time, so under a sustained write burst flush-first
  /// scheduling starves merges and the buffer grows without bound.
  /// Yielding at 2x caps the buffer near 2*K0*B + one memtable and
  /// turns the excess into queue backpressure the writers can see.
  bool L0BufferBacklogged() const;
  /// Runs merges until no level overflows (top-down cascade).
  Status MaybeMerge();
  /// One merge out of `source_level`, as selected by the policy.
  Status ExecuteMerge(size_t source_level);
  /// True once the L0 buffer holds >= K0 * B records (same overflow test
  /// Put applies to the active memtable).
  bool L0BufferOverflowing() const;
  void AddLevel();
  /// The memtable ExecuteMerge(0) drains: the redirect target during a
  /// background flush step, the active memtable otherwise.
  Memtable& l0() { return compacting_l0_ != nullptr ? *compacting_l0_ : memtable_; }
  const Memtable& l0() const {
    return compacting_l0_ != nullptr ? *compacting_l0_ : memtable_;
  }

  Options options_;
  /// Owned buffer cache around the caller's device (null when disabled).
  std::unique_ptr<CachedBlockDevice> cache_device_;
  /// cache_device_.get() when caching is on, else the caller's device.
  BlockDevice* device_;
  std::unique_ptr<MergePolicy> policy_;
  Memtable memtable_;
  /// Sealed (immutable) memtables awaiting a flush step, oldest at the
  /// front. Only SealMemtable appends; only flush steps drain. Always
  /// empty when the tree is driven through Put/Delete alone.
  std::deque<std::unique_ptr<Memtable>> sealed_;
  /// The step-driven path's memory-resident L0: flush steps absorb sealed
  /// memtables here (newest wins), and overflow steps spill policy-
  /// selected windows to L1 once it reaches K0 capacity — the role the
  /// active memtable plays under Put/MaybeMerge. Read precedence: below
  /// every sealed memtable, above the levels. Mutated only by flush steps
  /// and L0 spills (see the phase comment above for their locks); always
  /// empty when the tree is driven through Put/Delete alone.
  Memtable l0_buffer_;
  /// Set for the duration of a background flush step: memtable()/l0()
  /// return the sealed memtable being drained instead of the active one.
  Memtable* compacting_l0_ = nullptr;
  std::vector<std::unique_ptr<Level>> levels_;  // levels_[0] is L1.
  LsmStats stats_;
};

}  // namespace lsmssd

#endif  // LSMSSD_LSM_LSM_TREE_H_
