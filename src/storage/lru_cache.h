#ifndef LSMSSD_STORAGE_LRU_CACHE_H_
#define LSMSSD_STORAGE_LRU_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/storage/block.h"
#include "src/storage/block_device.h"

namespace lsmssd {

/// Block-granular LRU cache with pin support. Mirrors the paper's setup
/// (Section V): in addition to the memory-resident L0, an LRU buffer cache
/// holds data blocks; for partial-merge policies the internal index is
/// pinned (we keep leaf directories in memory outright, so pinning here is
/// only exercised by tests and by callers caching hot data blocks).
///
/// Thread-safe: every operation (including a Get, which reorders the LRU
/// list) runs under an internal mutex, so concurrent Db readers holding
/// the tree's shared lock may hit the cache simultaneously.
class LruCache {
 public:
  /// `capacity_blocks` = 0 disables caching entirely.
  explicit LruCache(size_t capacity_blocks);

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached contents of `id`, or nullptr on miss. A hit marks
  /// the entry most-recently-used.
  std::shared_ptr<const BlockData> Get(BlockId id);

  /// Whether `id` is cached. Unlike Get, counts no hit or miss and leaves
  /// the LRU order alone.
  bool Contains(BlockId id) const;

  /// Inserts (or refreshes) `id`. Evicts least-recently-used unpinned
  /// entries as needed. If everything is pinned and the cache is full, the
  /// insert is skipped (cache stays consistent, caller unaffected).
  void Put(BlockId id, BlockData data);

  /// Same, but adopts an already-shared block image without copying it
  /// (the zero-copy read path inserts device images directly).
  void Put(BlockId id, std::shared_ptr<const BlockData> data);

  /// Drops `id` if present (pinned or not). Called when a block is freed.
  void Erase(BlockId id);

  /// Pins `id` so it cannot be evicted; no-op if absent. Returns true if
  /// the block was present (and is now pinned).
  bool Pin(BlockId id);
  /// Removes the pin; no-op if absent or unpinned.
  void Unpin(BlockId id);

  /// Drops every entry *and* resets the hit/miss counters: a cleared
  /// cache starts a fresh accounting epoch (hit rates measured across a
  /// Clear() — e.g. across a reopen/restore — would be meaningless).
  void Clear();

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  struct Entry {
    BlockId id;
    std::shared_ptr<const BlockData> data;
    bool pinned = false;
  };
  using EntryList = std::list<Entry>;

  void EvictIfNeeded();  // Requires mu_ held.

  mutable std::mutex mu_;
  const size_t capacity_;
  EntryList lru_;  // Front = most recently used.
  std::unordered_map<BlockId, EntryList::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// BlockDevice decorator that serves reads from an LruCache and forwards
/// everything to the wrapped device. Writes are write-through (every block
/// write reaches the device and its IoStats — the paper's write counts are
/// never absorbed by caching). Cache hits are recorded as cached reads on
/// the underlying device's stats.
class CachedBlockDevice : public BlockDevice {
 public:
  /// `base` must outlive this object.
  CachedBlockDevice(BlockDevice* base, size_t cache_capacity_blocks);

  size_t block_size() const override { return base_->block_size(); }
  StatusOr<BlockId> WriteNewBlock(const BlockData& data) override;
  /// Forwards the whole batch to the base device (so slot coalescing and
  /// batch counters happen there), then write-through caches every block.
  Status WriteBlocks(const std::vector<BlockData>& blocks,
                     std::vector<BlockId>* ids) override;
  Status ReadBlock(BlockId id, BlockData* out) override;
  /// Zero-copy: a hit returns the cached image itself; a miss forwards to
  /// the base device's shared read and caches the resulting image, so the
  /// cache and every outstanding reader share one allocation per block.
  StatusOr<std::shared_ptr<const BlockData>> ReadBlockShared(
      BlockId id) override;
  /// Serves hits from the cache and batch-reads only the misses from the
  /// base device, preserving its coalescing for the cold subset.
  Status ReadBlocks(const std::vector<BlockId>& ids,
                    std::vector<BlockData>* out) override;
  Status FreeBlock(BlockId id) override;
  /// Bypasses the cache: scrubbing must check the backing copy, not a
  /// (necessarily valid) cached image.
  Status VerifyBlock(BlockId id) override;
  /// Forwards the corruption seam and drops any cached copy, so the next
  /// read observes the damaged backing block.
  Status CorruptBlockForTesting(BlockId id, const BlockData& data) override;
  Status ReadBlockUnverifiedForTesting(BlockId id, BlockData* out) override {
    return base_->ReadBlockUnverifiedForTesting(id, out);
  }
  Status Flush() override { return base_->Flush(); }
  uint64_t live_blocks() const override { return base_->live_blocks(); }

  LruCache& cache() { return cache_; }
  BlockDevice* base() { return base_; }

 private:
  BlockDevice* base_;
  LruCache cache_;
};

}  // namespace lsmssd

#endif  // LSMSSD_STORAGE_LRU_CACHE_H_
