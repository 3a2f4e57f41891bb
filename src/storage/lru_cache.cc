#include "src/storage/lru_cache.h"

#include <utility>

#include "src/util/logging.h"

namespace lsmssd {

LruCache::LruCache(size_t capacity_blocks) : capacity_(capacity_blocks) {}

std::shared_ptr<const BlockData> LruCache::Get(BlockId id) {
  // A disabled cache (capacity 0) is "no cache", not a cache that always
  // misses: counting misses here would make IoStats report a 0% hit rate
  // for runs that never had a cache at all.
  if (capacity_ == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(id);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // Move to front.
  return it->second->data;
}

bool LruCache::Contains(BlockId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.contains(id);
}

void LruCache::Put(BlockId id, BlockData data) {
  Put(id, std::make_shared<const BlockData>(std::move(data)));
}

void LruCache::Put(BlockId id, std::shared_ptr<const BlockData> data) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(id);
  if (it != map_.end()) {
    it->second->data = std::move(data);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{id, std::move(data), /*pinned=*/false});
  map_.emplace(id, lru_.begin());
  EvictIfNeeded();
}

void LruCache::Erase(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(id);
  if (it == map_.end()) return;
  lru_.erase(it->second);
  map_.erase(it);
}

bool LruCache::Pin(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(id);
  if (it == map_.end()) return false;
  it->second->pinned = true;
  return true;
}

void LruCache::Unpin(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(id);
  if (it == map_.end()) return;
  it->second->pinned = false;
}

void LruCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  // A cleared cache starts a fresh accounting epoch; stale hit/miss tallies
  // must not leak into post-Clear() hit rates.
  hits_ = 0;
  misses_ = 0;
}

void LruCache::EvictIfNeeded() {
  while (map_.size() > capacity_) {
    // Scan from the back (least recently used) for an unpinned victim.
    auto victim = lru_.end();
    for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
      if (!rit->pinned) {
        victim = std::prev(rit.base());
        break;
      }
    }
    if (victim == lru_.end()) {
      // Everything pinned: give up on shrinking; drop the newest unpinned
      // insert instead (it is at the front and unpinned by construction,
      // unless the caller pinned it already — then we simply stay over
      // capacity until something is unpinned).
      return;
    }
    map_.erase(victim->id);
    lru_.erase(victim);
  }
}

CachedBlockDevice::CachedBlockDevice(BlockDevice* base,
                                     size_t cache_capacity_blocks)
    : base_(base), cache_(cache_capacity_blocks) {
  LSMSSD_CHECK(base != nullptr);
}

StatusOr<BlockId> CachedBlockDevice::WriteNewBlock(const BlockData& data) {
  auto id_or = base_->WriteNewBlock(data);
  if (!id_or.ok()) return id_or;
  stats_.RecordAllocate();
  stats_.RecordWrite();
  cache_.Put(id_or.value(), data);  // Write-through.
  return id_or;
}

Status CachedBlockDevice::WriteBlocks(const std::vector<BlockData>& blocks,
                                      std::vector<BlockId>* ids) {
  const size_t first = ids->size();
  LSMSSD_RETURN_IF_ERROR(base_->WriteBlocks(blocks, ids));
  for (size_t i = 0; i < blocks.size(); ++i) {
    stats_.RecordAllocate();
    stats_.RecordWrite();
    cache_.Put((*ids)[first + i], blocks[i]);  // Write-through.
  }
  if (blocks.size() > 1) stats_.RecordBatchWrite(blocks.size());
  return Status::OK();
}

Status CachedBlockDevice::ReadBlock(BlockId id, BlockData* out) {
  auto data_or = ReadBlockShared(id);
  if (!data_or.ok()) return data_or.status();
  *out = *data_or.value();
  return Status::OK();
}

StatusOr<std::shared_ptr<const BlockData>> CachedBlockDevice::ReadBlockShared(
    BlockId id) {
  if (auto cached = cache_.Get(id)) {
    stats_.RecordCachedRead();
    stats_.RecordCacheHit();
    base_->stats().RecordCachedRead();
    base_->stats().RecordCacheHit();
    return cached;
  }
  auto data_or = base_->ReadBlockShared(id);
  if (!data_or.ok()) return data_or;
  stats_.RecordRead();
  // A disabled cache (capacity 0) reports no hits *and* no misses — the
  // stats say "no cache", not "0% hit rate".
  if (cache_.capacity() > 0) {
    stats_.RecordCacheMiss();
    base_->stats().RecordCacheMiss();
  }
  cache_.Put(id, data_or.value());
  return data_or;
}

Status CachedBlockDevice::ReadBlocks(const std::vector<BlockId>& ids,
                                     std::vector<BlockData>* out) {
  out->resize(ids.size());
  std::vector<BlockId> miss_ids;
  std::vector<size_t> miss_slots;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (auto cached = cache_.Get(ids[i])) {
      (*out)[i] = *cached;
      stats_.RecordCachedRead();
      stats_.RecordCacheHit();
      base_->stats().RecordCachedRead();
      base_->stats().RecordCacheHit();
    } else {
      miss_ids.push_back(ids[i]);
      miss_slots.push_back(i);
    }
  }
  if (!miss_ids.empty()) {
    std::vector<BlockData> fetched;
    LSMSSD_RETURN_IF_ERROR(base_->ReadBlocks(miss_ids, &fetched));
    for (size_t m = 0; m < miss_ids.size(); ++m) {
      stats_.RecordRead();
      if (cache_.capacity() > 0) {
        stats_.RecordCacheMiss();
        base_->stats().RecordCacheMiss();
      }
      cache_.Put(miss_ids[m], fetched[m]);
      (*out)[miss_slots[m]] = std::move(fetched[m]);
    }
    if (miss_ids.size() > 1) stats_.RecordBatchRead(miss_ids.size());
  }
  return Status::OK();
}

Status CachedBlockDevice::VerifyBlock(BlockId id) {
  Status st = base_->VerifyBlock(id);
  stats_.RecordRead();
  return st;
}

Status CachedBlockDevice::CorruptBlockForTesting(BlockId id,
                                                 const BlockData& data) {
  cache_.Erase(id);
  return base_->CorruptBlockForTesting(id, data);
}

Status CachedBlockDevice::FreeBlock(BlockId id) {
  cache_.Erase(id);
  LSMSSD_RETURN_IF_ERROR(base_->FreeBlock(id));
  stats_.RecordFree();
  return Status::OK();
}

}  // namespace lsmssd
