#include "src/db/pinned_block_device.h"

#include <string>

namespace lsmssd {

PinnedBlockDevice::PinnedBlockDevice(BlockDevice* base,
                                     std::vector<BlockId> pinned)
    : base_(base), pinned_(pinned.begin(), pinned.end()) {}

StatusOr<BlockId> PinnedBlockDevice::WriteNewBlock(const BlockData& data) {
  auto id_or = base_->WriteNewBlock(data);
  if (id_or.ok()) {
    stats_.RecordAllocate();
    stats_.RecordWrite();
  }
  return id_or;
}

Status PinnedBlockDevice::WriteBlocks(const std::vector<BlockData>& blocks,
                                      std::vector<BlockId>* ids) {
  LSMSSD_RETURN_IF_ERROR(base_->WriteBlocks(blocks, ids));
  for (size_t i = 0; i < blocks.size(); ++i) {
    stats_.RecordAllocate();
    stats_.RecordWrite();
  }
  if (blocks.size() > 1) stats_.RecordBatchWrite(blocks.size());
  return Status::OK();
}

Status PinnedBlockDevice::ReadBlocks(const std::vector<BlockId>& ids,
                                     std::vector<BlockData>* out) {
  for (BlockId id : ids) {
    if (deferred_.contains(id)) {
      return Status::NotFound("block " + std::to_string(id) +
                              " was freed (pinned for recovery only)");
    }
  }
  if (Status st = base_->ReadBlocks(ids, out); !st.ok()) {
    // The vectored path cannot tell us which block failed; replay
    // per-block so the offending id gets quarantined. (Error path only —
    // the extra physical reads are irrelevant next to the corruption.)
    for (BlockId id : ids) {
      BlockData scratch;
      if (Status per = base_->ReadBlock(id, &scratch); !per.ok()) {
        NoteCorruption(id, per);
        return per;
      }
    }
    return st;
  }
  for (size_t i = 0; i < ids.size(); ++i) stats_.RecordRead();
  if (ids.size() > 1) stats_.RecordBatchRead(ids.size());
  return Status::OK();
}

void PinnedBlockDevice::NoteCorruption(BlockId id, const Status& st) {
  if (!st.IsCorruption()) return;
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  quarantined_.insert(id);
}

std::vector<BlockId> PinnedBlockDevice::QuarantinedBlocks() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return std::vector<BlockId>(quarantined_.begin(), quarantined_.end());
}

size_t PinnedBlockDevice::quarantined_count() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.size();
}

Status PinnedBlockDevice::ReadBlock(BlockId id, BlockData* out) {
  if (deferred_.contains(id)) {
    return Status::NotFound("block " + std::to_string(id) +
                            " was freed (pinned for recovery only)");
  }
  if (Status st = base_->ReadBlock(id, out); !st.ok()) {
    NoteCorruption(id, st);
    return st;
  }
  stats_.RecordRead();
  return Status::OK();
}

StatusOr<std::shared_ptr<const BlockData>> PinnedBlockDevice::ReadBlockShared(
    BlockId id) {
  if (deferred_.contains(id)) {
    return Status::NotFound("block " + std::to_string(id) +
                            " was freed (pinned for recovery only)");
  }
  auto data_or = base_->ReadBlockShared(id);
  if (data_or.ok()) {
    stats_.RecordRead();
  } else {
    NoteCorruption(id, data_or.status());
  }
  return data_or;
}

Status PinnedBlockDevice::VerifyBlock(BlockId id) {
  if (deferred_.contains(id)) {
    return Status::NotFound("block " + std::to_string(id) +
                            " was freed (pinned for recovery only)");
  }
  Status st = base_->VerifyBlock(id);
  if (st.ok()) {
    stats_.RecordRead();
  } else {
    NoteCorruption(id, st);
  }
  return st;
}

Status PinnedBlockDevice::FreeBlock(BlockId id) {
  if (pinned_.contains(id) ||
      (checkpoint_active_ && checkpoint_pinned_.contains(id))) {
    if (!deferred_.insert(id).second) {
      return Status::NotFound("double free of pinned block " +
                              std::to_string(id));
    }
    deferred_count_.store(deferred_.size(), std::memory_order_relaxed);
    // Logically freed now; the physical slot recycles once no manifest
    // (durable or in flight) references it.
    stats_.RecordFree();
    NoteFreed(id);
    return Status::OK();
  }
  LSMSSD_RETURN_IF_ERROR(base_->FreeBlock(id));
  stats_.RecordFree();
  NoteFreed(id);
  return Status::OK();
}

void PinnedBlockDevice::NoteFreed(BlockId id) {
  // Freeing is the one exit from quarantine: the damaged slot no longer
  // backs live data (a merge rewrote the level, or the tree dropped it).
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  quarantined_.erase(id);
}

void PinnedBlockDevice::BeginCheckpoint(const std::vector<BlockId>& snapshot) {
  checkpoint_pinned_.clear();
  checkpoint_pinned_.insert(snapshot.begin(), snapshot.end());
  checkpoint_active_ = true;
}

Status PinnedBlockDevice::CommitCheckpoint() {
  pinned_.swap(checkpoint_pinned_);
  checkpoint_pinned_.clear();
  checkpoint_active_ = false;
  // Release deferred frees the new manifest does not pin. A block freed
  // by a merge *while* the manifest was being written is still referenced
  // by it and must stay deferred until the next checkpoint.
  Status first_error;
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    if (pinned_.contains(*it)) {
      ++it;
      continue;
    }
    if (Status st = base_->FreeBlock(*it); !st.ok() && first_error.ok()) {
      first_error = st;
    }
    it = deferred_.erase(it);
  }
  deferred_count_.store(deferred_.size(), std::memory_order_relaxed);
  return first_error;
}

void PinnedBlockDevice::AbortCheckpoint() {
  checkpoint_pinned_.clear();
  checkpoint_active_ = false;
}

Status PinnedBlockDevice::Commit(const std::vector<BlockId>& new_pinned) {
  BeginCheckpoint(new_pinned);
  return CommitCheckpoint();
}

}  // namespace lsmssd
