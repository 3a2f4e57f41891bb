#include "src/db/value_log.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "src/db/db.h"  // Db::VlogSegmentPath, Db::ListVlogSegments.
#include "src/db/engine.h"
#include "src/db/fs_util.h"
#include "src/format/vlog_pointer.h"

namespace lsmssd {

namespace {

/// One past the last byte of the entry `ptr` names.
uint64_t EntryEnd(const VlogPointer& ptr) {
  return ptr.offset + vlog::kEntryHeaderSize + ptr.length;
}

}  // namespace

ValueLog::ValueLog(const std::string& dir, const DbOptions& dbopts,
                   size_t payload_size)
    : dir_(dir),
      segment_bytes_(dbopts.vlog_segment_bytes),
      gc_ratio_(dbopts.vlog_gc_ratio),
      entry_bytes_(vlog::kEntryHeaderSize + payload_size),
      injector_(dbopts.fault_injector) {}

std::string ValueLog::SegmentPath(uint64_t n) const {
  return Db::VlogSegmentPath(dir_, n);
}

StatusOr<std::unique_ptr<ValueLog>> ValueLog::Open(
    const std::string& dir, const DbOptions& dbopts, size_t payload_size,
    const VlogManifestState& state) {
  std::unique_ptr<ValueLog> log(new ValueLog(dir, dbopts, payload_size));
  log->head_file_ = state.head_file;
  log->tail_file_ = log->pending_tail_ = state.tail_file;
  log->frontier_[state.head_file] = state.head_offset;
  for (uint64_t n : Db::ListVlogSegments(dir)) {
    if (n < state.tail_file) {
      // Crash between the manifest publishing this tail and the segment
      // unlink: every live entry was already rewritten, finish the job.
      (void)::unlink(log->SegmentPath(n).c_str());
      continue;
    }
    log->durable_sizes_[n] = fsutil::FileSizeOrZero(log->SegmentPath(n));
    log->head_file_ = std::max(log->head_file_, n);  // Highest = the head.
  }
  // The manifest references entries up to head_offset of its head.
  if (state.head_offset > 0) {
    auto it = log->durable_sizes_.find(state.head_file);
    if (it == log->durable_sizes_.end() || it->second < state.head_offset) {
      return Status::Corruption("vlog segment " +
                                std::to_string(state.head_file) +
                                " is shorter than the manifest frontier");
    }
  }
  return log;
}

bool ValueLog::AdmitReplayedBatch(const std::vector<Record>& batch) {
  // Dangling pointers are always a *suffix* of the active log in commit
  // order — vlog appends precede WAL appends under the commit lock and
  // both tear as prefixes — so the first dangling batch ends the replay.
  for (const Record& r : batch) {
    if (r.is_tombstone()) continue;
    VlogPointer ptr;
    if (!DecodeVlogPointer(r.payload, &ptr)) return false;
    if (ptr.file < tail_file_) continue;
    auto it = durable_sizes_.find(ptr.file);
    if (it == durable_sizes_.end() || EntryEnd(ptr) > it->second) return false;
  }
  for (const Record& r : batch) {
    VlogPointer ptr;
    if (!r.is_tombstone() && DecodeVlogPointer(r.payload, &ptr) &&
        ptr.file >= tail_file_) {
      uint64_t& f = frontier_[ptr.file];
      f = std::max(f, EntryEnd(ptr));
    }
  }
  return true;
}

Status ValueLog::FinishRecovery() {
  // The head segment may carry bytes past every durable reference —
  // orphan entries whose WAL frames were lost, or a torn half-entry from
  // a sync crash. Sealed segments keep orphan *whole* entries (they are
  // dead, GC reclaims them with the segment).
  const uint64_t head_frontier = frontier_[head_file_];
  const std::string head_path = SegmentPath(head_file_);
  if (fsutil::FileSizeOrZero(head_path) > head_frontier &&
      ::truncate(head_path.c_str(), static_cast<off_t>(head_frontier)) != 0) {
    return fsutil::Errno("truncate vlog head " + head_path);
  }
  std::lock_guard<std::mutex> vlk(vlog_mu_);
  for (uint64_t n = tail_file_; n <= head_file_; ++n) {
    if (n != head_file_ && durable_sizes_.count(n) == 0) {
      continue;  // Absent and never referenced (Open checked): skip.
    }
    auto file_or = OpenSegment(n, /*writable=*/n == head_file_);
    if (!file_or.ok()) return file_or.status();
    files_[n] = std::move(file_or).value();
  }
  head_offset_ = head_frontier;
  head_ = files_[head_file_].get();
  durable_sizes_.clear();
  frontier_.clear();
  return Status::OK();
}

StatusOr<std::shared_ptr<VlogFile>> ValueLog::OpenSegment(
    uint64_t n, bool writable) const {
  auto base_or = PosixVlogFile::Open(SegmentPath(n));
  if (!base_or.ok()) return base_or.status();
  // Only the head is appended, so only it needs the injected page-cache
  // model; sealed segments are fully durable and read straight through.
  if (writable && injector_ != nullptr) {
    return std::shared_ptr<VlogFile>(std::make_shared<FaultInjectionVlogFile>(
        std::move(base_or).value(), injector_));
  }
  return std::shared_ptr<VlogFile>(std::move(base_or).value());
}

Status ValueLog::Append(Key key, std::string_view value, char* pointer) {
  if (head_offset_ >= segment_bytes_) {
    // Seal with an fsync: a sealed segment is never torn, so recovery
    // truncates the head alone and GC treats a short scan as damage.
    LSMSSD_RETURN_IF_ERROR(head_->Sync());
    auto file_or = OpenSegment(head_file_ + 1, /*writable=*/true);
    if (!file_or.ok()) return file_or.status();
    ++head_file_;
    head_offset_ = 0;
    std::lock_guard<std::mutex> vlk(vlog_mu_);
    auto& slot = files_[head_file_];
    slot = std::move(file_or).value();
    head_ = slot.get();
  }
  vlog::EncodeEntry(key, value, &entry_);
  LSMSSD_RETURN_IF_ERROR(head_->Append(entry_));
  VlogPointer ptr;
  ptr.file = static_cast<uint32_t>(head_file_);
  ptr.offset = head_offset_;
  ptr.length = static_cast<uint32_t>(value.size());
  head_offset_ += entry_.size();
  bytes_appended_ += entry_.size();
  EncodeVlogPointer(ptr, pointer);
  return Status::OK();
}

Status ValueLog::Resolve(std::string_view stored, Key key,
                         std::string* out) const {
  VlogPointer ptr;
  if (!DecodeVlogPointer(stored, &ptr)) {
    return Status::Corruption("malformed vlog pointer for key " +
                              std::to_string(key));
  }
  std::shared_ptr<VlogFile> file;
  {
    std::lock_guard<std::mutex> vlk(vlog_mu_);
    if (quarantine_.count({ptr.file, ptr.offset}) != 0) {
      return Status::Corruption(
          "vlog segment " + std::to_string(ptr.file) + " entry at offset " +
          std::to_string(ptr.offset) + " is quarantined");
    }
    auto it = files_.find(ptr.file);
    if (it == files_.end()) {
      return Status::Corruption("pointer into unknown vlog segment " +
                                std::to_string(ptr.file));
    }
    file = it->second;
  }
  Status st = vlog::ReadEntry(file.get(), ptr.offset, key, ptr.length, out);
  if (st.IsCorruption()) {
    // Damage is data-local, as for block quarantine: fence the entry.
    std::lock_guard<std::mutex> vlk(vlog_mu_);
    if (quarantine_.insert({ptr.file, ptr.offset}).second) {
      quarantined_entries_.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::Corruption("vlog segment " + std::to_string(ptr.file) +
                              ": " + st.message());
  }
  return st;
}

bool ValueLog::GcWanted(const std::function<uint64_t()>& live_records) const {
  if (pending_tail_ >= head_file_) return false;  // Head only.
  uint64_t total = head_offset_;
  {
    std::lock_guard<std::mutex> vlk(vlog_mu_);
    for (uint64_t n = pending_tail_; n < head_file_; ++n) {
      auto it = files_.find(n);
      if (it != files_.end()) total += it->second->size();
    }
  }
  if (total == 0) return false;
  // Anything beyond the live floor is dead weight: superseded versions,
  // orphans, tombstoned values.
  const uint64_t live = live_records() * entry_bytes_;
  if (live >= total) return false;
  return static_cast<double>(total - live) >=
         gc_ratio_ * static_cast<double>(total);
}

Status ValueLog::CollectOldest(std::unique_lock<std::mutex>& lk,
                               const Rewrite& rewrite) {
  const uint64_t seg = pending_tail_;
  if (seg >= head_file_) return Status::OK();
  std::shared_ptr<VlogFile> file;
  {
    std::lock_guard<std::mutex> vlk(vlog_mu_);
    auto it = files_.find(seg);
    if (it == files_.end()) {
      // Never created (or never referenced): nothing to rewrite.
      pending_tail_ = seg + 1;
      return Status::OK();
    }
    file = it->second;
  }
  uint64_t rewrites = 0;
  uint64_t intact_end = 0;
  lk.unlock();
  Status st = vlog::ScanEntries(
      file.get(), 0,
      [&](const vlog::EntryInfo& info, const std::string& value) -> Status {
        const VlogPointer ptr{static_cast<uint32_t>(seg), info.offset,
                              info.length};
        LSMSSD_ASSIGN_OR_RETURN(
            const bool rewritten,
            rewrite(info.key, value, EncodeVlogPointerToString(ptr)));
        rewrites += rewritten ? 1 : 0;
        return Status::OK();
      },
      &intact_end);
  lk.lock();
  LSMSSD_RETURN_IF_ERROR(st);
  if (intact_end != file->size()) {
    // Sealed segments were fsynced whole at roll time; a short scan means
    // real damage. Refuse to advance the tail over bytes that may still
    // hold the only copy of a live value.
    return Status::Corruption("vlog segment " + std::to_string(seg) +
                              " has unreadable entries; GC refused");
  }
  gc_rewrites_ += rewrites;
  pending_tail_ = seg + 1;
  return Status::OK();
}

Status ValueLog::DropBelow(uint64_t tail) {
  if (tail <= tail_file_) return Status::OK();
  if (injector_ != nullptr && injector_->Step()) {
    return Status::IoError("injected fault: crash before vlog segment unlink");
  }
  for (uint64_t n = tail_file_; n < tail; ++n) {
    const std::string path = SegmentPath(n);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return fsutil::Errno("unlink vlog segment " + path);
    }
    ++segments_reclaimed_;
  }
  std::lock_guard<std::mutex> vlk(vlog_mu_);
  for (uint64_t n = tail_file_; n < tail; ++n) files_.erase(n);
  for (auto it = quarantine_.begin();
       it != quarantine_.end() && it->first < tail;) {
    it = quarantine_.erase(it);
  }
  tail_file_ = tail;
  return Status::OK();
}

void ValueLog::AddStats(DbStats* s) const {
  s->vlog_segments = head_file_ - tail_file_ + 1;
  s->vlog_bytes_appended = bytes_appended_;
  s->vlog_gc_rewrites = gc_rewrites_;
  s->vlog_segments_reclaimed = segments_reclaimed_;
  s->vlog_quarantined_entries =
      quarantined_entries_.load(std::memory_order_relaxed);
}

}  // namespace lsmssd
