#include "src/db/engine.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <shared_mutex>  // std::shared_lock

#include "src/db/db.h"  // The directory layout (Db::ManifestPath, ...).
#include "src/db/fs_util.h"
#include "src/lsm/manifest.h"
#include "src/storage/fault_injection_wal_file.h"
#include "src/util/logging.h"

namespace lsmssd {

namespace {

// POSIX helpers live in fs_util.h (shared with db.cc).
using fsutil::Errno;
using fsutil::FileExists;
using fsutil::FileSizeOrZero;
using fsutil::SyncDir;
using fsutil::WriteFile;

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

/// Iterator wrapper that pins the engine's tree by holding its shared tree
/// lock until destroyed: the underlying tree iterator stays valid, and
/// writers (which need the lock exclusively) wait.
class SnapshotIterator : public Iterator {
 public:
  /// `mem_lock` pins the memtables the iterator reads, which writers
  /// mutate under their own lock rather than the tree lock.
  SnapshotIterator(std::shared_lock<SharedMutex> lock,
                   std::shared_lock<SharedMutex> mem_lock,
                   std::unique_ptr<Iterator> base)
      : lock_(std::move(lock)),
        mem_lock_(std::move(mem_lock)),
        base_(std::move(base)) {}

  bool Valid() const override { return base_->Valid(); }
  void SeekToFirst() override { base_->SeekToFirst(); }
  void Seek(Key target) override { base_->Seek(target); }
  void Next() override { base_->Next(); }
  Key key() const override { return base_->key(); }
  const std::string& value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  std::shared_lock<SharedMutex> lock_;
  std::shared_lock<SharedMutex> mem_lock_;
  std::unique_ptr<Iterator> base_;
};

/// Iterator layer for key–value separation: the base (a SnapshotIterator,
/// which holds the engine's read locks for its lifetime) yields pointer
/// payloads; value() resolves the current one through the value log,
/// caching per position. A corrupt entry surfaces through status() with
/// an empty value rather than tearing the whole iteration down.
class VlogResolvingIterator : public Iterator {
 public:
  using Resolver = std::function<Status(std::string_view, Key, std::string*)>;
  VlogResolvingIterator(std::unique_ptr<Iterator> base, Resolver resolver)
      : base_(std::move(base)), resolver_(std::move(resolver)) {}

  bool Valid() const override { return base_->Valid(); }
  void SeekToFirst() override {
    resolved_valid_ = false;
    base_->SeekToFirst();
  }
  void Seek(Key target) override {
    resolved_valid_ = false;
    base_->Seek(target);
  }
  void Next() override {
    resolved_valid_ = false;
    base_->Next();
  }
  Key key() const override { return base_->key(); }
  const std::string& value() const override {
    if (!resolved_valid_) {
      Status st = resolver_(base_->value(), base_->key(), &resolved_);
      if (!st.ok()) {
        resolved_.clear();
        status_ = std::move(st);
      }
      resolved_valid_ = true;
    }
    return resolved_;
  }
  Status status() const override {
    if (!status_.ok()) return status_;
    return base_->status();
  }

 private:
  std::unique_ptr<Iterator> base_;
  Resolver resolver_;
  mutable std::string resolved_;
  mutable bool resolved_valid_ = false;
  mutable Status status_;
};

}  // namespace

Engine::Engine(DbOptions dbopts, std::string dir)
    : dbopts_(std::move(dbopts)), dir_(std::move(dir)) {}

StatusOr<std::unique_ptr<Engine>> Engine::Open(const DbOptions& dbopts,
                                               const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir " + dir);
  }
  const std::string manifest_path = Db::ManifestPath(dir);
  const bool have_manifest = FileExists(manifest_path);
  const std::vector<std::string> wal_segments = Db::ListWalSegments(dir);
  // A log in another format is refused before anything is touched: no
  // file of the directory changes on the way to that error.
  for (const std::string& path : wal_segments) {
    LSMSSD_RETURN_IF_ERROR(WalReader::CheckHeader(path));
  }
  LSMSSD_RETURN_IF_ERROR(WalReader::CheckHeader(Db::WalPath(dir)));
  // A leftover MANIFEST.tmp is a checkpoint that crashed before its
  // rename; the previous MANIFEST is still the durable truth.
  (void)::unlink(Db::ManifestTmpPath(dir).c_str());

  std::unique_ptr<Engine> engine(new Engine(dbopts, dir));

  // Checkpoint (if any) -> device -> tree.
  Manifest manifest;
  std::vector<BlockId> manifest_blocks;
  if (have_manifest) {
    auto manifest_or = LoadManifestFromFile(manifest_path);
    if (!manifest_or.ok()) return manifest_or.status();
    manifest = std::move(manifest_or).value();
    // Stored format fields are authoritative; runtime-only knobs follow
    // the caller.
    manifest.options.cache_blocks = dbopts.options.cache_blocks;
    manifest.options.bloom_bits_per_key = dbopts.options.bloom_bits_per_key;
    manifest.options.io_batch_blocks = dbopts.options.io_batch_blocks;
    for (const auto& level : manifest.levels) {
      for (const LeafMeta& leaf : level) manifest_blocks.push_back(leaf.block);
    }
  }

  FileBlockDevice::FileOptions fopts;
  fopts.block_size =
      have_manifest ? manifest.options.block_size : dbopts.options.block_size;
  fopts.remove_on_close = false;
  // Without a manifest no block is referenced by any durable state, so a
  // pre-existing device file (crash before the first checkpoint) is
  // starting-over garbage.
  fopts.truncate = !have_manifest;
  fopts.max_blocks = dbopts.max_device_blocks;
  auto device_or = FileBlockDevice::Open(Db::DevicePath(dir), fopts);
  if (!device_or.ok()) return device_or.status();
  engine->device_ = std::move(device_or).value();
  if (have_manifest) {
    LSMSSD_RETURN_IF_ERROR(engine->device_->RestoreLive(manifest_blocks));
  }

  BlockDevice* dev = engine->device_.get();
  if (dbopts.fault_injector != nullptr) {
    engine->fault_device_ = std::make_unique<FaultInjectionBlockDevice>(
        dev, dbopts.fault_injector);
    dev = engine->fault_device_.get();
  }
  engine->pinned_ = std::make_unique<PinnedBlockDevice>(dev, manifest_blocks);
  engine->recovery_manifest_blocks_ = manifest_blocks.size();

  auto policy = CreatePolicy(dbopts.policy, dbopts.mixed_params);
  auto tree_or =
      have_manifest
          ? LsmTree::Restore(manifest, engine->pinned_.get(), std::move(policy))
          : LsmTree::Open(dbopts.options, engine->pinned_.get(),
                          std::move(policy));
  if (!tree_or.ok()) return tree_or.status();
  engine->tree_ = std::move(tree_or).value();

  // Key–value separation: the stored threshold is format-defining, so
  // the *tree's* options (manifest-authoritative) decide, not the
  // caller's. Discover the durable segments before replay — WAL pointer
  // records are validated against the durable vlog frontier below.
  engine->vlog_on_ = engine->tree_->options().vlog_enabled();
  const VlogManifestState& vm = manifest.vlog;  // Zeros without a manifest.
  uint64_t vlog_last = 0;  // Highest existing segment = the head.
  std::map<uint64_t, uint64_t> vlog_sizes;  // Durable size per segment.
  std::map<uint64_t, uint64_t> vlog_frontier;  // Max replayed pointer end.
  if (engine->vlog_on_) {
    engine->vlog_tail_file_ = vm.tail_file;
    engine->vlog_pending_tail_ = vm.tail_file;
    vlog_last = vm.head_file;
    for (uint64_t n : Db::ListVlogSegments(dir)) {
      if (n < vm.tail_file) {
        // Crash between the manifest publishing this tail and the segment
        // unlink: every live entry was already rewritten, finish the job.
        (void)::unlink(Db::VlogSegmentPath(dir, n).c_str());
        continue;
      }
      vlog_sizes[n] = FileSizeOrZero(Db::VlogSegmentPath(dir, n));
      vlog_last = std::max(vlog_last, n);
    }
    // The manifest's tree state references entries up to head_offset; a
    // head segment shorter than that lost durable (fsynced) bytes.
    if (vm.head_offset > 0) {
      auto it = vlog_sizes.find(vm.head_file);
      if (it == vlog_sizes.end() || it->second < vm.head_offset) {
        return Status::Corruption(
            "vlog segment " + std::to_string(vm.head_file) +
            " is shorter than the manifest frontier");
      }
    }
  }

  // A WAL pointer record "dangles" when its entry ends past the durable
  // bytes of its segment: the WAL fsync outran the vlog bytes (a crash in
  // the window between the vlog sync and the WAL sync, or kNone losing
  // the page cache). Dangling entries are always a *suffix* of the active
  // log in commit order — vlog appends precede WAL appends under the
  // commit lock and both tear as prefixes — so recovery drops the suffix.
  // Pointers *below* the manifest tail are stale (GC already rewrote
  // those keys later in the log) and replay harmlessly as blind writes.
  auto vlog_dangles = [&](const Record& r) -> bool {
    if (!engine->vlog_on_ || r.is_tombstone()) return false;
    VlogPointer ptr;
    if (!DecodeVlogPointer(r.payload, &ptr)) return true;
    if (ptr.file < vm.tail_file) return false;
    auto it = vlog_sizes.find(ptr.file);
    const uint64_t size = it == vlog_sizes.end() ? 0 : it->second;
    return ptr.offset + vlog::kEntryHeaderSize + ptr.length > size;
  };

  // Replay the WAL on top of the checkpoint, oldest first: rotated
  // segments (a checkpoint's manifest write crashed after rotating the
  // log), then the active log. Blind-write semantics make this safe even
  // when the manifest already includes a prefix of the replayed entries
  // (crash between manifest rename and segment unlink). Each entry is
  // applied like a commit and drained like an inline writer, in either
  // mode: the compaction thread starts only after recovery.
  // A replayed pointer at or above the manifest tail extends the durable
  // frontier of its segment (checked by vlog_dangles before replay).
  auto replay_records = [&](const std::vector<Record>& records,
                            size_t limit) -> Status {
    LsmTree* tree = engine->tree_.get();
    for (size_t i = 0; i < limit; ++i) {
      const Record& r = records[i];
      VlogPointer ptr;
      if (engine->vlog_on_ && !r.is_tombstone() &&
          DecodeVlogPointer(r.payload, &ptr) && ptr.file >= vm.tail_file) {
        uint64_t& f = vlog_frontier[ptr.file];
        f = std::max(f, ptr.offset + vlog::kEntryHeaderSize + ptr.length);
      }
      Status st = r.is_tombstone() ? tree->DeleteNoMerge(r.key)
                                   : tree->PutNoMerge(r.key, r.payload);
      if (st.IsInvalidArgument()) {
        // A checksummed entry the tree rejects means the log lied about
        // its own contents.
        return Status::Corruption("WAL replay: " + st.message());
      }
      LSMSSD_RETURN_IF_ERROR(st);
      LSMSSD_RETURN_IF_ERROR(engine->DrainCompactionLocked());
      ++engine->recovery_replayed_;
    }
    return Status::OK();
  };

  for (const std::string& seg_path : wal_segments) {
    size_t seg_valid_bytes = 0;
    auto seg_or = WalReader::ReadAll(seg_path, &seg_valid_bytes);
    if (!seg_or.ok()) return seg_or.status();
    // Rotation only ever renames a fully synced, quiesced log, so a torn
    // tail in a *segment* is real corruption, not a benign crash artifact
    // (unlike the active log below). The same holds for its vlog bytes:
    // rotation happens after a full sync pass that covers the vlog first,
    // so a rotated entry whose pointer dangles lost durable data.
    if (seg_valid_bytes < FileSizeOrZero(seg_path)) {
      return Status::Corruption("rotated WAL segment " + seg_path +
                                " has a torn tail");
    }
    for (const Record& r : seg_or.value()) {
      if (vlog_dangles(r)) {
        return Status::Corruption("rotated WAL segment " + seg_path +
                                  " references lost vlog bytes");
      }
    }
    LSMSSD_RETURN_IF_ERROR(replay_records(seg_or.value(),
                                          seg_or.value().size()));
    engine->wal_old_bytes_ += seg_valid_bytes;
    const uint64_t seq = std::stoull(seg_path.substr(seg_path.rfind('.') + 1));
    engine->next_wal_segment_ = std::max(engine->next_wal_segment_, seq + 1);
  }

  const std::string wal_path = Db::WalPath(dir);
  size_t wal_valid_bytes = 0;
  std::vector<size_t> wal_entry_offsets;
  auto replay_or = WalReader::ReadAll(wal_path, &wal_valid_bytes,
                                      &wal_entry_offsets);
  if (!replay_or.ok()) return replay_or.status();
  // Active log: cut at the start of the batch holding the first dangling
  // pointer (suffix drop — all acked-durable entries had their vlog bytes
  // synced first, so only an unacknowledged tail can dangle). A batch
  // replays whole or not at all, so the entries before the dangling one
  // in its batch are cut too; no sync acknowledged any of them.
  size_t wal_keep = replay_or.value().size();
  for (size_t i = 0; i < replay_or.value().size(); ++i) {
    if (vlog_dangles(replay_or.value()[i])) {
      wal_valid_bytes = wal_entry_offsets[i];
      wal_keep = i;
      while (wal_keep > 0 &&
             wal_entry_offsets[wal_keep - 1] == wal_valid_bytes) {
        --wal_keep;
      }
      break;
    }
  }
  LSMSSD_RETURN_IF_ERROR(replay_records(replay_or.value(), wal_keep));

  // The log's intact prefix stays (a crash before the next checkpoint
  // must replay it again), but a torn tail is cut off *before* new
  // appends — an entry written behind a tear would be unreachable on the
  // next replay.
  if (FileSizeOrZero(wal_path) > wal_valid_bytes) {
    if (::truncate(wal_path.c_str(), static_cast<off_t>(wal_valid_bytes)) !=
        0) {
      return Errno("truncate torn WAL tail " + wal_path);
    }
  }
  auto writer_or = engine->MakeWalWriter(wal_path);
  if (!writer_or.ok()) return writer_or.status();
  engine->wal_ = std::move(writer_or).value();
  engine->wal_recovered_bytes_ = wal_valid_bytes;

  if (engine->vlog_on_) {
    // The head segment may carry bytes past every durable reference —
    // orphan entries whose WAL frames were lost, or a torn half-entry
    // from a sync crash. Truncate it to the durable frontier so no
    // unreferenced byte survives recovery; sealed segments keep orphan
    // *whole* entries (they are dead, GC reclaims them with the segment).
    uint64_t head_frontier = 0;
    if (auto it = vlog_frontier.find(vlog_last); it != vlog_frontier.end()) {
      head_frontier = it->second;
    }
    if (vm.head_file == vlog_last) {
      head_frontier = std::max(head_frontier, vm.head_offset);
    }
    const std::string head_path = Db::VlogSegmentPath(dir, vlog_last);
    if (FileSizeOrZero(head_path) > head_frontier &&
        ::truncate(head_path.c_str(),
                   static_cast<off_t>(head_frontier)) != 0) {
      return Errno("truncate vlog head " + head_path);
    }
    for (uint64_t n = vm.tail_file; n <= vlog_last; ++n) {
      if (n != vlog_last && vlog_sizes.find(n) == vlog_sizes.end()) {
        continue;  // Never referenced (checked above) and absent: skip.
      }
      auto file_or = engine->MakeVlogFile(n, /*writable=*/n == vlog_last);
      if (!file_or.ok()) return file_or.status();
      engine->vlog_files_[n] = std::move(file_or).value();
    }
    engine->vlog_head_file_ = vlog_last;
    engine->vlog_head_offset_ = head_frontier;
    engine->vlog_head_ = engine->vlog_files_[vlog_last].get();
  }

  if ((dbopts.background_checkpoint && dbopts.checkpoint_wal_bytes > 0) ||
      dbopts.scrub_interval_ms > 0 ||
      (engine->vlog_on_ && dbopts.vlog_gc_ratio > 0)) {
    engine->maintenance_ = std::thread(&Engine::MaintenanceLoop, engine.get());
  }
  if (dbopts.background_compaction) {
    engine->compaction_ = std::thread(&Engine::CompactionLoop, engine.get());
  }
  return engine;
}

StatusOr<std::unique_ptr<WalWriter>> Engine::MakeWalWriter(
    const std::string& path) const {
  if (dbopts_.fault_injector != nullptr) {
    auto base_or = PosixWalFile::Open(path);
    if (!base_or.ok()) return base_or.status();
    return WalWriter::Wrap(std::make_unique<FaultInjectionWalFile>(
        std::move(base_or).value(), dbopts_.fault_injector));
  }
  return WalWriter::Open(path);
}

StatusOr<std::shared_ptr<VlogFile>> Engine::MakeVlogFile(uint64_t n,
                                                     bool writable) const {
  auto base_or = PosixVlogFile::Open(Db::VlogSegmentPath(dir_, n));
  if (!base_or.ok()) return base_or.status();
  // Only the head is appended, so only it needs the injected page-cache
  // model; sealed segments are fully durable and read straight through.
  if (writable && dbopts_.fault_injector != nullptr) {
    return std::shared_ptr<VlogFile>(std::make_shared<FaultInjectionVlogFile>(
        std::move(base_or).value(), dbopts_.fault_injector));
  }
  return std::shared_ptr<VlogFile>(std::move(base_or).value());
}

void Engine::Close() {
  {
    std::unique_lock<std::mutex> lk(db_mu_);
    if (closed_) return;
    closed_ = true;
    stop_maintenance_ = true;
  }
  maint_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  {
    std::lock_guard<std::mutex> clk(comp_mu_);
    stop_compaction_ = true;
  }
  comp_cv_.notify_one();
  if (compaction_.joinable()) compaction_.join();
  // Best-effort final sync: writes out the commit buffer. Value bytes
  // before the pointers that reference them, as everywhere. A failed
  // engine writes nothing more, like a crashed process.
  std::unique_lock<std::mutex> lk(db_mu_);
  sync_cv_.wait(lk, [this] { return !sync_in_progress_; });
  if (failed()) return;
  if (vlog_head_ != nullptr) (void)vlog_head_->Sync();
  if (wal_ != nullptr) (void)wal_->Sync();
}

Engine::~Engine() { Close(); }

Status Engine::FailLocked(Status st) {
  LSMSSD_CHECK(!st.ok());
  failed_.store(true, std::memory_order_release);
  // Wake every waiter (group-commit followers, queued checkpoints, the
  // maintenance thread, stalled writers) so nobody blocks on progress
  // that will never come.
  sync_cv_.notify_all();
  ckpt_cv_.notify_all();
  maint_cv_.notify_all();
  stall_cv_.notify_all();
  return st;
}

Status Engine::FailedStatus() {
  return Status::FailedPrecondition(
      "db failed after a durability error; reopen to recover");
}

uint64_t Engine::WalLiveBytesLocked() const {
  return wal_old_bytes_ + wal_recovered_bytes_ + wal_->bytes_appended();
}

Status Engine::Put(Key key, std::string_view payload) {
  return Apply(RecordType::kPut, key, payload);
}

Status Engine::Delete(Key key) { return Apply(RecordType::kDelete, key, {}); }

Status Engine::Apply(RecordType type, Key key, std::string_view payload) {
  // Validate before logging (and before taking any lock): the WAL must
  // never carry an entry the tree would reject on replay. tree_ and its
  // options are immutable after Open.
  const Options& options = tree_->options();
  if (type == RecordType::kPut && payload.size() != options.payload_size) {
    return Status::InvalidArgument("payload must be exactly payload_size");
  }
  if (key > MaxKeyForSize(options.key_size)) {
    return Status::InvalidArgument("key does not fit in key_size bytes");
  }

  std::unique_lock<std::mutex> lk(db_mu_);
  if (failed()) return FailedStatus();
  return ApplyLocked(type, key, payload, lk);
}

Status Engine::ApplyLocked(RecordType type, Key key, std::string_view payload,
                           std::unique_lock<std::mutex>& lk) {
  // Background mode: make room in the memtable pipeline *before* the WAL
  // append (throttle, seal a full memtable, stall on a full queue), so an
  // op that must be refused — compaction wedged on a full device — is
  // refused before it is logged.
  if (dbopts_.background_compaction) {
    LSMSSD_RETURN_IF_ERROR(MaybeSealOrStallLocked());
    if (failed()) return FailedStatus();
  }

  // Key–value separation: move the value into the log first and commit a
  // 16-byte pointer instead — the WAL entry, memtable, and every block
  // the record ever occupies carry the pointer, so merges move O(pointer)
  // bytes per record no matter how large the value.
  char pointer[kVlogPointerSize];
  if (vlog_on_ && type == RecordType::kPut) {
    LSMSSD_RETURN_IF_ERROR(VlogAppendLocked(key, payload, pointer));
    payload = std::string_view(pointer, kVlogPointerSize);
  }

  // Append + apply under one continuous db_mu_ hold, so tree apply order
  // is exactly WAL append order (recovery replays the same sequence). The
  // append only encodes the entry into the commit buffer (no checksum:
  // the round's WriteBatch computes it off the lock); the file write
  // happens in a group-commit round (SyncCoveringLocked and friends).
  const uint64_t bytes_before = wal_->bytes_appended();
  wal_->Buffer(type, key, payload);
  wal_bytes_total_ += wal_->bytes_appended() - bytes_before;
  const uint64_t my_seq = ++seq_appended_;

  {
    // The apply: into the active memtable only, under mem_mu_ (readers
    // probe it shared), never touching tree_mu_ — so this write cannot
    // wait behind a running merge step.
    std::unique_lock<SharedMutex> mlk(mem_mu_);
    Status st = type == RecordType::kDelete
                    ? tree_->DeleteNoMerge(key)
                    : tree_->PutNoMerge(key, payload);
    if (!st.ok()) {
      // Unreachable after the validation above; treat as a logic fault.
      mlk.unlock();
      return FailLocked(std::move(st));
    }
  }

  if (!dbopts_.background_compaction) {
    // Inline mode: no compaction thread, so this writer runs the
    // compaction steps itself. Only durability errors poison the engine.
    // The record is already WAL-logged and in memory; what failed is a
    // compaction step, which aborts atomically and leaves the tree intact
    // (the next op retries the drain):
    //   - ResourceExhausted: the device hit max_device_blocks. Surface
    //     it as write backpressure — the caller can checkpoint, free
    //     capacity, or raise the cap, and writers make progress again.
    //   - Corruption: the merge touched a damaged block, now
    //     quarantined. Reads and writes of healthy ranges keep working.
    // Anything else (an I/O error mid-merge, an internal invariant
    // breach) is a durability failure and poisons.
    if (Status st = DrainCompactionLocked(); !st.ok()) {
      if (st.code() == StatusCode::kResourceExhausted) {
        ++backpressure_events_;
        return st;
      }
      if (st.IsCorruption()) return st;
      return FailLocked(std::move(st));
    }
  }

  switch (dbopts_.wal_sync_mode) {
    case WalSyncMode::kAlways:
      LSMSSD_RETURN_IF_ERROR(SyncCoveringLocked(lk, my_seq));
      break;
    case WalSyncMode::kEveryN:
      // Count appends not yet covered by a completed *or in-flight* sync;
      // when a batch of N has accumulated, this writer leads (or queues
      // behind the in-flight leader) a round covering all of them.
      if (seq_appended_ - std::max(seq_synced_, sync_target_) >=
          dbopts_.wal_sync_every_n) {
        LSMSSD_RETURN_IF_ERROR(SyncCoveringLocked(lk, seq_appended_));
      }
      break;
    case WalSyncMode::kNone:
      break;
  }
  // Every mode: the commit buffer is bounded, so kNone (and a kEveryN
  // batch of large entries) writes it out once it reaches the bound.
  if (wal_->pending_bytes() >= WalWriter::kMaxPendingBytes) {
    LSMSSD_RETURN_IF_ERROR(FlushWalLocked(lk));
  }

  if (dbopts_.checkpoint_wal_bytes > 0 &&
      WalLiveBytesLocked() >= dbopts_.checkpoint_wal_bytes) {
    if (dbopts_.background_checkpoint) {
      // Hand the work to the maintenance thread; this writer returns
      // without stalling behind the manifest write.
      if (!checkpoint_requested_ && !checkpoint_in_progress_) {
        checkpoint_requested_ = true;
        maint_cv_.notify_one();
      }
    } else {
      LSMSSD_RETURN_IF_ERROR(CheckpointLocked(lk));
    }
  }
  return Status::OK();
}

Status Engine::VlogAppendLocked(Key key, std::string_view value,
                                char* pointer) {
  if (vlog_head_offset_ >= dbopts_.vlog_segment_bytes) {
    LSMSSD_RETURN_IF_ERROR(RollVlogLocked());
  }
  vlog::EncodeEntry(key, value, &vlog_entry_);
  if (Status st = vlog_head_->Append(vlog_entry_); !st.ok()) {
    return FailLocked(std::move(st));
  }
  VlogPointer ptr;
  ptr.file = static_cast<uint32_t>(vlog_head_file_);
  ptr.offset = vlog_head_offset_;
  ptr.length = static_cast<uint32_t>(value.size());
  vlog_head_offset_ += vlog_entry_.size();
  vlog_bytes_appended_ += vlog_entry_.size();
  EncodeVlogPointer(ptr, pointer);
  return Status::OK();
}

Status Engine::RollVlogLocked() {
  // Seal with an fsync so sealed segments are never torn: recovery can
  // treat any short/garbled tail as damage, and the head-only truncation
  // below (Open) stays sound.
  if (Status st = vlog_head_->Sync(); !st.ok()) {
    return FailLocked(std::move(st));
  }
  auto file_or = MakeVlogFile(vlog_head_file_ + 1, /*writable=*/true);
  if (!file_or.ok()) return FailLocked(file_or.status());
  ++vlog_head_file_;
  vlog_head_offset_ = 0;
  std::lock_guard<std::mutex> vlk(vlog_mu_);
  auto& slot = vlog_files_[vlog_head_file_];
  slot = std::move(file_or).value();
  vlog_head_ = slot.get();
  return Status::OK();
}

Status Engine::WalRoundLocked(std::unique_lock<std::mutex>& lk, bool sync) {
  LSMSSD_CHECK(!sync_in_progress_);
  // Claim everything appended so far, then write it with one write() and
  // fsync once for the whole batch with the commit lock released. Writers
  // keep framing into the emptied commit buffer meanwhile; only one round
  // runs at a time, so file order is append order. The vlog head syncs
  // FIRST: a WAL-durable pointer whose value bytes were lost would dangle
  // (recovery tolerates a dangling *suffix* only because of this
  // ordering). Segments sealed before the claim were synced at roll time.
  sync_in_progress_ = true;
  const uint64_t cover = seq_appended_;
  if (sync) sync_target_ = std::max(sync_target_, cover);
  wal_->SealBatch();
  VlogFile* vlog_head = sync ? vlog_head_ : nullptr;
  lk.unlock();
  Status st = vlog_head != nullptr ? vlog_head->Sync() : Status::OK();
  if (st.ok()) st = wal_->WriteBatch(sync);
  lk.lock();
  sync_in_progress_ = false;
  sync_cv_.notify_all();
  if (!st.ok()) return FailLocked(std::move(st));
  if (sync) {
    seq_synced_ = std::max(seq_synced_, cover);
    ++wal_syncs_;
  }
  return Status::OK();
}

Status Engine::SyncCoveringLocked(std::unique_lock<std::mutex>& lk,
                              uint64_t target) {
  while (seq_synced_ < target) {
    if (failed()) return FailedStatus();
    if (sync_in_progress_) {
      // Another writer is the leader; its round (or a later one) will
      // cover us. Wait for it to complete.
      sync_cv_.wait(lk);
      continue;
    }
    LSMSSD_RETURN_IF_ERROR(WalRoundLocked(lk, /*sync=*/true));
  }
  return Status::OK();
}

Status Engine::ForceSyncAllLocked(std::unique_lock<std::mutex>& lk) {
  // At least one unconditional fsync (SyncWal/checkpoint semantics: the
  // sync counter always advances), then loop until — with db_mu_ held
  // continuously since the check — nothing is in flight and everything
  // appended is written and covered. At that point the WAL file is
  // stable: safe to rotate or to hand to a fresh writer.
  bool synced_once = false;
  for (;;) {
    if (failed()) return FailedStatus();
    if (sync_in_progress_) {
      sync_cv_.wait(lk);
      continue;
    }
    if (synced_once && seq_synced_ == seq_appended_) return Status::OK();
    LSMSSD_RETURN_IF_ERROR(WalRoundLocked(lk, /*sync=*/true));
    synced_once = true;
  }
}

Status Engine::FlushWalLocked(std::unique_lock<std::mutex>& lk) {
  for (;;) {
    if (failed()) return FailedStatus();
    if (wal_->pending_bytes() < WalWriter::kMaxPendingBytes) {
      return Status::OK();
    }
    if (sync_in_progress_) {
      sync_cv_.wait(lk);
      continue;
    }
    return WalRoundLocked(lk, /*sync=*/false);
  }
}

Status Engine::MaybeSealOrStallLocked() {
  // Soft throttle: with the queue deep, delay every op a little so
  // compaction gains ground before writers hit the hard wall. The wait
  // holds db_mu_ on purpose — it must slow the whole commit path. It is a
  // condvar wait, not an unconditional sleep: every compaction step
  // notifies stall_cv_, so the moment the queue drains below the threshold (or
  // compaction wedges) the writer proceeds instead of serving out the
  // full slowdown_micros penalty.
  if (dbopts_.compaction_slowdown_depth > 0) {
    std::unique_lock<std::mutex> clk(comp_mu_);
    if (sealed_queued_ >= dbopts_.compaction_slowdown_depth) {
      const auto t0 = Clock::now();
      stall_cv_.wait_for(
          clk, std::chrono::microseconds(dbopts_.compaction_slowdown_micros),
          [&] {
            return sealed_queued_ < dbopts_.compaction_slowdown_depth ||
                   !compaction_error_.ok() || failed();
          });
      ++throttle_events_;
      throttle_micros_ += MicrosSince(t0);
    }
  }

  // Reading the active memtable's size under db_mu_ alone is race-free:
  // only writers mutate it, and they all hold db_mu_.
  if (!tree_->MemtableAtCapacity()) return Status::OK();

  {
    std::unique_lock<std::mutex> clk(comp_mu_);
    if (sealed_queued_ >= dbopts_.compaction_queue_depth &&
        compaction_error_.ok() && !failed()) {
      // Hard stall: the queue is full. Wait for compaction, still holding
      // db_mu_ — later writers queue behind us, which is the point.
      ++stall_events_;
      const auto t0 = Clock::now();
      stall_cv_.wait(clk, [&] {
        return sealed_queued_ < dbopts_.compaction_queue_depth ||
               !compaction_error_.ok() || failed();
      });
      const uint64_t waited = MicrosSince(t0);
      stall_micros_ += waited;
      stall_hist_.Add(waited);
    }
    if (!compaction_error_.ok()) {
      // Compaction is wedged (full device, quarantined block). Refuse the
      // op *before* logging it — clean backpressure the caller can retry
      // after freeing capacity (see SetMaxDeviceBlocks).
      ++backpressure_events_;
      return compaction_error_;
    }
    if (failed()) return FailedStatus();
  }
  // Between the checks above and the seal below the queue can only have
  // shrunk: writers are serialized by db_mu_ and compaction only pops.
  {
    std::unique_lock<SharedMutex> mlk(mem_mu_);
    SealActiveMemtableLocked();
  }
  comp_cv_.notify_one();
  return Status::OK();
}

void Engine::SealActiveMemtableLocked() {
  tree_->SealMemtable();
  // Publish depth + kick under comp_mu_ while still holding mem_mu_
  // (mem_mu_ -> comp_mu_ follows the hierarchy): compaction cannot pop the
  // new memtable before its ++sealed_queued_ lands, because a pop needs
  // mem_mu_ exclusive.
  std::lock_guard<std::mutex> clk(comp_mu_);
  ++sealed_queued_;
  ++memtables_sealed_;
  compaction_scheduled_ = true;
}

Status Engine::DrainCompactionLocked() {
  // Only the caller mutates the memtables and levels here (see the
  // declaration), so the work check needs no lock beyond what it holds.
  if (!tree_->MemtableAtCapacity() && !tree_->HasCompactionWork()) {
    return Status::OK();
  }
  if (tree_->MemtableAtCapacity()) {
    std::unique_lock<SharedMutex> mlk(mem_mu_);
    SealActiveMemtableLocked();
  }
  for (;;) {
    const auto t0 = Clock::now();
    auto step = LsmTree::CompactStep::kNone;
    bool popped = false;
    Status st = RunOneCompactionStep(&step, &popped);
    RecordCompactionStep(st, step, popped, MicrosSince(t0));
    if (!st.ok() || step == LsmTree::CompactStep::kNone) return st;
  }
}

void Engine::RecordCompactionStep(const Status& st, LsmTree::CompactStep step,
                              bool popped, uint64_t micros) {
  std::lock_guard<std::mutex> clk(comp_mu_);
  compaction_micros_ += micros;
  if (st.ok()) {
    compaction_error_ = Status::OK();  // Progress clears a wedge.
    if (step == LsmTree::CompactStep::kFlush) ++background_flushes_;
    if (step == LsmTree::CompactStep::kMerge) ++background_merges_;
    if (popped) --sealed_queued_;
  } else {
    compaction_error_ = st;
  }
}

void Engine::CompactionLoop() {
  std::unique_lock<std::mutex> clk(comp_mu_);
  for (;;) {
    comp_cv_.wait(clk,
                  [this] { return stop_compaction_ || compaction_scheduled_; });
    if (stop_compaction_) return;
    // A kick that lands during the drain sets the flag again, so the
    // next pass runs even if this one ended on an error.
    compaction_scheduled_ = false;
    compaction_running_ = true;
    clk.unlock();
    RunCompactionSteps();
    clk.lock();
  }
}

Status Engine::RunOneCompactionStep(LsmTree::CompactStep* step, bool* popped) {
  // The plan reads the sealed queue, which writers push onto under
  // mem_mu_, and the L0 buffer and levels, which change only in this
  // function: mem_mu_ shared is enough, and the plan still holds when
  // the locks below are taken.
  LsmTree::CompactPlan plan;
  {
    std::shared_lock<SharedMutex> mlk(mem_mu_);
    plan = tree_->PlanCompaction();
  }
  if (plan.flush) {
    // Drains the front sealed memtable into the memory-resident L0
    // buffer: pure memory, so no tree lock.
    std::unique_lock<SharedMutex> mlk(mem_mu_);
    LSMSSD_RETURN_IF_ERROR(tree_->FlushSealedStep(tree_->FrontSealed()));
    *popped = tree_->PopSealedIfDrained();
    *step = LsmTree::CompactStep::kFlush;
    return Status::OK();
  }
  if (!plan.merge_source) return Status::OK();
  // No mem_mu_ even for an L0 spill: writers never touch the L0 buffer,
  // and readers snapshot it under tree_mu_ shared.
  std::unique_lock<SharedMutex> tlk(tree_mu_);
  auto step_or = tree_->MergeSourceStep(*plan.merge_source);
  if (!step_or.ok()) return step_or.status();
  *step = step_or.value();
  return Status::OK();
}

void Engine::RunCompactionSteps() {
  Status err;
  while (!failed()) {
    const auto t0 = Clock::now();
    auto step = LsmTree::CompactStep::kNone;
    bool popped = false;
    Status st = RunOneCompactionStep(&step, &popped);
    RecordCompactionStep(st, step, popped, MicrosSince(t0));
    // After *every* step — progress or error — wake stalled writers: a
    // pop freed a queue slot; an error must be surfaced, not waited out.
    stall_cv_.notify_all();
    if (!st.ok()) {
      err = st;
      break;
    }
    if (step == LsmTree::CompactStep::kNone) break;
  }
  {
    std::lock_guard<std::mutex> clk(comp_mu_);
    compaction_running_ = false;
  }
  stall_cv_.notify_all();
  // ResourceExhausted and Corruption are retryable backpressure (exactly
  // as for an inline writer's drain); anything else is a durability
  // failure. The error was published under comp_mu_ FIRST: a stalled
  // writer (which holds db_mu_!) wakes, returns, and releases db_mu_ —
  // only then can this FailLocked proceed. Taking db_mu_ before
  // publishing would deadlock.
  if (!err.ok() && err.code() != StatusCode::kResourceExhausted &&
      !err.IsCorruption()) {
    std::unique_lock<std::mutex> lk(db_mu_);
    (void)FailLocked(std::move(err));
  }
}

Status Engine::WaitForCompaction() {
  if (!dbopts_.background_compaction) return Status::OK();
  std::unique_lock<std::mutex> clk(comp_mu_);
  stall_cv_.wait(clk, [&] {
    return (sealed_queued_ == 0 && !compaction_running_ &&
            !compaction_scheduled_) ||
           !compaction_error_.ok() || failed();
  });
  if (!compaction_error_.ok()) return compaction_error_;
  if (failed()) return FailedStatus();
  return Status::OK();
}

StatusOr<std::string> Engine::Get(Key key) {
  return *GetImpl(key, /*try_only=*/false);
}

std::optional<StatusOr<std::string>> Engine::TryGet(Key key) {
  return GetImpl(key, /*try_only=*/true);
}

std::optional<StatusOr<std::string>> Engine::GetImpl(Key key, bool try_only) {
  if (failed()) return FailedStatus();
  // try_only ends the lookup with nullopt wherever it would wait: on the
  // value log (every value found in vlog mode is a pointer, and resolving
  // it reads a segment file), on a lock held exclusive or with a writer
  // queued for it (SharedMutex is writer-preferring), and on a block
  // outside the buffer cache.
  if (try_only && vlog_on_) return std::nullopt;
  auto acquire = [try_only](std::shared_lock<SharedMutex>& l) {
    if (try_only) return l.try_lock();
    l.lock();
    return true;
  };
  std::shared_lock<SharedMutex> tlk(tree_mu_, std::defer_lock);
  if (!acquire(tlk)) return std::nullopt;
  // In vlog mode the pointer must be resolved before the read locks drop:
  // holding mem_mu_ shared through the whole lookup keeps a GC rewrite
  // (which commits under mem_mu_ exclusive) from superseding the pointer
  // — and therefore keeps a checkpoint from unlinking its segment —
  // between the tree probe and the vlog read.
  std::shared_lock<SharedMutex> mlk(mem_mu_, std::defer_lock);
  if (vlog_on_) mlk.lock();

  // The memtable probe needs mem_mu_ (writers mutate the active memtable
  // without tree_mu_); the level walk below runs under tree_mu_ alone,
  // off the writers' locks — except in vlog mode, where mlk already pins
  // mem_mu_ for the whole lookup (above).
  std::optional<StatusOr<std::string>> stored;
  {
    std::shared_lock<SharedMutex> probe(mem_mu_, std::defer_lock);
    if (!mlk.owns_lock() && !acquire(probe)) return std::nullopt;
    if (const Record* r = tree_->FindInMemtables(key)) {
      if (r->is_tombstone()) return Status::NotFound("deleted");
      stored = r->payload;
    }
  }
  if (!stored) {
    // The check and the walk share this tree_mu_ hold, so the levels
    // cannot change between them; only another reader's cache insert can
    // evict a checked block in that window, costing the walk one read.
    if (try_only && tree_->GetFromLevelsReadsDevice(key)) return std::nullopt;
    stored = tree_->GetFromLevels(key);
  }
  if (!vlog_on_ || !stored->ok()) return stored;
  std::string value;
  LSMSSD_RETURN_IF_ERROR(ResolveVlogValue(stored->value(), key, &value));
  return value;
}

std::unique_ptr<Iterator> Engine::NewIterator() const {
  if (failed()) return nullptr;
  std::shared_lock<SharedMutex> tlk(tree_mu_);
  // The snapshot must also pin the memtables: the iterator reads them,
  // and writers mutate them under mem_mu_ (not tree_mu_). Writers
  // therefore wait behind open iterators.
  std::shared_lock<SharedMutex> mlk(mem_mu_);
  auto base = tree_->NewIterator();
  if (base == nullptr) return nullptr;
  auto snap = std::make_unique<SnapshotIterator>(std::move(tlk),
                                                 std::move(mlk),
                                                 std::move(base));
  if (!vlog_on_) return snap;
  // The snapshot's locks pin the tree state the pointers came from, so
  // value() resolves against segments no GC can reclaim mid-iteration.
  return std::make_unique<VlogResolvingIterator>(
      std::move(snap), [this](std::string_view stored, Key key,
                              std::string* out) {
        return ResolveVlogValue(stored, key, out);
      });
}

Status Engine::SyncWal() {
  std::unique_lock<std::mutex> lk(db_mu_);
  if (failed()) return FailedStatus();
  return ForceSyncAllLocked(lk);
}

Status Engine::Checkpoint() {
  std::unique_lock<std::mutex> lk(db_mu_);
  if (failed()) return FailedStatus();
  return CheckpointLocked(lk);
}

Status Engine::CheckpointLocked(std::unique_lock<std::mutex>& lk) {
  while (checkpoint_in_progress_) {
    ckpt_cv_.wait(lk);
    if (failed()) return FailedStatus();
  }
  checkpoint_in_progress_ = true;
  Status st = CheckpointBodyLocked(lk);
  checkpoint_in_progress_ = false;
  checkpoint_requested_ = false;
  ckpt_cv_.notify_all();
  return st;
}

Status Engine::CheckpointBodyLocked(std::unique_lock<std::mutex>& lk) {
  FaultInjector* injector = dbopts_.fault_injector;

  // 1. Quiesce + sync: the on-disk WAL must cover every entry the
  //    manifest will include *before* the manifest is published. A crash
  //    between the manifest rename and the segment unlink (step 5)
  //    recovers by replaying the rotated log on top of the checkpoint,
  //    which only re-converges if the durable log is a superset of the
  //    manifest's entries. Without this sync, kEveryN/kNone could publish
  //    a manifest at entry N while the disk log ends at M < N — replay
  //    would then regress every key rewritten in (M, N] to its older
  //    value. On return db_mu_ has been held continuously since the last
  //    check: no sync is in flight and no new append can sneak in before
  //    the rotation below.
  LSMSSD_RETURN_IF_ERROR(ForceSyncAllLocked(lk));

  // 2. Rotate the WAL: the fully synced log becomes an immutable numbered
  //    segment and writers get a fresh empty wal.log, so appends continue
  //    while the manifest (covering exactly the rotated entries) is being
  //    written off-lock below. Recovery replays segments strictly —
  //    they were synced before the rename, so a tear in one is real
  //    corruption.
  if (injector != nullptr && injector->Step()) {
    return FailLocked(
        Status::IoError("injected fault: crash before WAL rotation"));
  }
  const std::string segment_path = Db::WalSegmentPath(dir_, next_wal_segment_);
  if (::rename(Db::WalPath(dir_).c_str(), segment_path.c_str()) != 0) {
    return FailLocked(Errno("rotate WAL -> " + segment_path));
  }
  ++next_wal_segment_;
  wal_old_bytes_ += wal_recovered_bytes_ + wal_->bytes_appended();
  wal_recovered_bytes_ = 0;
  auto writer_or = MakeWalWriter(Db::WalPath(dir_));
  if (!writer_or.ok()) return FailLocked(writer_or.status());
  wal_ = std::move(writer_or).value();
  if (Status st = SyncDir(dir_); !st.ok()) return FailLocked(std::move(st));

  // 3. Snapshot the tree (writers are excluded by db_mu_; readers never
  //    mutate; the shared tree lock keeps a background compaction step
  //    from rewriting levels mid-encode) and pin the snapshot's blocks,
  //    so a merge running after we drop the lock cannot free one and let
  //    a later allocation recycle its slot under the manifest being
  //    written. The snapshot consolidates the active AND sealed
  //    memtables (LsmTree::MemtableSnapshot): queued-but-unflushed
  //    records must be in the manifest before step 5 deletes the WAL
  //    segments that carry them.
  std::string manifest_data;
  uint64_t vlog_publish_tail = 0;
  {
    std::shared_lock<SharedMutex> tlk(tree_mu_);
    // mem_mu_ too (tree -> mem follows the hierarchy): the snapshot reads
    // the L0 buffer and the sealed queue, which a concurrent flush step
    // mutates under mem_mu_ alone — tree_mu_ no longer covers them.
    std::shared_lock<SharedMutex> mlk(mem_mu_);
    if (vlog_on_) {
      // The vlog frontier is durable: step 1 synced the head before the
      // WAL, and db_mu_ has been held since, so head/offset still match
      // the fsynced file. Publishing pending_tail_ here makes the GC'd
      // range reclaimable only after this manifest lands (step 5b).
      VlogManifestState vstate;
      vstate.head_file = vlog_head_file_;
      vstate.head_offset = vlog_head_offset_;
      vstate.tail_file = vlog_pending_tail_;
      vlog_publish_tail = vlog_pending_tail_;
      manifest_data = EncodeManifest(*tree_, vstate);
    } else {
      manifest_data = EncodeManifest(*tree_);
    }
    pinned_->BeginCheckpoint(CurrentTreeBlocks());
  }

  // 4. The slow part — device flush + manifest write — runs with the
  //    commit lock released: writers keep appending to the fresh WAL.
  lk.unlock();
  Status st = pinned_->Flush();
  if (st.ok()) st = WriteManifestAtomically(manifest_data);
  lk.lock();
  if (!st.ok()) {
    pinned_->AbortCheckpoint();
    return FailLocked(std::move(st));
  }
  ++checkpoints_;

  // 5. The manifest covers every rotated entry; delete the segments. (A
  //    crash before this double-replays them — safe, blind writes.)
  if (injector != nullptr && injector->Step()) {
    return FailLocked(
        Status::IoError("injected fault: crash before WAL segment unlink"));
  }
  for (const std::string& seg : Db::ListWalSegments(dir_)) {
    (void)::unlink(seg.c_str());
  }
  wal_old_bytes_ = 0;

  // 5b. The manifest's tail no longer references the GC'd segments —
  //     unlink them. A crash before this leaks nothing: recovery reads
  //     the published tail and deletes everything below it (blind
  //     re-unlink, ENOENT-tolerant).
  if (vlog_on_ && vlog_publish_tail > vlog_tail_file_) {
    if (injector != nullptr && injector->Step()) {
      return FailLocked(
          Status::IoError("injected fault: crash before vlog segment unlink"));
    }
    if (Status vst = VlogDropBelowLocked(vlog_publish_tail); !vst.ok()) {
      return FailLocked(std::move(vst));
    }
  }

  // 6. Blocks only the *previous* manifest referenced may now recycle.
  //    Exclusive tree lock: recycling frees device slots a concurrent
  //    reader might otherwise probe mid-read.
  {
    std::unique_lock<SharedMutex> tlk(tree_mu_);
    st = pinned_->CommitCheckpoint();
  }
  if (!st.ok()) return FailLocked(std::move(st));
  return Status::OK();
}

void Engine::MaintenanceLoop() {
  std::unique_lock<std::mutex> lk(db_mu_);
  const bool scrub_enabled = dbopts_.scrub_interval_ms > 0;
  const bool auto_gc = vlog_on_ && dbopts_.vlog_gc_ratio > 0;
  for (;;) {
    if (scrub_enabled || auto_gc) {
      // Wake early for explicit work; a timeout is a scrub/GC tick.
      const uint64_t tick_ms =
          scrub_enabled ? dbopts_.scrub_interval_ms : 20;
      maint_cv_.wait_for(
          lk, std::chrono::milliseconds(tick_ms),
          [this] { return stop_maintenance_ || checkpoint_requested_; });
    } else {
      maint_cv_.wait(
          lk, [this] { return stop_maintenance_ || checkpoint_requested_; });
    }
    if (stop_maintenance_) return;
    if (failed()) {
      // Poisoned: stay dormant until Close(). The request can never be
      // served; clearing it keeps the predicate from busy-waking.
      checkpoint_requested_ = false;
      continue;
    }
    if (checkpoint_requested_) {
      // Re-check the threshold: a manual Checkpoint() may have landed
      // between the request and this wakeup.
      if (WalLiveBytesLocked() < dbopts_.checkpoint_wal_bytes) {
        checkpoint_requested_ = false;
      } else {
        // Errors poison the engine (writers see it on their next
        // operation).
        (void)CheckpointLocked(lk);
        continue;
      }
    }
    if (auto_gc && VlogGcWantedLocked()) {
      // One sealed segment per tick keeps the pause bounded; the next
      // tick re-evaluates the garbage ratio. The checkpoint publishes the
      // advanced tail so the reclaimed segment is actually deleted.
      if (VlogGcSegmentLocked(lk).ok() && !failed() &&
          vlog_pending_tail_ > vlog_tail_file_) {
        (void)CheckpointLocked(lk);
      }
      if (failed()) continue;
    }
    if (scrub_enabled) ScrubTickLocked(lk);
  }
}

void Engine::ScrubTickLocked(std::unique_lock<std::mutex>& lk) {
  // Walk manifest-live blocks round-robin by id: each tick takes the next
  // batch after the cursor, so every live block is eventually verified no
  // matter how often the set changes between ticks.
  std::vector<BlockId> blocks = CurrentTreeBlocks();
  std::sort(blocks.begin(), blocks.end());
  std::vector<BlockId> batch;
  const size_t batch_cap =
      dbopts_.scrub_batch_blocks > 0 ? dbopts_.scrub_batch_blocks : 1;
  for (auto it = std::upper_bound(blocks.begin(), blocks.end(), scrub_cursor_);
       it != blocks.end() && batch.size() < batch_cap; ++it) {
    batch.push_back(*it);
  }
  if (batch.empty()) {
    scrub_cursor_ = 0;  // End of a pass; the next tick starts over.
    return;
  }
  scrub_cursor_ = batch.back();

  // The I/O runs off db_mu_, under the shared tree lock (scrubbing is a
  // reader). Blocks freed by a merge in the window between snapshot and
  // verification report NotFound and are simply skipped.
  lk.unlock();
  uint64_t verified = 0, corrupt = 0;
  {
    std::shared_lock<SharedMutex> tlk(tree_mu_);
    for (BlockId id : batch) {
      Status st = pinned_->VerifyBlock(id);
      if (st.ok()) {
        ++verified;
      } else if (st.IsCorruption()) {
        ++corrupt;  // Quarantined by PinnedBlockDevice::VerifyBlock.
      }
    }
  }
  lk.lock();
  scrub_blocks_verified_ += verified;
  scrub_corruptions_ += corrupt;
}

Status Engine::Scrub() {
  std::vector<BlockId> blocks;
  {
    std::unique_lock<std::mutex> lk(db_mu_);
    if (failed()) return FailedStatus();
    blocks = CurrentTreeBlocks();
  }
  std::sort(blocks.begin(), blocks.end());

  uint64_t verified = 0, corrupt = 0;
  {
    std::shared_lock<SharedMutex> tlk(tree_mu_);
    for (BlockId id : blocks) {
      Status st = pinned_->VerifyBlock(id);
      if (st.ok()) {
        ++verified;
      } else if (st.IsCorruption()) {
        ++corrupt;
      } else if (!st.IsNotFound()) {
        return st;  // Transport-level failure: surface it.
      }
    }
  }
  {
    std::unique_lock<std::mutex> lk(db_mu_);
    scrub_blocks_verified_ += verified;
    scrub_corruptions_ += corrupt;
  }
  if (corrupt > 0) {
    return Status::Corruption("scrub found " + std::to_string(corrupt) +
                              " corrupt block(s); see quarantine in Stats()");
  }
  return Status::OK();
}

Status Engine::ResolveVlogValue(std::string_view stored, Key key,
                            std::string* out) const {
  VlogPointer ptr;
  if (!DecodeVlogPointer(stored, &ptr)) {
    return Status::Corruption("malformed vlog pointer for key " +
                              std::to_string(key));
  }
  std::shared_ptr<VlogFile> file;
  {
    std::lock_guard<std::mutex> vlk(vlog_mu_);
    if (vlog_quarantine_.count({ptr.file, ptr.offset}) != 0) {
      return Status::Corruption(
          "vlog segment " + std::to_string(ptr.file) + " entry at offset " +
          std::to_string(ptr.offset) + " is quarantined");
    }
    auto it = vlog_files_.find(ptr.file);
    if (it == vlog_files_.end()) {
      return Status::Corruption("pointer into unknown vlog segment " +
                                std::to_string(ptr.file));
    }
    file = it->second;
  }
  Status st = vlog::ReadEntry(file.get(), ptr.offset, key, ptr.length, out);
  if (st.IsCorruption()) {
    // Quarantine the single damaged entry — the engine keeps serving every
    // other key (mirroring block quarantine: damage is data-local, not
    // instance-fatal).
    std::lock_guard<std::mutex> vlk(vlog_mu_);
    if (vlog_quarantine_.insert({ptr.file, ptr.offset}).second) {
      vlog_quarantined_entries_.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::Corruption("vlog segment " + std::to_string(ptr.file) +
                              ": " + st.message());
  }
  return st;
}

bool Engine::VlogGcWantedLocked() const {
  if (vlog_pending_tail_ >= vlog_head_file_) return false;  // Head only.
  uint64_t total = vlog_head_offset_;
  {
    std::lock_guard<std::mutex> vlk(vlog_mu_);
    for (uint64_t n = vlog_pending_tail_; n < vlog_head_file_; ++n) {
      auto it = vlog_files_.find(n);
      if (it != vlog_files_.end()) total += it->second->size();
    }
  }
  if (total == 0) return false;
  uint64_t records = 0;
  {
    std::shared_lock<SharedMutex> tlk(tree_mu_);
    std::shared_lock<SharedMutex> mlk(mem_mu_);
    records = tree_->TotalRecords();
  }
  // Conservative live floor: every live key stores exactly one entry of
  // header + payload_size bytes; anything beyond that is dead weight
  // (superseded versions, orphans, tombstoned values).
  const uint64_t live =
      records * (vlog::kEntryHeaderSize + tree_->options().payload_size);
  if (live >= total) return false;
  return static_cast<double>(total - live) >=
         dbopts_.vlog_gc_ratio * static_cast<double>(total);
}

Status Engine::VlogGcSegmentLocked(std::unique_lock<std::mutex>& lk) {
  const uint64_t seg = vlog_pending_tail_;
  if (!vlog_on_ || seg >= vlog_head_file_) return Status::OK();
  std::shared_ptr<VlogFile> file;
  {
    std::lock_guard<std::mutex> vlk(vlog_mu_);
    auto it = vlog_files_.find(seg);
    if (it == vlog_files_.end()) {
      // Never created (or never referenced) — nothing to rewrite.
      vlog_pending_tail_ = seg + 1;
      return Status::OK();
    }
    file = it->second;
  }

  // Scan off the commit lock — the segment is sealed and immutable. Each
  // entry is probed and (when live) rewritten under one continuous db_mu_
  // hold, so no writer can slip between the liveness check and the
  // re-append. "Live" means the tree's newest version of the key is a put
  // whose stored payload is exactly this entry's pointer; anything else —
  // overwritten, deleted, or an orphan whose WAL frame never became
  // durable — is dead and simply not carried forward.
  uint64_t rewrites = 0;
  lk.unlock();
  uint64_t intact_end = 0;
  Status scan_st = vlog::ScanEntries(
      file.get(), 0,
      [&](const vlog::EntryInfo& info, const std::string& value) -> Status {
        VlogPointer ptr;
        ptr.file = static_cast<uint32_t>(seg);
        ptr.offset = info.offset;
        ptr.length = info.length;
        const std::string want = EncodeVlogPointerToString(ptr);
        std::unique_lock<std::mutex> inner(db_mu_);
        if (failed()) return FailedStatus();
        bool live = false;
        {
          std::shared_lock<SharedMutex> tlk(tree_mu_);
          bool probed = false;
          {
            std::shared_lock<SharedMutex> mlk(mem_mu_);
            if (const Record* r = tree_->FindInMemtables(info.key)) {
              live = !r->is_tombstone() && r->payload == want;
              probed = true;
            }
          }
          if (!probed) {
            auto cur = tree_->GetFromLevels(info.key);
            live = cur.ok() && cur.value() == want;
          }
        }
        if (!live) return Status::OK();
        LSMSSD_RETURN_IF_ERROR(
            ApplyLocked(RecordType::kPut, info.key, value, inner));
        ++rewrites;
        return Status::OK();
      },
      &intact_end);
  lk.lock();
  LSMSSD_RETURN_IF_ERROR(scan_st);
  if (failed()) return FailedStatus();
  if (intact_end != file->size()) {
    // Sealed segments were fsynced whole at roll time; a short scan means
    // real damage. Refuse to advance the tail over bytes that may still
    // hold the only copy of a live value.
    return Status::Corruption("vlog segment " + std::to_string(seg) +
                              " has unreadable entries; GC refused");
  }
  vlog_gc_rewrites_ += rewrites;
  vlog_pending_tail_ = seg + 1;
  return Status::OK();
}

Status Engine::VlogDropBelowLocked(uint64_t tail) {
  for (uint64_t n = vlog_tail_file_; n < tail; ++n) {
    const std::string path = Db::VlogSegmentPath(dir_, n);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Errno("unlink vlog segment " + path);
    }
    ++vlog_segments_reclaimed_;
  }
  std::lock_guard<std::mutex> vlk(vlog_mu_);
  for (uint64_t n = vlog_tail_file_; n < tail; ++n) vlog_files_.erase(n);
  for (auto it = vlog_quarantine_.begin();
       it != vlog_quarantine_.end() && it->first < tail;) {
    it = vlog_quarantine_.erase(it);
  }
  vlog_tail_file_ = tail;
  return Status::OK();
}

Status Engine::CompactVlog() {
  if (!vlog_on_) return Status::OK();
  std::unique_lock<std::mutex> lk(db_mu_);
  if (failed()) return FailedStatus();
  // One pass over the segments sealed *now*: rewrites land in the
  // current head (or its successors), which stays out of this pass —
  // chasing the moving head would re-copy every live value forever.
  const uint64_t stop = vlog_head_file_;
  while (vlog_pending_tail_ < stop) {
    LSMSSD_RETURN_IF_ERROR(VlogGcSegmentLocked(lk));
    if (failed()) return FailedStatus();
  }
  if (vlog_pending_tail_ > vlog_tail_file_) {
    // Publish the new tail (and delete the reclaimed segments) now; a
    // crash before this checkpoint re-runs the GC, which converges.
    LSMSSD_RETURN_IF_ERROR(CheckpointLocked(lk));
  }
  return Status::OK();
}

void Engine::SetMaxDeviceBlocks(uint64_t max_blocks) {
  std::unique_lock<std::mutex> lk(db_mu_);
  {
    // Exclusive tree lock: allocation sites read the cap under it.
    std::unique_lock<SharedMutex> tlk(tree_mu_);
    device_->set_max_blocks(max_blocks);
  }
  // A raised cap may unwedge a ResourceExhausted compaction: clear the
  // sticky error and kick the compaction thread so queued memtables
  // drain again.
  // (An inline writer simply retries its drain on its next op.)
  {
    std::lock_guard<std::mutex> clk(comp_mu_);
    compaction_error_ = Status::OK();
    compaction_scheduled_ = true;
  }
  comp_cv_.notify_one();
  stall_cv_.notify_all();
}

Status Engine::WriteManifestAtomically(const std::string& data) {
  const std::string tmp = Db::ManifestTmpPath(dir_);
  const std::string path = Db::ManifestPath(dir_);
  FaultInjector* injector = dbopts_.fault_injector;
  if (injector != nullptr && injector->Step()) {
    // Crash mid-write: a torn tmp file, never renamed, ignored (and
    // deleted) by the next Open.
    (void)WriteFile(tmp, std::string_view(data).substr(0, data.size() / 2),
                    /*sync=*/false);
    return Status::IoError("injected fault: torn manifest tmp write");
  }
  LSMSSD_RETURN_IF_ERROR(WriteFile(tmp, data, /*sync=*/true));
  if (injector != nullptr && injector->Step()) {
    return Status::IoError("injected fault: crash before manifest rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)::unlink(tmp.c_str());
    return Errno("rename " + tmp + " -> " + path);
  }
  return SyncDir(dir_);
}

std::vector<BlockId> Engine::CurrentTreeBlocks() const {
  std::vector<BlockId> blocks;
  for (size_t i = 1; i < tree_->num_levels(); ++i) {
    for (const LeafMeta& leaf : tree_->level(i).leaves()) {
      blocks.push_back(leaf.block);
    }
  }
  return blocks;
}

DbStats Engine::Stats() const {
  std::unique_lock<std::mutex> lk(db_mu_);
  DbStats s;
  // The tree's device view carries the complete logical account: block
  // writes/reads/allocs/frees plus cache_hits/misses and bloom_skips
  // (mirrored by CachedBlockDevice / recorded by Level::Lookup).
  s.io = tree_->device()->stats();
  // Syscall/batch counters tick on the file-backed base device's own
  // IoStats, not on the decorators' — overlay them into the snapshot.
  s.io.OverlaySyscallCounters(device_->stats());
  // Engine-level counters, not the active writer's: the writer's own counters
  // reset every time a checkpoint rotates in a fresh wal.log.
  s.wal_entries_appended = seq_appended_;
  s.wal_bytes_appended = wal_bytes_total_;
  s.wal_syncs = wal_syncs_;
  s.checkpoints = checkpoints_;
  s.recovery_wal_entries_replayed = recovery_replayed_;
  s.recovery_manifest_blocks = recovery_manifest_blocks_;
  s.deferred_frees = pinned_->deferred_frees();
  s.quarantined_blocks = pinned_->QuarantinedBlocks();
  std::sort(s.quarantined_blocks.begin(), s.quarantined_blocks.end());
  s.scrub_blocks_verified = scrub_blocks_verified_;
  s.scrub_corruptions_found = scrub_corruptions_;
  s.write_backpressure_events = backpressure_events_;
  if (vlog_on_) {
    s.vlog_segments = vlog_head_file_ - vlog_tail_file_ + 1;
    s.vlog_bytes_appended = vlog_bytes_appended_;
    s.vlog_gc_rewrites = vlog_gc_rewrites_;
    s.vlog_segments_reclaimed = vlog_segments_reclaimed_;
    s.vlog_quarantined_entries =
        vlog_quarantined_entries_.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> clk(comp_mu_);
    s.memtables_sealed = memtables_sealed_;
    s.background_flushes = background_flushes_;
    s.background_merges = background_merges_;
    s.compaction_queue_depth = sealed_queued_;
    s.compaction_micros = compaction_micros_;
    s.throttle_events = throttle_events_;
    s.throttle_micros = throttle_micros_;
    s.stall_events = stall_events_;
    s.stall_micros = stall_micros_;
    s.stall_latency = stall_hist_;
  }
  return s;
}

std::string DbStats::ToString() const {
  std::string out;
  // The shards line only appears for a sharded Db, so single-shard
  // output is byte-identical to previous releases.
  if (shards > 1) out += "shards: " + std::to_string(shards) + "\n";
  out += "io: " + io.ToString() + "\n";
  out += "wal: entries=" + std::to_string(wal_entries_appended) +
         " bytes=" + std::to_string(wal_bytes_appended) +
         " syncs=" + std::to_string(wal_syncs) + "\n";
  out += "checkpoints: " + std::to_string(checkpoints) +
         " (deferred frees pending: " + std::to_string(deferred_frees) +
         ")\n";
  out += "recovery: manifest_blocks=" +
         std::to_string(recovery_manifest_blocks) +
         " wal_entries_replayed=" +
         std::to_string(recovery_wal_entries_replayed) + "\n";
  out += "integrity: quarantined=" + std::to_string(quarantined_blocks.size()) +
         " scrub_verified=" + std::to_string(scrub_blocks_verified) +
         " scrub_corruptions=" + std::to_string(scrub_corruptions_found) +
         " backpressure_events=" + std::to_string(write_backpressure_events) +
         "\n";
  // Only with key–value separation on — default output stays
  // byte-identical (vlog_segments is 0 whenever vlog mode is off).
  if (vlog_segments > 0) {
    out += "vlog: segments=" + std::to_string(vlog_segments) +
           " bytes_appended=" + std::to_string(vlog_bytes_appended) +
           " gc_rewrites=" + std::to_string(vlog_gc_rewrites) +
           " reclaimed=" + std::to_string(vlog_segments_reclaimed) +
           " quarantined_entries=" + std::to_string(vlog_quarantined_entries) +
           "\n";
  }
  out += "compaction: sealed=" + std::to_string(memtables_sealed) +
         " bg_flushes=" + std::to_string(background_flushes) +
         " bg_merges=" + std::to_string(background_merges) +
         " queue_depth=" + std::to_string(compaction_queue_depth) +
         " compaction_micros=" + std::to_string(compaction_micros) +
         " throttle_events=" + std::to_string(throttle_events) +
         " throttle_micros=" + std::to_string(throttle_micros) +
         " stall_events=" + std::to_string(stall_events) +
         " stall_micros=" + std::to_string(stall_micros) + "\n";
  out += "stall_latency_us: " + stall_latency.ToString() + "\n";
  return out;
}

}  // namespace lsmssd
