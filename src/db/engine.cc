#include "src/db/engine.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <shared_mutex>  // std::shared_lock

#include "src/db/db.h"  // The directory layout (Db::ManifestPath, ...).
#include "src/db/fs_util.h"
#include "src/db/value_log.h"
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

/// Takes `l` — with `try_only`, only when that needs no wait.
bool Acquire(std::shared_lock<SharedMutex>& l, bool try_only) {
  if (try_only) return l.try_lock();
  l.lock();
  return true;
}

/// The engine's iterator. Holding the shared tree and memtable locks
/// until destroyed pins the tree and the memtables (which writers mutate
/// under the memtable lock), so the base iterator stays valid and writers
/// wait. With key–value separation on, value() resolves the current
/// pointer through the value log, caching per position; a corrupt entry
/// surfaces through status() with an empty value rather than tearing the
/// whole iteration down.
class SnapshotIterator : public Iterator {
 public:
  SnapshotIterator(std::shared_lock<SharedMutex> lock,
                   std::shared_lock<SharedMutex> mem_lock,
                   std::unique_ptr<Iterator> base, const ValueLog* vlog)
      : lock_(std::move(lock)),
        mem_lock_(std::move(mem_lock)),
        base_(std::move(base)),
        vlog_(vlog) {}

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
    if (vlog_ == nullptr) return base_->value();
    if (!resolved_valid_) {
      Status st = vlog_->Resolve(base_->value(), base_->key(), &resolved_);
      if (!st.ok()) {
        resolved_.clear();
        status_ = std::move(st);
      }
      resolved_valid_ = true;
    }
    return resolved_;
  }
  Status status() const override {
    return status_.ok() ? base_->status() : status_;
  }

 private:
  std::shared_lock<SharedMutex> lock_;
  std::shared_lock<SharedMutex> mem_lock_;
  std::unique_ptr<Iterator> base_;
  const ValueLog* vlog_;  ///< Null when key–value separation is off.
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

  // The vlog threshold is format-defining, so the tree's (manifest-
  // authoritative) options decide. Replay checks every pointer against
  // the segments discovered here; the engine adopts the log only once it
  // is recovered.
  std::unique_ptr<ValueLog> vlog;
  if (engine->tree_->options().vlog_enabled()) {
    auto vlog_or = ValueLog::Open(dir, dbopts,
                                  engine->tree_->options().payload_size,
                                  manifest.vlog);
    if (!vlog_or.ok()) return vlog_or.status();
    vlog = std::move(vlog_or).value();
  }

  LSMSSD_RETURN_IF_ERROR(engine->ReplayWal(wal_segments, vlog.get()));
  auto writer_or = engine->MakeWalWriter(Db::WalPath(dir));
  if (!writer_or.ok()) return writer_or.status();
  engine->wal_ = std::move(writer_or).value();
  if (vlog != nullptr) LSMSSD_RETURN_IF_ERROR(vlog->FinishRecovery());
  engine->value_log_ = std::move(vlog);

  if ((dbopts.background_checkpoint && dbopts.checkpoint_wal_bytes > 0) ||
      dbopts.scrub_interval_ms > 0 ||
      (engine->value_log_ != nullptr && dbopts.vlog_gc_ratio > 0)) {
    engine->maintenance_ = std::thread(&Engine::MaintenanceLoop, engine.get());
  }
  if (dbopts.background_compaction) {
    // Restore puts the manifest's memory-resident records in the L0
    // buffer, which may be over K0 with no seal coming to kick the thread.
    engine->compaction_scheduled_ = engine->tree_->HasCompactionWork();
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

Status Engine::ReplayWal(const std::vector<std::string>& segments,
                         ValueLog* vlog) {
  // Rotated segments exist when a checkpoint's manifest write crashed
  // after rotating the log. Blind-write semantics make replay safe even
  // over a manifest that already holds a prefix of it. Each entry is
  // applied like a commit and drained like an inline writer: the
  // compaction thread starts only after recovery. Rotation renames only a
  // fully synced log, vlog first, so a torn tail or a dangling pointer in
  // a segment lost durable data; in the active log both are a crash's
  // unacknowledged tail. Batches behind the cut are still read, so a
  // valid batch after a bad one stays Corruption.
  std::vector<std::string> logs = segments;
  logs.push_back(Db::WalPath(dir_));
  for (const std::string& path : logs) {
    const bool rotated = path != logs.back();
    std::optional<size_t> cut;
    size_t valid_bytes = 0;
    LSMSSD_RETURN_IF_ERROR(WalReader::ForEachBatch(
        path,
        [&](size_t offset, const std::vector<Record>& batch) -> Status {
          if (cut) return Status::OK();
          if (vlog != nullptr && !vlog->AdmitReplayedBatch(batch)) {
            if (rotated) {
              return Status::Corruption("rotated WAL segment " + path +
                                        " references lost vlog bytes");
            }
            cut = offset;
            return Status::OK();
          }
          for (const Record& r : batch) {
            Status st = r.is_tombstone() ? tree_->DeleteNoMerge(r.key)
                                         : tree_->PutNoMerge(r.key, r.payload);
            if (st.IsInvalidArgument()) {
              // A checksummed entry the tree rejects means the log lied
              // about its own contents.
              return Status::Corruption("WAL replay: " + st.message());
            }
            LSMSSD_RETURN_IF_ERROR(st);
            LSMSSD_RETURN_IF_ERROR(DrainCompactionLocked());
            ++recovery_replayed_;
          }
          return Status::OK();
        },
        &valid_bytes));
    if (!rotated) {
      // The intact prefix stays (a crash before the next checkpoint must
      // replay it again), but the tail is cut off *before* new appends,
      // which would be unreachable behind it on the next replay.
      wal_recovered_bytes_ = cut.value_or(valid_bytes);
      const auto keep = static_cast<off_t>(wal_recovered_bytes_);
      if (FileSizeOrZero(path) > wal_recovered_bytes_ &&
          ::truncate(path.c_str(), keep) != 0) {
        return Errno("truncate torn WAL tail " + path);
      }
      break;
    }
    if (valid_bytes < FileSizeOrZero(path)) {
      return Status::Corruption("rotated WAL segment " + path +
                                " has a torn tail");
    }
    wal_old_bytes_ += valid_bytes;
    const uint64_t seq = std::stoull(path.substr(path.rfind('.') + 1));
    next_wal_segment_ = std::max(next_wal_segment_, seq + 1);
  }
  return Status::OK();
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
  // Best-effort final sync of the commit buffer, vlog head first. A
  // failed engine writes nothing more, like a crashed process.
  std::unique_lock<std::mutex> lk(db_mu_);
  sync_cv_.wait(lk, [this] { return !sync_in_progress_; });
  if (failed()) return;
  if (value_log_ != nullptr) (void)value_log_->head()->Sync();
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
  if (value_log_ != nullptr && type == RecordType::kPut) {
    if (Status st = value_log_->Append(key, payload, pointer); !st.ok()) {
      return FailLocked(std::move(st));
    }
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
    // Inline mode: this writer runs the compaction steps itself. The
    // record is already logged and in memory; a failed step aborts
    // atomically and the next op retries the drain. ResourceExhausted
    // (the device hit max_device_blocks) is write backpressure the caller
    // can relieve; Corruption (a merge touched a damaged block, now
    // quarantined) leaves healthy ranges working. Anything else (an I/O
    // error mid-merge, an invariant breach) poisons the engine.
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
  VlogFile* vlog_head =
      sync && value_log_ != nullptr ? value_log_->head() : nullptr;
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
    auto step = LsmTree::CompactStep::kNone;
    Status st = RunOneCompactionStep(&step);
    if (!st.ok() || step == LsmTree::CompactStep::kNone) return st;
  }
}

Status Engine::RunOneCompactionStep(LsmTree::CompactStep* step) {
  const auto t0 = Clock::now();
  bool popped = false;
  Status st = PlanAndRunStep(step, &popped);
  std::lock_guard<std::mutex> clk(comp_mu_);
  compaction_micros_ += MicrosSince(t0);
  if (st.ok()) {
    compaction_error_ = Status::OK();  // Progress clears a wedge.
    if (*step == LsmTree::CompactStep::kFlush) ++background_flushes_;
    if (*step == LsmTree::CompactStep::kMerge) ++background_merges_;
    if (popped) --sealed_queued_;
  } else {
    compaction_error_ = st;
  }
  return st;
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
    Status err;
    while (!failed()) {
      auto step = LsmTree::CompactStep::kNone;
      Status st = RunOneCompactionStep(&step);
      // After *every* step — progress or error — wake stalled writers: a
      // pop freed a queue slot; an error must be surfaced, not waited out.
      stall_cv_.notify_all();
      if (!st.ok()) {
        err = st;
        break;
      }
      if (step == LsmTree::CompactStep::kNone) break;
    }
    clk.lock();
    compaction_running_ = false;
    clk.unlock();
    stall_cv_.notify_all();
    // ResourceExhausted and Corruption are retryable backpressure
    // (exactly as for an inline writer's drain); anything else is a
    // durability failure. The error was published under comp_mu_ FIRST:
    // a stalled writer (which holds db_mu_!) wakes, returns, and releases
    // db_mu_ — only then can this FailLocked proceed. Taking db_mu_
    // before publishing would deadlock.
    if (!err.ok() && err.code() != StatusCode::kResourceExhausted &&
        !err.IsCorruption()) {
      std::unique_lock<std::mutex> lk(db_mu_);
      (void)FailLocked(std::move(err));
    }
    clk.lock();
  }
}

Status Engine::PlanAndRunStep(LsmTree::CompactStep* step, bool* popped) {
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
  // try_only ends the lookup with nullopt wherever it would wait: on a
  // vlog read (every value found in vlog mode is a pointer), on a lock
  // held or wanted exclusive, and on a block outside the buffer cache.
  if (try_only && value_log_ != nullptr) return std::nullopt;
  std::shared_lock<SharedMutex> tlk(tree_mu_, std::defer_lock);
  if (!Acquire(tlk, try_only)) return std::nullopt;
  // In vlog mode mem_mu_ stays shared through the whole lookup: a GC
  // rewrite (committed under mem_mu_ exclusive) cannot supersede the
  // pointer — so no checkpoint can unlink its segment — before the read.
  std::shared_lock<SharedMutex> mlk(mem_mu_, std::defer_lock);
  if (value_log_ != nullptr) mlk.lock();
  auto stored = FindStoredLocked(key, try_only, mlk.owns_lock());
  if (value_log_ == nullptr || !stored->ok()) return stored;
  std::string value;
  LSMSSD_RETURN_IF_ERROR(value_log_->Resolve(stored->value(), key, &value));
  return value;
}

std::optional<StatusOr<std::string>> Engine::FindStoredLocked(
    Key key, bool try_only, bool mem_held) {
  // The memtable probe needs mem_mu_ (writers mutate the active memtable
  // without tree_mu_); the level walk below runs under tree_mu_ alone,
  // off the writers' locks.
  {
    std::shared_lock<SharedMutex> probe(mem_mu_, std::defer_lock);
    if (!mem_held && !Acquire(probe, try_only)) return std::nullopt;
    if (const Record* r = tree_->FindInMemtables(key)) {
      if (r->is_tombstone()) return Status::NotFound("deleted");
      return r->payload;
    }
  }
  // The check and the walk share the caller's tree_mu_ hold, so the
  // levels cannot change between them; only another reader's cache insert
  // can evict a checked block in that window, costing the walk one read.
  if (try_only && tree_->GetFromLevelsReadsDevice(key)) return std::nullopt;
  return tree_->GetFromLevels(key);
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
  // In vlog mode the locks also pin the tree state the pointers came
  // from, so value() resolves against segments no GC can reclaim
  // mid-iteration.
  return std::make_unique<SnapshotIterator>(std::move(tlk), std::move(mlk),
                                            std::move(base), value_log_.get());
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
    if (value_log_ != nullptr) {
      // Step 1 synced the vlog head before the WAL under this db_mu_
      // hold, so the frontier is durable. The GC'd range it publishes is
      // reclaimed only after this manifest lands (step 5b).
      const VlogManifestState vstate = value_log_->ManifestState();
      vlog_publish_tail = vstate.tail_file;
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
  if (value_log_ != nullptr) {
    if (Status vst = value_log_->DropBelow(vlog_publish_tail); !vst.ok()) {
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
  const bool auto_gc = value_log_ != nullptr && dbopts_.vlog_gc_ratio > 0;
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
    if (auto_gc && value_log_->GcWanted([this] {
          std::shared_lock<SharedMutex> tlk(tree_mu_);
          std::shared_lock<SharedMutex> mlk(mem_mu_);
          return tree_->TotalRecords();
        })) {
      // One sealed segment per tick keeps the pause bounded; the next
      // tick re-evaluates the garbage ratio.
      (void)CollectVlogLocked(lk, value_log_->pending_tail() + 1);
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
  const auto first =
      std::upper_bound(blocks.begin(), blocks.end(), scrub_cursor_);
  const auto n = static_cast<ptrdiff_t>(std::min<uint64_t>(
      blocks.end() - first, std::max<uint64_t>(dbopts_.scrub_batch_blocks, 1)));
  const std::vector<BlockId> batch(first, first + n);
  if (batch.empty()) {
    scrub_cursor_ = 0;  // End of a pass; the next tick starts over.
    return;
  }
  scrub_cursor_ = batch.back();

  (void)VerifyBlocksLocked(lk, batch);
}

Status Engine::VerifyBlocksLocked(std::unique_lock<std::mutex>& lk,
                                  const std::vector<BlockId>& blocks) {
  // The I/O runs off db_mu_, under the shared tree lock (scrubbing is a
  // reader). Blocks freed by a merge in the window between snapshot and
  // verification report NotFound and are simply skipped.
  lk.unlock();
  uint64_t verified = 0, corrupt = 0;
  Status transport;
  {
    std::shared_lock<SharedMutex> tlk(tree_mu_);
    for (BlockId id : blocks) {
      Status st = pinned_->VerifyBlock(id);
      if (st.ok()) {
        ++verified;
      } else if (st.IsCorruption()) {
        ++corrupt;  // Quarantined by PinnedBlockDevice::VerifyBlock.
      } else if (!st.IsNotFound() && transport.ok()) {
        transport = std::move(st);
      }
    }
  }
  lk.lock();
  scrub_blocks_verified_ += verified;
  scrub_corruptions_ += corrupt;
  LSMSSD_RETURN_IF_ERROR(transport);
  if (corrupt > 0) {
    return Status::Corruption("scrub found " + std::to_string(corrupt) +
                              " corrupt block(s); see quarantine in Stats()");
  }
  return Status::OK();
}

Status Engine::Scrub() {
  std::unique_lock<std::mutex> lk(db_mu_);
  if (failed()) return FailedStatus();
  std::vector<BlockId> blocks = CurrentTreeBlocks();
  std::sort(blocks.begin(), blocks.end());
  return VerifyBlocksLocked(lk, blocks);
}

Status Engine::CollectVlogLocked(std::unique_lock<std::mutex>& lk,
                                 uint64_t stop) {
  while (value_log_->pending_tail() < stop) {
    // Each entry is probed and (when live) rewritten under one db_mu_
    // hold, so no writer slips between the check and the re-append.
    // Anything the tree does not point at — overwritten, deleted, or an
    // orphan whose WAL frame never became durable — is dead.
    LSMSSD_RETURN_IF_ERROR(value_log_->CollectOldest(
        lk, [&](Key key, const std::string& value,
                std::string_view pointer) -> StatusOr<bool> {
          std::unique_lock<std::mutex> inner(db_mu_);
          if (failed()) return FailedStatus();
          {
            std::shared_lock<SharedMutex> tlk(tree_mu_);
            const auto cur = FindStoredLocked(key, /*try_only=*/false,
                                              /*mem_held=*/false);
            if (!cur->ok() || cur->value() != pointer) return false;
          }
          LSMSSD_RETURN_IF_ERROR(
              ApplyLocked(RecordType::kPut, key, value, inner));
          return true;
        }));
    if (failed()) return FailedStatus();
  }
  // Publish the new tail (and delete the reclaimed segments) now; a crash
  // before this checkpoint re-runs the GC, which converges.
  if (value_log_->pending_tail() > value_log_->tail_file()) {
    return CheckpointLocked(lk);
  }
  return Status::OK();
}

Status Engine::CompactVlog() {
  if (value_log_ == nullptr) return Status::OK();
  std::unique_lock<std::mutex> lk(db_mu_);
  if (failed()) return FailedStatus();
  // One pass over the segments sealed *now*: rewrites land in the
  // current head (or its successors), which stays out of this pass —
  // chasing the moving head would re-copy every live value forever.
  return CollectVlogLocked(lk, value_log_->head_file());
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
  if (value_log_ != nullptr) value_log_->AddStats(&s);
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
