// Db: the router over 1..N Engines. It owns the root directory's
// layout — for N = 1 the lone engine lives in the root itself; for N > 1
// engine i lives in `shard-<i>`, and a checksummed SHARDS file records
// the count and the partition function, written once at creation and
// authoritative on every reopen, so the key->engine mapping can never
// drift. Point operations route by ShardOfKey; everything else visits
// the engines in index order. src/db/engine.cc holds the engine itself.

#include "src/db/db.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <sstream>

#include "src/db/fs_util.h"
#include "src/util/crc32c.h"

namespace lsmssd {

namespace {

constexpr char kLayoutMagic[] = "lsmssd-shards v1";
constexpr char kLayoutHash[] = "fnv1a64";

/// The layout file body the CRC line covers.
std::string EncodeLayoutBody(size_t shards) {
  return std::string(kLayoutMagic) + "\ncount=" + std::to_string(shards) +
         "\nhash=" + kLayoutHash + "\n";
}

/// N-way merge over per-engine snapshot iterators. Each child already
/// holds its engine's shared locks, so the merged view is one consistent
/// cut for as long as this iterator lives.
/// Hash partitioning puts every key in exactly one shard, so no
/// duplicate-key resolution is needed — a plain min-heap merge is exact.
class ShardMergeIterator : public Iterator {
 public:
  explicit ShardMergeIterator(std::vector<std::unique_ptr<Iterator>> children)
      : children_(std::move(children)) {}

  bool Valid() const override { return !heap_.empty(); }

  void SeekToFirst() override {
    for (auto& c : children_) c->SeekToFirst();
    RebuildHeap();
  }

  void Seek(Key target) override {
    for (auto& c : children_) c->Seek(target);
    RebuildHeap();
  }

  void Next() override {
    Iterator* top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), &Greater);
    heap_.pop_back();
    top->Next();
    if (top->Valid()) {
      heap_.push_back(top);
      std::push_heap(heap_.begin(), heap_.end(), &Greater);
    } else if (!top->status().ok()) {
      // A child died mid-iteration; the merged view must stop rather
      // than silently skip that shard's remaining keys.
      heap_.clear();
    }
  }

  Key key() const override { return heap_.front()->key(); }
  const std::string& value() const override { return heap_.front()->value(); }

  Status status() const override {
    for (const auto& c : children_) {
      if (!c->status().ok()) return c->status();
    }
    return Status::OK();
  }

 private:
  /// Min-heap via std::*_heap with an inverted comparison.
  static bool Greater(const Iterator* a, const Iterator* b) {
    return a->key() > b->key();
  }

  void RebuildHeap() {
    heap_.clear();
    for (auto& c : children_) {
      if (c->Valid()) heap_.push_back(c.get());
    }
    std::make_heap(heap_.begin(), heap_.end(), &Greater);
  }

  std::vector<std::unique_ptr<Iterator>> children_;
  std::vector<Iterator*> heap_;  ///< Valid children, min-key at front.
};

/// The DbOptions checks, run before Open touches the filesystem.
Status ValidateOptions(const DbOptions& dbopts) {
  LSMSSD_RETURN_IF_ERROR(dbopts.options.Validate());
  if (dbopts.options.annihilate_delete_put) {
    return Status::InvalidArgument(
        "Db is incompatible with annihilate_delete_put: WAL recovery "
        "re-applies a tail of the history, which eager tombstone+insert "
        "annihilation cannot tolerate");
  }
  if (dbopts.wal_sync_mode == WalSyncMode::kEveryN &&
      dbopts.wal_sync_every_n == 0) {
    return Status::InvalidArgument("wal_sync_every_n must be > 0");
  }
  if (dbopts.background_compaction && dbopts.compaction_queue_depth == 0) {
    return Status::InvalidArgument("compaction_queue_depth must be >= 1");
  }
  if (dbopts.compaction_workers != 1) {
    return Status::InvalidArgument(
        "compaction_workers must be 1 (one compaction thread per engine)");
  }
  if (dbopts.shards == 0) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (dbopts.vlog_gc_ratio < 0 || dbopts.vlog_gc_ratio >= 1) {
    return Status::InvalidArgument("vlog_gc_ratio must be in [0, 1)");
  }
  if (dbopts.options.vlog_value_threshold != 0 &&
      dbopts.vlog_segment_bytes == 0) {
    return Status::InvalidArgument("vlog_segment_bytes must be > 0");
  }
  if (dbopts.checkpoint_wal_bytes > 0) {
    // A lower bound on a WAL batch of one entry (kAlways writes one per
    // op): 8-byte batch header, tag, up to 8 key bytes, the payload (its
    // varint length not counted). In vlog mode the WAL carries the
    // 16-byte pointer, not the value.
    const uint64_t max_entry_bytes =
        8 + 1 + 8 + dbopts.options.stored_payload_size();
    if (dbopts.checkpoint_wal_bytes < 2 * max_entry_bytes) {
      return Status::InvalidArgument(
          "checkpoint_wal_bytes=" + std::to_string(dbopts.checkpoint_wal_bytes) +
          " is below two WAL entries (" + std::to_string(2 * max_entry_bytes) +
          " bytes): every modification would trigger a checkpoint; raise "
          "it or use 0 to disable automatic checkpoints");
    }
  }
  return Status::OK();
}

/// True when `dir` already holds an engine. A crash before the first
/// checkpoint leaves a wal.log/blocks.dev with no MANIFEST; that is
/// still an existing engine (its WAL is recoverable state).
bool EngineExists(const std::string& dir) {
  return fsutil::FileExists(Db::ManifestPath(dir)) ||
         fsutil::FileExists(Db::WalPath(dir)) ||
         fsutil::FileExists(Db::DevicePath(dir)) ||
         !Db::ListWalSegments(dir).empty();
}

/// One engine's share of a device-block cap: the ceiling of an even
/// split, so the shares sum to at least `max_blocks` (0 = unlimited).
uint64_t PerEngineCap(uint64_t max_blocks, size_t engines) {
  return (max_blocks + engines - 1) / engines;
}

/// Folds one engine's counters into `agg`: scalar counters sum, IoStats
/// merge, quarantine ids concatenate (block ids are per-engine
/// namespaces, so duplicates are kept), stall histograms Merge.
void AddStats(DbStats* agg, const DbStats& s) {
  agg->io.MergeFrom(s.io);
  agg->wal_entries_appended += s.wal_entries_appended;
  agg->wal_bytes_appended += s.wal_bytes_appended;
  agg->wal_syncs += s.wal_syncs;
  agg->checkpoints += s.checkpoints;
  agg->recovery_wal_entries_replayed += s.recovery_wal_entries_replayed;
  agg->recovery_manifest_blocks += s.recovery_manifest_blocks;
  agg->deferred_frees += s.deferred_frees;
  agg->quarantined_blocks.insert(agg->quarantined_blocks.end(),
                                 s.quarantined_blocks.begin(),
                                 s.quarantined_blocks.end());
  agg->scrub_blocks_verified += s.scrub_blocks_verified;
  agg->scrub_corruptions_found += s.scrub_corruptions_found;
  agg->write_backpressure_events += s.write_backpressure_events;
  agg->vlog_segments += s.vlog_segments;
  agg->vlog_bytes_appended += s.vlog_bytes_appended;
  agg->vlog_gc_rewrites += s.vlog_gc_rewrites;
  agg->vlog_segments_reclaimed += s.vlog_segments_reclaimed;
  agg->vlog_quarantined_entries += s.vlog_quarantined_entries;
  agg->memtables_sealed += s.memtables_sealed;
  agg->background_flushes += s.background_flushes;
  agg->background_merges += s.background_merges;
  agg->compaction_queue_depth += s.compaction_queue_depth;
  agg->compaction_micros += s.compaction_micros;
  agg->throttle_events += s.throttle_events;
  agg->throttle_micros += s.throttle_micros;
  agg->stall_events += s.stall_events;
  agg->stall_micros += s.stall_micros;
  agg->stall_latency.Merge(s.stall_latency);
}

/// (number, path) of every file in `dir` named `<prefix><digits>`, sorted
/// by number.
std::vector<std::pair<uint64_t, std::string>> NumberedFiles(
    const std::string& dir, const std::string& prefix) {
  std::vector<std::pair<uint64_t, std::string>> files;
  ::DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (struct ::dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string tail = name.substr(prefix.size());
    if (tail.empty() ||
        tail.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    files.emplace_back(std::stoull(tail), dir + "/" + name);
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

/// The merged view over per-engine iterators; a lone child needs no
/// merge and is returned as is.
std::unique_ptr<Iterator> MergeEngineIterators(
    std::vector<std::unique_ptr<Iterator>> children) {
  if (children.size() == 1) return std::move(children.front());
  return std::make_unique<ShardMergeIterator>(std::move(children));
}

}  // namespace

std::string Db::ManifestPath(const std::string& dir) {
  return dir + "/MANIFEST";
}
std::string Db::ManifestTmpPath(const std::string& dir) {
  return dir + "/MANIFEST.tmp";
}
std::string Db::DevicePath(const std::string& dir) {
  return dir + "/blocks.dev";
}
std::string Db::ChecksumPath(const std::string& dir) {
  return FileBlockDevice::SidecarPath(DevicePath(dir));
}
std::string Db::WalPath(const std::string& dir) { return dir + "/wal.log"; }
std::string Db::WalSegmentPath(const std::string& dir, uint64_t seq) {
  return dir + "/wal.old." + std::to_string(seq);
}

std::vector<std::string> Db::ListWalSegments(const std::string& dir) {
  std::vector<std::string> paths;
  for (auto& [seq, path] : NumberedFiles(dir, "wal.old.")) {
    paths.push_back(std::move(path));
  }
  return paths;
}

std::string Db::VlogSegmentPath(const std::string& dir, uint64_t n) {
  return dir + "/vlog-" + std::to_string(n);
}

std::vector<uint64_t> Db::ListVlogSegments(const std::string& dir) {
  std::vector<uint64_t> segments;
  for (const auto& [n, path] : NumberedFiles(dir, "vlog-")) {
    segments.push_back(n);
  }
  return segments;
}

std::string Db::ShardLayoutPath(const std::string& dir) {
  return dir + "/SHARDS";
}
std::string Db::ShardLayoutTmpPath(const std::string& dir) {
  return dir + "/SHARDS.tmp";
}
std::string Db::ShardDirPath(const std::string& dir, size_t i) {
  return dir + "/shard-" + std::to_string(i);
}

size_t Db::ShardOfKey(Key key, size_t shards) {
  // FNV-1a 64-bit over the key's 8 little-endian bytes. Stable by
  // construction: this function is part of the on-disk layout (SHARDS
  // records `hash=fnv1a64`) and must never change for existing Dbs.
  uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (key >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h % shards);
}

StatusOr<size_t> Db::ReadShardLayout(const std::string& dir) {
  const std::string path = ShardLayoutPath(dir);
  if (!fsutil::FileExists(path)) {
    return Status::NotFound(path + ": no shard layout (unsharded root?)");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  // The last line is "crc=<u32>\n" over everything before it.
  const std::string crc_tag = "crc=";
  const size_t crc_pos = data.rfind(crc_tag);
  if (crc_pos == std::string::npos || crc_pos == 0 ||
      data[crc_pos - 1] != '\n') {
    return Status::Corruption(path + ": missing crc line");
  }
  const std::string body = data.substr(0, crc_pos);
  const std::string crc_str = data.substr(crc_pos + crc_tag.size());
  errno = 0;
  char* end = nullptr;
  const unsigned long long stored = std::strtoull(crc_str.c_str(), &end, 10);
  if (end == crc_str.c_str() || errno != 0 ||
      crc32c::Value(reinterpret_cast<const uint8_t*>(body.data()),
                    body.size()) != static_cast<uint32_t>(stored)) {
    return Status::Corruption(path + ": checksum mismatch");
  }

  if (body.rfind(kLayoutMagic, 0) != 0) {
    return Status::Corruption(path + ": bad magic");
  }
  const std::string count_tag = "\ncount=";
  const size_t count_pos = body.find(count_tag);
  if (count_pos == std::string::npos) {
    return Status::Corruption(path + ": missing count");
  }
  const size_t count =
      std::strtoull(body.c_str() + count_pos + count_tag.size(), nullptr, 10);
  if (count < 2) {
    return Status::Corruption(path + ": shard count " +
                              std::to_string(count) + " out of range");
  }
  if (body.find("\nhash=" + std::string(kLayoutHash) + "\n") ==
      std::string::npos) {
    return Status::Corruption(path + ": unknown partition hash");
  }
  return count;
}

Status Db::WriteShardLayout(const std::string& dir, size_t shards) {
  const std::string body = EncodeLayoutBody(shards);
  const std::string data =
      body + "crc=" +
      std::to_string(crc32c::Value(
          reinterpret_cast<const uint8_t*>(body.data()), body.size())) +
      "\n";
  const std::string tmp = ShardLayoutTmpPath(dir);
  const std::string path = ShardLayoutPath(dir);
  LSMSSD_RETURN_IF_ERROR(fsutil::WriteFile(tmp, data, /*sync=*/true));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)::unlink(tmp.c_str());
    return fsutil::Errno("rename " + tmp + " -> " + path);
  }
  return fsutil::SyncDir(dir);
}

StatusOr<std::unique_ptr<Db>> Db::Open(const DbOptions& dbopts,
                                       const std::string& dir) {
  LSMSSD_RETURN_IF_ERROR(ValidateOptions(dbopts));

  // The root directory.
  struct ::stat st;
  if (::stat(dir.c_str(), &st) != 0) {
    if (!dbopts.create_if_missing) {
      return Status::NotFound("no Db at " + dir +
                              " (create_if_missing is off)");
    }
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return fsutil::Errno("mkdir " + dir);
    }
  } else if (!S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument(dir + " exists and is not a directory");
  }

  // The layout. An existing SHARDS file is authoritative: the caller may
  // reopen with the default shards=1 (or the matching count), but never
  // with a different explicit count. Without one, shards > 1 creates the
  // sharded layout — but not over an engine already in the root: its
  // keys were never hash-partitioned, so routing would make them
  // unreachable.
  size_t n = dbopts.shards;
  const bool sharded_layout = fsutil::FileExists(ShardLayoutPath(dir));
  if (sharded_layout) {
    auto layout_or = ReadShardLayout(dir);
    if (!layout_or.ok()) return layout_or.status();
    if (dbopts.error_if_exists) {
      return Status::FailedPrecondition("Db already exists at " + dir);
    }
    if (n > 1 && n != layout_or.value()) {
      return Status::InvalidArgument(
          "Db at " + dir + " is laid out as " +
          std::to_string(layout_or.value()) + " shards; reopening as " +
          std::to_string(n) +
          " would repartition keys (resharding is not supported)");
    }
    n = layout_or.value();
  } else if (EngineExists(dir)) {
    if (n > 1) {
      return Status::InvalidArgument(
          "cannot reshard the existing single-shard Db at " + dir + " into " +
          std::to_string(n) + " shards");
    }
    if (dbopts.error_if_exists) {
      return Status::FailedPrecondition("Db already exists at " + dir);
    }
  }
  if (!sharded_layout && n > 1) {
    // Publish the layout before any engine exists: a crash between here
    // and the engine opens below reopens as an (empty) sharded Db.
    LSMSSD_RETURN_IF_ERROR(WriteShardLayout(dir, n));
  }

  DbOptions engine_opts = dbopts;
  engine_opts.max_device_blocks = PerEngineCap(dbopts.max_device_blocks, n);
  std::unique_ptr<Db> db(new Db(dir));
  db->engines_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string engine_dir = n > 1 ? ShardDirPath(dir, i) : dir;
    auto engine_or = Engine::Open(engine_opts, engine_dir);
    if (!engine_or.ok()) return engine_or.status();
    db->engines_.push_back(std::move(engine_or).value());
  }
  return db;
}

void Db::Close() {
  for (auto& e : engines_) e->Close();
}

Db::~Db() { Close(); }

bool Db::failed() const {
  return std::any_of(engines_.begin(), engines_.end(),
                     [](const auto& e) { return e->failed(); });
}

Status Db::Put(Key key, std::string_view payload) {
  if (failed()) return Engine::FailedStatus();
  return EngineOf(key)->Put(key, payload);
}

Status Db::Delete(Key key) {
  if (failed()) return Engine::FailedStatus();
  return EngineOf(key)->Delete(key);
}

StatusOr<std::string> Db::Get(Key key) {
  if (failed()) return Engine::FailedStatus();
  return EngineOf(key)->Get(key);
}

std::optional<StatusOr<std::string>> Db::TryGet(Key key) {
  if (failed()) return Engine::FailedStatus();
  return EngineOf(key)->TryGet(key);
}

Status Db::Scan(Key lo, Key hi,
                std::vector<std::pair<Key, std::string>>* out) {
  if (lo > hi) return Status::InvalidArgument("scan range inverted");
  auto it = NewIterator();
  if (it == nullptr) return Engine::FailedStatus();
  for (it->Seek(lo); it->Valid() && it->key() <= hi; it->Next()) {
    out->emplace_back(it->key(), it->value());
  }
  return it->status();
}

std::unique_ptr<Iterator> Db::NewIterator() const {
  // Fixed acquisition order 0..N-1: each child iterator takes and holds
  // its engine's shared locks, so two concurrent readers can never
  // deadlock, and no writer can slip into an already-snapshotted engine
  // between the acquisitions.
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(engines_.size());
  for (const auto& e : engines_) {
    auto it = e->NewIterator();
    if (it == nullptr) return nullptr;  // That engine failed; so does the cut.
    children.push_back(std::move(it));
  }
  return MergeEngineIterators(std::move(children));
}

Status Db::Checkpoint() {
  for (auto& e : engines_) LSMSSD_RETURN_IF_ERROR(e->Checkpoint());
  return Status::OK();
}

Status Db::SyncWal() {
  for (auto& e : engines_) LSMSSD_RETURN_IF_ERROR(e->SyncWal());
  return Status::OK();
}

Status Db::WaitForCompaction() {
  for (auto& e : engines_) LSMSSD_RETURN_IF_ERROR(e->WaitForCompaction());
  return Status::OK();
}

Status Db::Scrub() {
  // Corruption in one engine is independent of the others, so every
  // engine is scrubbed and the first Corruption is the verdict.
  Status verdict = Status::OK();
  for (auto& e : engines_) {
    Status st = e->Scrub();
    if (st.IsCorruption()) {
      if (verdict.ok()) verdict = st;
    } else if (!st.ok()) {
      return st;  // Transport-level failure: surface immediately.
    }
  }
  return verdict;
}

Status Db::CompactVlog() {
  for (auto& e : engines_) LSMSSD_RETURN_IF_ERROR(e->CompactVlog());
  return Status::OK();
}

void Db::SetMaxDeviceBlocks(uint64_t max_blocks) {
  const uint64_t cap = PerEngineCap(max_blocks, engines_.size());
  for (auto& e : engines_) e->SetMaxDeviceBlocks(cap);
}

DbStats Db::Stats() const {
  DbStats agg;
  for (const auto& e : engines_) AddStats(&agg, e->Stats());
  std::sort(agg.quarantined_blocks.begin(), agg.quarantined_blocks.end());
  agg.shards = engines_.size();
  return agg;
}

}  // namespace lsmssd
