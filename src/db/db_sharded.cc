// Sharded Db facade: hash-partitions keys across N independent
// single-shard Db instances (each with its own memtable pipeline, WAL,
// device file, and compaction thread) living in `shard-<i>`
// subdirectories of one root. The root carries a checksummed SHARDS
// layout file recording the shard count and partition function, written
// once at creation and authoritative on every reopen — so a sharded Db
// opens correctly with default options and the key->shard mapping can
// never drift. Routing (Put/Delete/Get) and fan-out (checkpoint, scrub,
// stats, scans) live here; src/db/db.cc holds the single-shard engine
// and branches to these implementations when shards_ is non-empty.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/db/db.h"
#include "src/db/fs_util.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"

namespace lsmssd {

namespace {

constexpr char kLayoutMagic[] = "lsmssd-shards v1";
constexpr char kLayoutHash[] = "fnv1a64";

/// The layout file body the CRC line covers.
std::string EncodeLayoutBody(size_t shards) {
  return std::string(kLayoutMagic) + "\ncount=" + std::to_string(shards) +
         "\nhash=" + kLayoutHash + "\n";
}

/// N-way merge over per-shard snapshot iterators. Each child already
/// holds its shard's shared locks (it is a Db SnapshotIterator), so the
/// merged view is one consistent cut for as long as this iterator lives.
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

}  // namespace

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
  if (shards <= 1) return 0;
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

StatusOr<std::unique_ptr<Db>> Db::OpenSharded(const DbOptions& dbopts,
                                              const std::string& dir,
                                              size_t layout_shards) {
  if (layout_shards > 0) {
    // An existing layout is an existing Db, and it is authoritative: the
    // caller may reopen with the default shards=1 (or the matching
    // count), but never with a different explicit count.
    if (dbopts.error_if_exists) {
      return Status::FailedPrecondition("Db already exists at " + dir);
    }
    if (dbopts.shards > 1 && dbopts.shards != layout_shards) {
      return Status::InvalidArgument(
          "Db at " + dir + " is laid out as " +
          std::to_string(layout_shards) + " shards; reopening as " +
          std::to_string(dbopts.shards) +
          " would repartition keys (resharding is not supported)");
    }
  } else {
    // Fresh sharded creation. An existing single-shard Db cannot be
    // resharded in place: its keys were never hash-partitioned, so
    // opening it behind a routing facade would make them unreachable.
    if (fsutil::FileExists(ManifestPath(dir)) ||
        fsutil::FileExists(WalPath(dir)) ||
        fsutil::FileExists(DevicePath(dir)) ||
        !ListWalSegments(dir).empty()) {
      return Status::InvalidArgument(
          "cannot reshard the existing single-shard Db at " + dir + " into " +
          std::to_string(dbopts.shards) + " shards");
    }
    // Publish the layout before any shard exists: a crash between here
    // and the child opens below reopens as an (empty) sharded Db.
    LSMSSD_RETURN_IF_ERROR(WriteShardLayout(dir, dbopts.shards));
  }
  const size_t n = layout_shards > 0 ? layout_shards : dbopts.shards;

  DbOptions child = dbopts;
  child.shards = 1;
  child.shard_memory_budget_records = 0;
  // Shard directories are facade internals: always creatable (a crash
  // during creation may have left only some of them), and never
  // "already exists" errors — error_if_exists was enforced on the root.
  child.create_if_missing = true;
  child.error_if_exists = false;
  if (dbopts.max_device_blocks > 0) {
    // Ceil-divide so per-shard caps sum to >= the requested total; the
    // facade's SetMaxDeviceBlocks applies the same split at runtime.
    child.max_device_blocks = (dbopts.max_device_blocks + n - 1) / n;
  }

  std::unique_ptr<Db> facade(new Db(dbopts, dir));
  facade->shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard_or = Open(child, ShardDirPath(dir, i));
    if (!shard_or.ok()) return shard_or.status();
    facade->shards_.push_back(std::move(shard_or).value());
  }

  // Cross-shard memory budget: default to the single-shard ceiling —
  // (queue_depth + 1) sealed/active memtables plus the L0 buffer, each
  // K0 * B records — so N shards together hold no more memory-resident
  // records than one shard's pipeline would.
  const Options& o = child.options;
  facade->shard_mem_budget_ =
      dbopts.shard_memory_budget_records > 0
          ? dbopts.shard_memory_budget_records
          : static_cast<uint64_t>(child.compaction_queue_depth + 2) *
                o.level0_capacity_blocks * o.records_per_block();
  return facade;
}

uint64_t Db::ApproxMemRecords() const {
  return mem_active_records_.load(std::memory_order_relaxed) +
         mem_sealed_records_.load(std::memory_order_relaxed) +
         mem_l0_records_.load(std::memory_order_relaxed);
}

void Db::ArbitrateShardMemory() {
  if (!dbopts_.background_compaction) return;
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->ApproxMemRecords();
  if (total <= shard_mem_budget_) return;
  // Proportional reclaim, simplest form: seal the largest *active*
  // memtable, turning the biggest unsealed memory holder into work the
  // shard's compaction thread drains to SSD. Sealed/L0 records are
  // already on their way down; only active ones need a push.
  Db* victim = nullptr;
  uint64_t victim_active = 0;
  for (const auto& s : shards_) {
    const uint64_t active =
        s->mem_active_records_.load(std::memory_order_relaxed);
    if (active > victim_active) {
      victim_active = active;
      victim = s.get();
    }
  }
  if (victim != nullptr && victim->TrySealActiveMemtable()) {
    arbiter_seals_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Db::TrySealActiveMemtable() {
  std::unique_lock<std::mutex> lk(db_mu_);
  if (failed() || !dbopts_.background_compaction) return false;
  {
    std::lock_guard<std::mutex> clk(comp_mu_);
    // Never stall here: the arbiter is advisory pressure, and a full
    // queue (or a wedged worker) means the shard is already flushing as
    // fast as it can.
    if (sealed_queued_ >= dbopts_.compaction_queue_depth) return false;
    if (!compaction_error_.ok()) return false;
  }
  {
    std::unique_lock<SharedMutex> mlk(mem_mu_);
    if (tree_->active_memtable_records() == 0) return false;
    SealActiveMemtableLocked();
  }
  comp_cv_.notify_all();
  return true;
}

std::unique_ptr<Iterator> Db::ShardedNewIterator() const {
  // Fixed acquisition order 0..N-1: each child iterator takes and holds
  // its shard's shared locks, so two concurrent cross-shard readers can
  // never deadlock, and the merged view is one consistent cut (no
  // writer can slip between the acquisitions into an already-snapshotted
  // shard).
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(shards_.size());
  for (const auto& s : shards_) {
    auto it = s->NewIterator();
    if (it == nullptr) return nullptr;  // That shard failed; so does the cut.
    children.push_back(std::move(it));
  }
  return std::make_unique<ShardMergeIterator>(std::move(children));
}

Status Db::ShardedScan(Key lo, Key hi,
                       std::vector<std::pair<Key, std::string>>* out) {
  if (lo > hi) return Status::InvalidArgument("scan range inverted");
  auto it = ShardedNewIterator();
  if (it == nullptr) return FailedStatus();
  for (it->Seek(lo); it->Valid() && it->key() <= hi; it->Next()) {
    out->emplace_back(it->key(), it->value());
  }
  return it->status();
}

DbStats Db::ShardedStats() const {
  DbStats agg;
  agg.shards = shards_.size();
  agg.arbiter_seals = arbiter_seals_.load(std::memory_order_relaxed);
  bool first = true;
  for (const auto& shard : shards_) {
    const DbStats s = shard->Stats();
    if (first) {
      agg.io = s.io;
      first = false;
    } else {
      agg.io.MergeFrom(s.io);
    }
    agg.wal_entries_appended += s.wal_entries_appended;
    agg.wal_bytes_appended += s.wal_bytes_appended;
    agg.wal_syncs += s.wal_syncs;
    agg.checkpoints += s.checkpoints;
    agg.recovery_wal_entries_replayed += s.recovery_wal_entries_replayed;
    agg.recovery_manifest_blocks += s.recovery_manifest_blocks;
    agg.deferred_frees += s.deferred_frees;
    // Block ids are per-shard namespaces: the same id from two shards
    // names two distinct physical blocks, so duplicates are kept (the
    // count is what matters at the facade; shard(i)->Stats() has the
    // per-shard detail).
    agg.quarantined_blocks.insert(agg.quarantined_blocks.end(),
                                  s.quarantined_blocks.begin(),
                                  s.quarantined_blocks.end());
    agg.scrub_blocks_verified += s.scrub_blocks_verified;
    agg.scrub_corruptions_found += s.scrub_corruptions_found;
    agg.write_backpressure_events += s.write_backpressure_events;
    agg.vlog_segments += s.vlog_segments;
    agg.vlog_bytes_appended += s.vlog_bytes_appended;
    agg.vlog_gc_rewrites += s.vlog_gc_rewrites;
    agg.vlog_segments_reclaimed += s.vlog_segments_reclaimed;
    agg.vlog_quarantined_entries += s.vlog_quarantined_entries;
    agg.memtables_sealed += s.memtables_sealed;
    agg.background_flushes += s.background_flushes;
    agg.background_merges += s.background_merges;
    agg.compaction_queue_depth += s.compaction_queue_depth;
    agg.compaction_micros += s.compaction_micros;
    agg.throttle_events += s.throttle_events;
    agg.throttle_micros += s.throttle_micros;
    agg.stall_events += s.stall_events;
    agg.stall_micros += s.stall_micros;
    agg.stall_latency.Merge(s.stall_latency);
  }
  std::sort(agg.quarantined_blocks.begin(), agg.quarantined_blocks.end());
  return agg;
}

}  // namespace lsmssd
