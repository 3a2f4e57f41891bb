#include "src/lsm/lsm_tree.h"

#include <algorithm>
#include <optional>

#include "src/lsm/merge.h"
#include "src/util/logging.h"

namespace lsmssd {

StatusOr<std::unique_ptr<LsmTree>> LsmTree::Open(
    const Options& options, BlockDevice* device,
    std::unique_ptr<MergePolicy> policy) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  LSMSSD_RETURN_IF_ERROR(
      options.Validate(static_cast<uint32_t>(device->block_size())));
  if (policy == nullptr) return Status::InvalidArgument("null merge policy");
  return std::unique_ptr<LsmTree>(
      new LsmTree(options, device, std::move(policy)));
}

LsmTree::LsmTree(const Options& options, BlockDevice* device,
                 std::unique_ptr<MergePolicy> policy)
    : options_(options),
      cache_device_(options.cache_blocks > 0
                        ? std::make_unique<CachedBlockDevice>(
                              device, options.cache_blocks)
                        : nullptr),
      device_(cache_device_ != nullptr ? cache_device_.get() : device),
      policy_(std::move(policy)) {
  stats_.EnsureLevels(2);
  // Strategic pre-creation of levels (Section V-A's open question): an
  // empty deep level makes merges into it cheap from the start.
  for (size_t i = 0; i < options_.initial_levels; ++i) AddLevel();
}

const Level& LsmTree::level(size_t i) const {
  LSMSSD_CHECK_GE(i, 1u);
  LSMSSD_CHECK_LT(i, num_levels());
  return *levels_[i - 1];
}

Level* LsmTree::mutable_level(size_t i) {
  LSMSSD_CHECK_GE(i, 1u);
  LSMSSD_CHECK_LT(i, num_levels());
  return levels_[i - 1].get();
}

void LsmTree::set_policy(std::unique_ptr<MergePolicy> policy) {
  LSMSSD_CHECK(policy != nullptr);
  policy_ = std::move(policy);
}

Status LsmTree::LogModification(Memtable* into, Key key,
                                const std::string_view* payload) {
  if (payload != nullptr &&
      payload->size() != options_.stored_payload_size()) {
    return Status::InvalidArgument("payload must be exactly payload_size");
  }
  if (key > MaxKeyForSize(options_.key_size)) {
    return Status::InvalidArgument("key does not fit in key_size bytes");
  }
  if (payload != nullptr) {
    into->Put(key, std::string(*payload));
    ++stats_.puts;
  } else {
    into->Delete(key);
    ++stats_.deletes;
  }
  return Status::OK();
}

Status LsmTree::CommitToL0(Key key, const std::string_view* payload) {
  if (!memtable_.empty() || !sealed_.empty()) {
    return Status::FailedPrecondition(
        "Put/Delete while the active memtable or sealed queue holds records");
  }
  LSMSSD_RETURN_IF_ERROR(LogModification(&l0_buffer_, key, payload));
  for (;;) {
    auto step = BackgroundCompactStep();
    if (!step.ok()) return step.status();
    if (step.value() == CompactStep::kNone) return Status::OK();
  }
}

Status LsmTree::Put(Key key, std::string_view payload) {
  return CommitToL0(key, &payload);
}

Status LsmTree::Delete(Key key) { return CommitToL0(key, nullptr); }

Status LsmTree::PutNoMerge(Key key, std::string_view payload) {
  return LogModification(&memtable_, key, &payload);
}

Status LsmTree::DeleteNoMerge(Key key) {
  return LogModification(&memtable_, key, nullptr);
}

bool LsmTree::MemtableAtCapacity() const {
  return memtable_.size() >=
         options_.level0_capacity_blocks * options_.records_per_block();
}

void LsmTree::SealMemtable() {
  if (memtable_.empty()) return;
  sealed_.push_back(std::make_unique<Memtable>(std::move(memtable_)));
  memtable_ = Memtable();
}

uint64_t LsmTree::sealed_records() const {
  uint64_t total = 0;
  for (const auto& m : sealed_) total += m->size();
  return total;
}

bool LsmTree::HasCompactionWork() const {
  // A backlogged buffer defers the flush but is itself a merge source.
  const CompactPlan plan = PlanCompaction();
  return plan.flush || plan.merge_source.has_value();
}

bool LsmTree::L0BufferOverflowing() const {
  return l0_buffer_.size() >=
         options_.level0_capacity_blocks * options_.records_per_block();
}

bool LsmTree::L0BufferBacklogged() const {
  return l0_buffer_.size() >= 2 * options_.level0_capacity_blocks *
                                  options_.records_per_block();
}

Status LsmTree::FlushSealedStep(Memtable* m) {
  LSMSSD_CHECK(m != nullptr);
  // Absorb `m` into the memory-resident L0 buffer — pure memory, no
  // device I/O. Newest wins: `m` is newer than everything the buffer
  // already holds (it absorbed only earlier seals), so plain Put/Delete
  // overwrite is correct. Records leave memory only when the buffer
  // itself overflows (MergeSourceStep(0)), through policy-windowed L0
  // merges. Draining each sealed memtable straight to L1 instead
  // (windowed or bulk) costs 4-5x the blocks: windows pay ~one
  // target-block rewrite per record on the ever-sparser tail, and a bulk
  // merge rewrites the whole target.
  for (Record& r : m->ExtractAll()) {
    if (r.is_tombstone()) {
      l0_buffer_.Delete(r.key);
    } else {
      l0_buffer_.Put(r.key, std::move(r.payload));
    }
  }
  return Status::OK();
}

bool LsmTree::PopSealedIfDrained() {
  if (sealed_.empty() || !sealed_.front()->empty()) return false;
  sealed_.pop_front();
  return true;
}

LsmTree::CompactPlan LsmTree::PlanCompaction() const {
  CompactPlan plan;
  // Sealed memtables first: they bound the write path's queue, and a
  // flush is pure memory (see FlushSealedStep) ... unless the buffer is
  // backlogged: then merges go first so the buffer stays bounded and the
  // full queue throttles the writers.
  plan.flush = !sealed_.empty() && !L0BufferBacklogged();
  // The L0 buffer is the shallowest "level": it spills a policy-selected
  // window once it reaches K0 capacity.
  if (L0BufferOverflowing()) {
    plan.merge_source = 0;
    return plan;
  }
  for (size_t i = 1; i < num_levels(); ++i) {
    if (LevelOverflowing(i)) {
      plan.merge_source = i;
      break;
    }
  }
  return plan;
}

StatusOr<LsmTree::CompactStep> LsmTree::MergeSourceStep(size_t source) {
  const bool overflowing =
      source == 0 ? L0BufferOverflowing()
                  : source < num_levels() && LevelOverflowing(source);
  if (!overflowing) return CompactStep::kNone;
  if (source + 1 == num_levels()) AddLevel();
  LSMSSD_RETURN_IF_ERROR(ExecuteMerge(source));
  return CompactStep::kMerge;
}

StatusOr<LsmTree::CompactStep> LsmTree::BackgroundCompactStep() {
  const CompactPlan plan = PlanCompaction();
  if (plan.flush) {
    // A flush step fully absorbs the front memtable, so the pop fires.
    LSMSSD_RETURN_IF_ERROR(FlushSealedStep(FrontSealed()));
    PopSealedIfDrained();
    return CompactStep::kFlush;
  }
  if (!plan.merge_source) return CompactStep::kNone;
  return MergeSourceStep(*plan.merge_source);
}

const Record* LsmTree::FindInMemtables(Key key) const {
  if (const Record* r = memtable_.Get(key)) return r;
  for (auto it = sealed_.rbegin(); it != sealed_.rend(); ++it) {
    if (const Record* r = (*it)->Get(key)) return r;
  }
  // The L0 buffer holds absorbed seals — older than anything above.
  return l0_buffer_.Get(key);
}

StatusOr<std::string> LsmTree::GetFromLevels(Key key) {
  for (size_t i = 1; i < num_levels(); ++i) {
    Record r;
    Status st = level(i).Lookup(key, &r);
    if (st.ok()) {
      if (r.is_tombstone()) return Status::NotFound("deleted");
      return r.payload;
    }
    if (!st.IsNotFound()) return st;
  }
  return Status::NotFound("no such key");
}

bool LsmTree::GetFromLevelsReadsDevice(Key key) const {
  for (size_t i = 1; i < num_levels(); ++i) {
    const std::optional<BlockId> block = level(i).BlockForLookup(key);
    if (!block) continue;
    if (cache_device_ == nullptr || !cache_device_->cache().Contains(*block)) {
      return true;
    }
  }
  return false;
}

StatusOr<std::string> LsmTree::Get(Key key) {
  ++stats_.gets;
  if (const Record* r = FindInMemtables(key)) {
    if (r->is_tombstone()) return Status::NotFound("deleted");
    return r->payload;
  }
  return GetFromLevels(key);
}

std::vector<Record> LsmTree::MemtableSnapshot() const {
  // Newest first with try_emplace: the first version seen for a key wins,
  // so active shadows sealed and newer sealed shadows older. Tombstones
  // are kept — they must survive to cancel versions in the levels.
  std::map<Key, Record> merged;
  auto absorb = [&merged](const Memtable& m) {
    for (Record& r : m.Slice(0, m.size())) {
      merged.try_emplace(r.key, std::move(r));
    }
  };
  absorb(memtable_);
  for (auto it = sealed_.rbegin(); it != sealed_.rend(); ++it) absorb(**it);
  absorb(l0_buffer_);  // Oldest memory-resident state.
  std::vector<Record> out;
  out.reserve(merged.size());
  for (auto& [key, r] : merged) out.push_back(std::move(r));
  return out;
}

Status LsmTree::Scan(Key lo, Key hi,
                     std::vector<std::pair<Key, std::string>>* out) {
  ++stats_.scans;
  if (lo > hi) return Status::InvalidArgument("scan range inverted");
  std::unique_ptr<Iterator> it = NewIterator();
  for (it->Seek(lo); it->Valid() && it->key() <= hi; it->Next()) {
    out->emplace_back(it->key(), it->value());
  }
  return it->status();
}

bool LsmTree::LevelOverflowing(size_t i) const {
  return level(i).size_blocks() > LevelCapacityBlocks(i);
}

void LsmTree::AddLevel() {
  levels_.push_back(
      std::make_unique<Level>(options_, device_, levels_.size() + 1));
  stats_.EnsureLevels(num_levels());
}

Status LsmTree::ExecuteMerge(size_t source_level) {
  const size_t target_index = source_level + 1;
  LSMSSD_CHECK_LT(target_index, num_levels());
  MergeSelection sel = policy_->SelectMerge(*this, source_level);

  Level* target = mutable_level(target_index);
  const bool bottom = IsBottomLevel(target_index);
  MergeExecutor executor(options_, device_, target, bottom,
                         options_.preserve_blocks);

  MergeSource source;
  // L0 input is *copied* out of the buffer and erased only after the
  // merge commits, so an aborted merge (corrupt target leaf, full device)
  // leaves L0 — and with it every not-yet-durable write — intact.
  size_t l0_erase_begin = 0;
  size_t l0_erase_count = 0;
  if (source_level == 0) {
    l0_erase_begin = sel.full ? 0 : sel.record_begin;
    l0_erase_count = sel.full ? l0_buffer_.size() : sel.record_count;
    std::vector<Record> records =
        l0_buffer_.Slice(l0_erase_begin, l0_erase_count);
    if (records.empty()) {
      return Status::Internal("policy selected an empty L0 range");
    }
    source = MergeSource::FromL0(std::move(records));
  } else {
    Level* src = mutable_level(source_level);
    const size_t begin = sel.full ? 0 : sel.leaf_begin;
    const size_t end =
        sel.full ? src->num_leaves() : sel.leaf_begin + sel.leaf_count;
    if (begin >= end || end > src->num_leaves()) {
      return Status::Internal("policy selected an invalid leaf range");
    }
    source = MergeSource::FromLevel(src, begin, end);
  }

  auto result_or = executor.Merge(std::move(source));
  if (!result_or.ok()) return result_or.status();
  if (source_level == 0) l0_buffer_.EraseRange(l0_erase_begin, l0_erase_count);
  const MergeResult& r = result_or.value();

  stats_.EnsureLevels(num_levels());
  ++stats_.merges_into[target_index];
  if (sel.full) ++stats_.full_merges_into[target_index];
  stats_.blocks_written_into[target_index] += r.output_blocks_written;
  stats_.maintenance_blocks_written[target_index] +=
      r.target_maintenance_writes;
  stats_.records_merged_into[target_index] += r.source_records;
  stats_.blocks_preserved_into[target_index] += r.blocks_preserved;
  stats_.pairwise_repairs[target_index] += r.target_pairwise_repairs;
  if (r.target_compacted) ++stats_.compactions[target_index];
  if (source_level >= 1) {
    stats_.maintenance_blocks_written[source_level] +=
        r.source_maintenance_writes;
    stats_.pairwise_repairs[source_level] += r.source_pairwise_repairs;
    if (r.source_compacted) ++stats_.compactions[source_level];
  }
  return Status::OK();
}

uint64_t LsmTree::TotalRecords() const {
  uint64_t total = memtable_.size() + sealed_records() + l0_buffer_.size();
  for (size_t i = 1; i < num_levels(); ++i) total += level(i).record_count();
  return total;
}

uint64_t LsmTree::ApproximateDataBytes() const {
  return TotalRecords() * options_.record_size();
}

Status LsmTree::CheckInvariants(bool deep) const {
  for (size_t i = 1; i < num_levels(); ++i) {
    LSMSSD_RETURN_IF_ERROR(level(i).CheckInvariants(deep));
    // Levels exceed capacity only transiently: between compaction steps,
    // before the caller has run them to kNone.
    if (level(i).size_blocks() > LevelCapacityBlocks(i)) {
      return Status::Internal("level above capacity at rest");
    }
  }
  return Status::OK();
}

}  // namespace lsmssd
