#include "src/lsm/level.h"

#include <algorithm>
#include <string>

#include "src/util/logging.h"

namespace lsmssd {

LeafMeta MakeLeafMeta(const Options& options,
                      const std::vector<Record>& records, BlockId block) {
  LSMSSD_CHECK(!records.empty());
  LeafMeta meta;
  meta.block = block;
  meta.min_key = records.front().key;
  meta.max_key = records.back().key;
  meta.count = static_cast<uint32_t>(records.size());
  if (options.bloom_bits_per_key > 0) {
    // Incremental build: no temporary key vector per block.
    auto filter = std::make_shared<BloomFilter>(records.size(),
                                                options.bloom_bits_per_key);
    for (const Record& r : records) filter->AddKey(r.key);
    meta.filter = std::move(filter);
  }
  return meta;
}

Level::Level(const Options& options, BlockDevice* device, size_t level_index)
    : options_(options), device_(device), level_index_(level_index) {
  LSMSSD_CHECK(device != nullptr);
  LSMSSD_CHECK_GE(level_index, 1u);
}

const LeafMeta& Level::leaf(size_t i) const {
  LSMSSD_CHECK_LT(i, leaves_.size());
  return leaves_[i];
}

Key Level::min_key() const {
  LSMSSD_CHECK(!leaves_.empty());
  return leaves_.front().min_key;
}

Key Level::max_key() const {
  LSMSSD_CHECK(!leaves_.empty());
  return leaves_.back().max_key;
}

uint64_t Level::empty_slots() const {
  const uint64_t b = options_.records_per_block();
  return leaves_.size() * b - record_count_;
}

double Level::waste_factor() const {
  if (leaves_.empty()) return 0.0;
  const double slots =
      static_cast<double>(leaves_.size() * options_.records_per_block());
  return static_cast<double>(empty_slots()) / slots;
}

bool Level::MeetsLevelWaste() const {
  return LevelWasteOk(record_count_, leaves_.size(),
                      options_.records_per_block(), options_.epsilon);
}

bool Level::MeetsPairwiseWaste(size_t i) const {
  LSMSSD_CHECK_LT(i + 1, leaves_.size());
  return PairwiseWasteOk(leaves_[i].count, leaves_[i + 1].count,
                         options_.records_per_block());
}

StatusOr<LeafView> Level::ReadLeafView(size_t i) const {
  LSMSSD_CHECK_LT(i, leaves_.size());
  auto data_or = device_->ReadBlockShared(leaves_[i].block);
  if (!data_or.ok()) return data_or.status();
  LeafView leaf;
  leaf.data = std::move(data_or).value();
  auto view_or = RecordBlockView::Parse(options_, *leaf.data);
  if (!view_or.ok()) return view_or.status();
  leaf.view = view_or.value();
  if (leaf.view.size() != leaves_[i].count) {
    return Status::Corruption("leaf record count mismatch at level " +
                              std::to_string(level_index_));
  }
  return leaf;
}

StatusOr<std::vector<Record>> Level::ReadLeaf(size_t i) const {
  auto leaf_or = ReadLeafView(i);
  if (!leaf_or.ok()) return leaf_or.status();
  return leaf_or.value().view.Materialize();
}

size_t Level::LowerBoundLeaf(Key key) const {
  // First leaf whose max_key >= key.
  size_t lo = 0, hi = leaves_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (leaves_[mid].max_key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status Level::Lookup(Key key, Record* out) const {
  const size_t i = LowerBoundLeaf(key);
  if (i == leaves_.size() || leaves_[i].min_key > key) {
    return Status::NotFound("key not in level");
  }
  if (leaves_[i].filter != nullptr && !leaves_[i].filter->MayContain(key)) {
    ++bloom_negative_skips_;  // Definitely absent: skip the block read.
    device_->stats().RecordBloomSkip();
    return Status::NotFound("key not in leaf (bloom)");
  }
  auto leaf_or = ReadLeafView(i);
  if (!leaf_or.ok()) return leaf_or.status();
  // One in-place binary search over the encoded slots; only the matching
  // record (if any) is materialized.
  size_t slot;
  if (!leaf_or.value().view.Find(key, &slot)) {
    return Status::NotFound("key not in leaf");
  }
  *out = leaf_or.value().view.record_at(slot);
  return Status::OK();
}

std::optional<BlockId> Level::BlockForLookup(Key key) const {
  const size_t i = LowerBoundLeaf(key);
  if (i == leaves_.size() || leaves_[i].min_key > key) return std::nullopt;
  if (leaves_[i].filter != nullptr && !leaves_[i].filter->MayContain(key)) {
    return std::nullopt;
  }
  return leaves_[i].block;
}

std::pair<size_t, size_t> Level::OverlapRange(Key lo, Key hi) const {
  const size_t begin = LowerBoundLeaf(lo);
  size_t end = begin;
  while (end < leaves_.size() && leaves_[end].min_key <= hi) ++end;
  return {begin, end};
}

Status Level::SpliceLeaves(size_t begin, size_t end,
                           std::vector<LeafMeta> replacement,
                           const std::unordered_set<BlockId>& preserved) {
  LSMSSD_CHECK_LE(begin, end);
  LSMSSD_CHECK_LE(end, leaves_.size());

  for (size_t i = begin; i < end; ++i) {
    record_count_ -= leaves_[i].count;
    if (!preserved.contains(leaves_[i].block)) {
      LSMSSD_RETURN_IF_ERROR(device_->FreeBlock(leaves_[i].block));
    }
  }
  for (const LeafMeta& m : replacement) record_count_ += m.count;

  leaves_.erase(leaves_.begin() + static_cast<ptrdiff_t>(begin),
                leaves_.begin() + static_cast<ptrdiff_t>(end));
  leaves_.insert(leaves_.begin() + static_cast<ptrdiff_t>(begin),
                 replacement.begin(), replacement.end());
  return Status::OK();
}

Status Level::RemoveLeaves(size_t begin, size_t end,
                           const std::unordered_set<BlockId>& preserved) {
  return SpliceLeaves(begin, end, {}, preserved);
}

void Level::AppendLeaf(const LeafMeta& meta) {
  LSMSSD_CHECK_GT(meta.count, 0u);
  if (!leaves_.empty()) {
    LSMSSD_CHECK_LT(leaves_.back().max_key, meta.min_key);
  }
  leaves_.push_back(meta);
  record_count_ += meta.count;
}

StatusOr<uint64_t> Level::CoalescePair(size_t i) {
  LSMSSD_CHECK_LT(i + 1, leaves_.size());
  auto left_or = ReadLeaf(i);
  if (!left_or.ok()) return left_or.status();
  auto right_or = ReadLeaf(i + 1);
  if (!right_or.ok()) return right_or.status();

  std::vector<Record> combined = std::move(left_or).value();
  auto& right = right_or.value();
  combined.insert(combined.end(), right.begin(), right.end());
  LSMSSD_CHECK_LE(combined.size(), options_.records_per_block())
      << "coalesce of a non-violating pair";

  auto id_or = device_->WriteNewBlock(EncodeRecordBlock(options_, combined));
  if (!id_or.ok()) return id_or.status();

  const LeafMeta merged = MakeLeafMeta(options_, combined, id_or.value());
  LSMSSD_RETURN_IF_ERROR(SpliceLeaves(i, i + 2, {merged}, {}));
  return uint64_t{1};
}

StatusOr<uint64_t> Level::Compact() {
  const size_t b = options_.records_per_block();
  std::vector<LeafMeta> new_leaves;
  new_leaves.reserve(record_count_ / b + 1);
  uint64_t writes = 0;

  RecordBlockBuilder builder(options_);
  auto flush = [&]() -> Status {
    if (builder.empty()) return Status::OK();
    // Build the metadata from the buffered records in place, before
    // Finish() resets the builder — no O(B) record-vector copy.
    LeafMeta meta = MakeLeafMeta(options_, builder.records(), kInvalidBlockId);
    auto id_or = device_->WriteNewBlock(builder.Finish());
    if (!id_or.ok()) return id_or.status();
    meta.block = id_or.value();
    new_leaves.push_back(std::move(meta));
    ++writes;
    return Status::OK();
  };

  // Abort-atomically: a failure before the final splice (a corrupt input
  // leaf, a full device) frees every output block written so far, leaving
  // the level exactly as it was.
  auto abort = [&](Status st) -> Status {
    for (const LeafMeta& m : new_leaves) (void)device_->FreeBlock(m.block);
    return st;
  };

  for (size_t i = 0; i < leaves_.size(); ++i) {
    auto records_or = ReadLeaf(i);
    if (!records_or.ok()) return abort(records_or.status());
    for (const Record& r : records_or.value()) {
      if (builder.full()) {
        if (Status st = flush(); !st.ok()) return abort(std::move(st));
      }
      builder.Add(r);
    }
  }
  if (Status st = flush(); !st.ok()) return abort(std::move(st));

  LSMSSD_RETURN_IF_ERROR(
      SpliceLeaves(0, leaves_.size(), std::move(new_leaves), {}));
  ledger_.OnCompaction();
  return writes;
}

Status Level::CheckInvariants(bool deep) const {
  const uint64_t b = options_.records_per_block();
  uint64_t records = 0;
  for (size_t i = 0; i < leaves_.size(); ++i) {
    const LeafMeta& m = leaves_[i];
    if (m.count == 0) {
      return Status::Internal("empty leaf in level " +
                              std::to_string(level_index_));
    }
    if (m.count > b) return Status::Internal("overfull leaf");
    if (m.min_key > m.max_key) return Status::Internal("inverted leaf range");
    if (i > 0 && leaves_[i - 1].max_key >= m.min_key) {
      return Status::Internal("overlapping/unsorted leaves in level " +
                              std::to_string(level_index_));
    }
    if (i + 1 < leaves_.size() && !MeetsPairwiseWaste(i)) {
      return Status::Internal("pairwise waste violation at leaf " +
                              std::to_string(i) + " of level " +
                              std::to_string(level_index_));
    }
    records += m.count;
  }
  if (records != record_count_) {
    return Status::Internal("record count drift in level " +
                            std::to_string(level_index_));
  }
  if (!MeetsLevelWaste()) {
    return Status::Internal("level-wise waste violation in level " +
                            std::to_string(level_index_));
  }
  if (deep) {
    for (size_t i = 0; i < leaves_.size(); ++i) {
      auto leaf_or = ReadLeafView(i);  // Validates count against metadata.
      if (!leaf_or.ok()) return leaf_or.status();
      const RecordBlockView& view = leaf_or.value().view;
      if (view.min_key() != leaves_[i].min_key ||
          view.max_key() != leaves_[i].max_key) {
        return Status::Internal("leaf key-range metadata mismatch");
      }
    }
  }
  return Status::OK();
}

}  // namespace lsmssd
