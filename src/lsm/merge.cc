#include "src/lsm/merge.h"

#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>

#include "src/format/record_block.h"
#include "src/util/logging.h"

namespace lsmssd {

namespace {

/// Sorted record source consumed by the merge loop. Implementations expose
/// input-block boundaries so the block-preserving greedy can reuse whole
/// blocks without reading them.
class InputStream {
 public:
  virtual ~InputStream() = default;
  virtual bool HasNext() const = 0;
  /// Key of the next record. Requires HasNext(). Must not cost I/O when the
  /// next record starts a block (metadata suffices).
  virtual Key NextKey() const = 0;
  /// Consumes and returns the next record (reads the containing block on
  /// first touch).
  virtual StatusOr<Record> NextRecord() = 0;
  /// True iff the next record is the first of an (unread) input block.
  virtual bool AtBlockStart() const = 0;
  /// Metadata of the block holding the next record; only valid when
  /// AtBlockStart().
  virtual const LeafMeta* BlockMeta() const = 0;
  /// Skips the current block wholesale without reading it. Requires
  /// AtBlockStart().
  virtual void SkipBlock() = 0;
};

/// Streams the leaves [begin, end) of a level. `on_leaf_open` fires when a
/// leaf is read for element-wise processing (used to subtract Y empties in
/// the slack accounting); preserved (skipped) leaves never fire it.
///
/// Scans through the zero-copy leaf view: keys are compared in place and a
/// Record is materialized only when the merge actually consumes the slot
/// (consolidated or emitted) — preserved and skipped slots never allocate.
class LevelStream : public InputStream {
 public:
  LevelStream(const Level* level, size_t begin, size_t end,
              std::function<void(const LeafMeta&)> on_leaf_open)
      : level_(level),
        cur_(begin),
        end_(end),
        on_leaf_open_(std::move(on_leaf_open)) {}

  bool HasNext() const override { return cur_ < end_; }

  Key NextKey() const override {
    LSMSSD_DCHECK(HasNext());
    if (!loaded_) return level_->leaf(cur_).min_key;
    return leaf_.view.key_at(pos_);
  }

  StatusOr<Record> NextRecord() override {
    LSMSSD_CHECK(HasNext());
    if (!loaded_) {
      auto leaf_or = level_->ReadLeafView(cur_);
      if (!leaf_or.ok()) return leaf_or.status();
      leaf_ = std::move(leaf_or).value();
      pos_ = 0;
      loaded_ = true;
      if (on_leaf_open_) on_leaf_open_(level_->leaf(cur_));
    }
    Record r = leaf_.view.record_at(pos_++);
    if (pos_ >= leaf_.view.size()) {
      ++cur_;
      pos_ = 0;
      loaded_ = false;
      leaf_ = LeafView{};
    }
    return r;
  }

  bool AtBlockStart() const override { return HasNext() && !loaded_; }

  const LeafMeta* BlockMeta() const override {
    LSMSSD_DCHECK(AtBlockStart());
    return &level_->leaf(cur_);
  }

  void SkipBlock() override {
    LSMSSD_CHECK(AtBlockStart());
    ++cur_;
  }

 private:
  const Level* level_;
  size_t cur_;
  size_t end_;
  std::function<void(const LeafMeta&)> on_leaf_open_;
  bool loaded_ = false;
  size_t pos_ = 0;
  LeafView leaf_;
};

/// Streams records drained from L0. L0 has no on-SSD blocks, so there is
/// nothing to preserve.
class VectorStream : public InputStream {
 public:
  explicit VectorStream(std::vector<Record> records)
      : records_(std::move(records)) {}

  bool HasNext() const override { return pos_ < records_.size(); }
  Key NextKey() const override {
    LSMSSD_DCHECK(HasNext());
    return records_[pos_].key;
  }
  StatusOr<Record> NextRecord() override {
    LSMSSD_CHECK(HasNext());
    return std::move(records_[pos_++]);
  }
  bool AtBlockStart() const override { return false; }
  const LeafMeta* BlockMeta() const override {
    LSMSSD_CHECK(false) << "VectorStream has no blocks";
    return nullptr;
  }
  void SkipBlock() override { LSMSSD_CHECK(false); }

 private:
  std::vector<Record> records_;
  size_t pos_ = 0;
};

}  // namespace

MergeExecutor::MergeExecutor(const Options& options, BlockDevice* device,
                             Level* target, bool target_is_bottom,
                             bool preserve_blocks)
    : options_(options),
      device_(device),
      target_(target),
      target_is_bottom_(target_is_bottom),
      preserve_blocks_(preserve_blocks) {
  LSMSSD_CHECK(device != nullptr);
  LSMSSD_CHECK(target != nullptr);
}

StatusOr<MergeResult> MergeExecutor::Merge(MergeSource source) {
  MergeScratch scratch;
  auto result_or = MergeBody(std::move(source), &scratch);
  if (result_or.ok()) return result_or;

  // Abort path. Before the commit point (the target splice) the tree is
  // untouched: give back every output block this merge wrote, so the
  // device's live-block count returns to its pre-merge value. Frees are
  // best-effort — on a crash-injected device the process is dead anyway.
  if (!scratch.installed) {
    for (BlockId id : scratch.owned) (void)device_->FreeBlock(id);
  }
  // Close the slack-ledger bracket with the level's actual empty-slot
  // delta (zero when nothing was installed); an open bracket would leave
  // inflated slack behind and let later merges overshoot the waste bound.
  if (scratch.ledger_open) {
    target_->ledger().OnMergeEnd(
        static_cast<int64_t>(target_->empty_slots()) -
        static_cast<int64_t>(scratch.target_empty_before));
  }
  return result_or;
}

StatusOr<MergeResult> MergeExecutor::MergeBody(MergeSource source,
                                               MergeScratch* scratch) {
  MergeResult result;
  const uint64_t b_cap = options_.records_per_block();
  auto empty_of = [b_cap](uint32_t count) {
    return static_cast<int64_t>(b_cap) - static_cast<int64_t>(count);
  };

  // ---- Assemble the X side. ----------------------------------------
  Key kmin = 0, kmax = 0;
  double x_capacity_records = 0.0;
  std::unique_ptr<InputStream> x_stream;
  Level* src_level = source.level;
  const size_t x_begin = source.leaf_begin;
  const size_t x_end = source.leaf_end;

  if (source.from_l0()) {
    if (source.l0_records.empty()) {
      return Status::InvalidArgument("merge with empty L0 source");
    }
    kmin = source.l0_records.front().key;
    kmax = source.l0_records.back().key;
    result.source_records = source.l0_records.size();
    x_capacity_records = static_cast<double>(result.source_records);
    x_stream = std::make_unique<VectorStream>(std::move(source.l0_records));
  } else {
    LSMSSD_CHECK(src_level != target_);
    LSMSSD_CHECK_LT(x_begin, x_end);
    LSMSSD_CHECK_LE(x_end, src_level->num_leaves());
    kmin = src_level->leaf(x_begin).min_key;
    kmax = src_level->leaf(x_end - 1).max_key;
    for (size_t i = x_begin; i < x_end; ++i) {
      result.source_records += src_level->leaf(i).count;
    }
    x_capacity_records = static_cast<double>((x_end - x_begin) * b_cap);
    x_stream = std::make_unique<LevelStream>(src_level, x_begin, x_end,
                                             /*on_leaf_open=*/nullptr);
  }

  // ---- Locate the overlapping Y range in the target. ---------------
  const auto [y_begin, y_end] = target_->OverlapRange(kmin, kmax);
  result.overlapping_target_blocks = y_end - y_begin;

  const uint64_t target_empty_before = target_->empty_slots();
  target_->ledger().OnMergeStart(options_.epsilon * x_capacity_records);
  scratch->ledger_open = true;
  scratch->target_empty_before = target_empty_before;

  // Running net empty-slot delta of the current merge (the paper's
  // in-merge w bookkeeping): empties of emitted Z blocks minus empties of
  // Y blocks already processed.
  int64_t w_run = 0;
  LevelStream y_stream(target_, y_begin, y_end,
                       [&](const LeafMeta& m) { w_run -= empty_of(m.count); });

  RecordBlockBuilder builder(options_);
  std::vector<LeafMeta> z;
  std::unordered_set<BlockId> preserved;

  // Previous output block for pairwise checks: initially the target block
  // preceding Y (if any), thereafter the tail of Z.
  bool has_prev = y_begin > 0;
  uint32_t prev_count = has_prev ? target_->leaf(y_begin - 1).count : 0;
  bool prev_in_z = false;

  // Output batching (Options::io_batch_blocks): completed output blocks
  // are buffered and written with one vectored WriteBlocks call, letting
  // FileBlockDevice coalesce contiguous slots into a single pwritev and
  // amortize the checksum-sidecar update. Buffered blocks sit in `z` with
  // a placeholder id until flush_pending() assigns real ids. WriteBlocks
  // allocates in the exact order a WriteNewBlock loop would, and no other
  // allocation or free happens while blocks are pending (the tail-repair
  // path drains the buffer first), so block ids, write counts, and the
  // paper's metrics are identical to the unbatched path.
  const size_t batch = options_.io_batch_blocks;
  std::vector<BlockData> pending_data;
  std::vector<size_t> pending_z;  // Indices into z awaiting real ids.

  auto flush_pending = [&]() -> Status {
    if (pending_data.empty()) return Status::OK();
    std::vector<BlockId> ids;
    ids.reserve(pending_data.size());
    LSMSSD_RETURN_IF_ERROR(device_->WriteBlocks(pending_data, &ids));
    for (size_t i = 0; i < ids.size(); ++i) {
      z[pending_z[i]].block = ids[i];
      scratch->owned.push_back(ids[i]);
    }
    pending_data.clear();
    pending_z.clear();
    return Status::OK();
  };

  auto flush = [&]() -> Status {
    if (builder.empty()) return Status::OK();
    // Metadata (and Bloom filter) are built from the buffered records in
    // place, before Finish() resets the builder — no O(B) vector copy.
    LeafMeta meta = MakeLeafMeta(options_, builder.records(), kInvalidBlockId);
    if (batch > 1) {
      pending_z.push_back(z.size());
      pending_data.push_back(builder.Finish());
      z.push_back(meta);
      ++result.output_blocks_written;
      w_run += empty_of(meta.count);
      has_prev = true;
      prev_count = meta.count;
      prev_in_z = true;
      if (pending_data.size() >= batch) return flush_pending();
      return Status::OK();
    }
    auto id_or = device_->WriteNewBlock(builder.Finish());
    if (!id_or.ok()) return id_or.status();
    meta.block = id_or.value();
    scratch->owned.push_back(meta.block);
    z.push_back(meta);
    ++result.output_blocks_written;
    w_run += empty_of(meta.count);
    has_prev = true;
    prev_count = meta.count;
    prev_in_z = true;
    return Status::OK();
  };

  auto emit_record = [&](const Record& r) -> Status {
    // A tombstone arriving at the bottom level has nothing left to cancel:
    // drop it instead of persisting dead weight.
    if (target_is_bottom_ && r.is_tombstone()) return Status::OK();
    if (builder.full()) LSMSSD_RETURN_IF_ERROR(flush());
    builder.Add(r);
    return Status::OK();
  };

  // The paper's greedy waste check (Section II-B): preserve block b only
  // if the pairwise constraint holds around the flushed buffer, and the
  // level's cumulative empty-slot increase stays within the slack budget.
  auto try_preserve = [&](InputStream* s, bool from_y) -> StatusOr<bool> {
    const LeafMeta* b = s->BlockMeta();
    if (builder.empty()) {
      if (has_prev && !PairwiseWasteOk(prev_count, b->count, b_cap)) {
        return false;
      }
    } else {
      if (has_prev && !PairwiseWasteOk(prev_count, builder.count(), b_cap)) {
        return false;
      }
      if (!PairwiseWasteOk(builder.count(), b->count, b_cap)) return false;
    }
    int64_t w_prospective = w_run;
    if (!builder.empty()) {
      w_prospective += empty_of(static_cast<uint32_t>(builder.count()));
    }
    // Preserving a Y block is waste-neutral for the level (+e emitted,
    // -e consumed); an X block imports its empties.
    if (!from_y) w_prospective += empty_of(b->count);
    if (!target_->ledger().WithinBudget(
            target_->ledger().net_increase() + w_prospective, b_cap)) {
      return false;
    }

    LSMSSD_RETURN_IF_ERROR(flush());
    z.push_back(*b);
    preserved.insert(b->block);
    ++result.blocks_preserved;
    if (!from_y) w_run += empty_of(b->count);
    has_prev = true;
    prev_count = b->count;
    prev_in_z = true;
    s->SkipBlock();
    return true;
  };

  // ---- One-pass co-scan with consolidation and preservation. --------
  while (x_stream->HasNext() || y_stream.HasNext()) {
    if (x_stream->HasNext() && y_stream.HasNext() &&
        x_stream->NextKey() == y_stream.NextKey()) {
      auto upper_or = x_stream->NextRecord();
      if (!upper_or.ok()) return upper_or.status();
      auto lower_or = y_stream.NextRecord();
      if (!lower_or.ok()) return lower_or.status();
      Record out;
      const bool annihilate =
          target_is_bottom_ || options_.annihilate_delete_put;
      if (ConsolidateRecords(upper_or.value(), lower_or.value(), annihilate,
                             &out)) {
        LSMSSD_RETURN_IF_ERROR(emit_record(out));
      }
      continue;
    }

    const bool take_x =
        !y_stream.HasNext() ||
        (x_stream->HasNext() && x_stream->NextKey() < y_stream.NextKey());
    InputStream* s =
        take_x ? x_stream.get() : static_cast<InputStream*>(&y_stream);
    InputStream* other =
        take_x ? static_cast<InputStream*>(&y_stream) : x_stream.get();

    if (preserve_blocks_ && s->AtBlockStart()) {
      const LeafMeta* b = s->BlockMeta();
      // The whole block can be squeezed in before the other stream's next
      // record (strict: an equal key would require consolidation).
      const bool fits = !other->HasNext() || other->NextKey() > b->max_key;
      if (fits) {
        auto done_or = try_preserve(s, /*from_y=*/!take_x);
        if (!done_or.ok()) return done_or.status();
        if (done_or.value()) continue;
      }
    }

    auto record_or = s->NextRecord();
    if (!record_or.ok()) return record_or.status();
    LSMSSD_RETURN_IF_ERROR(emit_record(record_or.value()));
  }

  // ---- Final flush; repair a pairwise violation inside Z in place. ---
  if (!builder.empty()) {
    if (prev_in_z &&
        !PairwiseWasteOk(prev_count, builder.count(), b_cap)) {
      // The tail block must be on the device before it is read back and
      // freed (its free must also not reorder around buffered
      // allocations, or ids would diverge from the unbatched path).
      LSMSSD_RETURN_IF_ERROR(flush_pending());
      // The last Z block and the final partial buffer jointly fit in one
      // block (that is what the violation means); rewrite them as one.
      LeafMeta tail = z.back();
      z.pop_back();
      BlockData data;
      LSMSSD_RETURN_IF_ERROR(device_->ReadBlock(tail.block, &data));
      auto tail_records_or = DecodeRecordBlock(options_, data);
      if (!tail_records_or.ok()) return tail_records_or.status();
      std::vector<Record> combined = std::move(tail_records_or).value();
      for (const Record& r : builder.records()) combined.push_back(r);
      builder.Reset();
      LSMSSD_CHECK_LE(combined.size(), b_cap);

      if (preserved.erase(tail.block) > 0) {
        // Un-preserved: the block still belongs to its original level and
        // will be freed by the splice/removal below.
        --result.blocks_preserved;
      } else {
        // We wrote it during this merge and own it.
        LSMSSD_RETURN_IF_ERROR(device_->FreeBlock(tail.block));
        std::erase(scratch->owned, tail.block);
      }
      w_run -= empty_of(tail.count);

      auto id_or =
          device_->WriteNewBlock(EncodeRecordBlock(options_, combined));
      if (!id_or.ok()) return id_or.status();
      scratch->owned.push_back(id_or.value());
      const LeafMeta meta = MakeLeafMeta(options_, combined, id_or.value());
      z.push_back(meta);
      ++result.output_blocks_written;
      w_run += empty_of(meta.count);
    } else {
      LSMSSD_RETURN_IF_ERROR(flush());
    }
  }
  // Every Z block needs a real id before ownership passes to the level.
  LSMSSD_RETURN_IF_ERROR(flush_pending());

  // ---- Install Z; restore constraints (Cases 1-4 of Section II-B). ---
  // The splice is the commit point: ownership of the Z blocks passes to
  // the target level, and the old Y blocks are freed. From here on a
  // failure must not free output blocks (the tree references them).
  scratch->installed = true;
  scratch->owned.clear();
  const size_t z_count = z.size();
  LSMSSD_RETURN_IF_ERROR(
      target_->SpliceLeaves(y_begin, y_end, std::move(z), preserved));

  // Case 3: pairwise checks where Z meets the untouched neighbours.
  {
    std::vector<size_t> seams;
    const size_t n = target_->num_leaves();
    if (z_count > 0) {
      if (y_begin + z_count < n) seams.push_back(y_begin + z_count - 1);
      if (y_begin > 0) seams.push_back(y_begin - 1);
    } else if (y_begin > 0 && y_begin < n) {
      seams.push_back(y_begin - 1);  // Removal made two old blocks adjacent.
    }
    for (size_t idx : seams) {  // Descending order keeps indices valid.
      if (!target_->MeetsPairwiseWaste(idx)) {
        auto writes_or = target_->CoalescePair(idx);
        if (!writes_or.ok()) return writes_or.status();
        result.target_maintenance_writes += writes_or.value();
        ++result.target_pairwise_repairs;
      }
    }
  }

  // ---- Remove X from the source level (Cases 1-2). -------------------
  if (src_level != nullptr) {
    LSMSSD_RETURN_IF_ERROR(
        src_level->RemoveLeaves(x_begin, x_end, preserved));
    const size_t sn = src_level->num_leaves();
    if (x_begin > 0 && x_begin < sn &&
        !src_level->MeetsPairwiseWaste(x_begin - 1)) {
      auto writes_or = src_level->CoalescePair(x_begin - 1);
      if (!writes_or.ok()) return writes_or.status();
      result.source_maintenance_writes += writes_or.value();
      ++result.source_pairwise_repairs;
    }
    if (!src_level->MeetsLevelWaste()) {
      auto writes_or = src_level->Compact();
      if (!writes_or.ok()) return writes_or.status();
      result.source_maintenance_writes += writes_or.value();
      result.source_compacted = true;
    }
  }

  // ---- Settle the slack ledger; Case 4 compaction if needed. ---------
  const uint64_t target_empty_after = target_->empty_slots();
  target_->ledger().OnMergeEnd(static_cast<int64_t>(target_empty_after) -
                               static_cast<int64_t>(target_empty_before));
  scratch->ledger_open = false;
  if (!target_->MeetsLevelWaste()) {
    auto writes_or = target_->Compact();  // Resets the ledger.
    if (!writes_or.ok()) return writes_or.status();
    result.target_maintenance_writes += writes_or.value();
    result.target_compacted = true;
  }

  return result;
}

}  // namespace lsmssd
