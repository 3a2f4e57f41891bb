#ifndef LSMSSD_LSM_MERGE_H_
#define LSMSSD_LSM_MERGE_H_

#include <cstdint>
#include <vector>

#include "src/format/options.h"
#include "src/format/record.h"
#include "src/lsm/level.h"
#include "src/storage/block_device.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd {

/// Input side of a merge: either a batch of records drained from the
/// memory-resident L0, or a contiguous range of leaves of an on-SSD level.
struct MergeSource {
  /// Records from L0, in key order (used when `level == nullptr`). The
  /// caller extracts them from the memtable before merging.
  std::vector<Record> l0_records;

  /// Source level (>= 1) and the half-open leaf range [leaf_begin,
  /// leaf_end) selected by the merge policy. The merge removes these leaves
  /// from the source when it completes.
  Level* level = nullptr;
  size_t leaf_begin = 0;
  size_t leaf_end = 0;

  bool from_l0() const { return level == nullptr; }

  static MergeSource FromL0(std::vector<Record> records) {
    MergeSource s;
    s.l0_records = std::move(records);
    return s;
  }
  static MergeSource FromLevel(Level* level, size_t begin, size_t end) {
    MergeSource s;
    s.level = level;
    s.leaf_begin = begin;
    s.leaf_end = end;
    return s;
  }
};

/// Cost breakdown of one merge, in data-block writes.
struct MergeResult {
  /// New Z blocks written by the merge itself (including the in-merge
  /// coalesce of the final partial output block, when needed).
  uint64_t output_blocks_written = 0;
  /// Input blocks reused unmodified in the output (Section II-B
  /// block-preserving merge); each preserved block saves one write and one
  /// read.
  uint64_t blocks_preserved = 0;
  /// Records consumed from the source (before consolidation).
  uint64_t source_records = 0;
  /// Blocks written repairing/compacting the destination level afterwards
  /// (Cases 3-4).
  uint64_t target_maintenance_writes = 0;
  /// Blocks written repairing/compacting the source level after the merged
  /// range was removed (Cases 1-2). Zero for L0 sources.
  uint64_t source_maintenance_writes = 0;
  uint64_t target_pairwise_repairs = 0;
  uint64_t source_pairwise_repairs = 0;
  bool target_compacted = false;
  bool source_compacted = false;
  /// Number of overlapping destination leaves the merge rewrote or
  /// preserved (|Y|); useful for verifying the ChooseBest bound (Thm 2).
  uint64_t overlapping_target_blocks = 0;
};

/// Executes the paper's generalized merge (Section II-B): takes a list of
/// source blocks/records X, finds the overlapping leaves Y of the target,
/// streams both in key order consolidating duplicate keys, and emits Z —
/// reusing input blocks wherever the greedy block-preserving check allows.
/// Afterwards it restores both waste constraints (adjacent-pair coalesce,
/// one-pass compaction) on the source and target levels.
class MergeExecutor {
 public:
  /// `target` is the level merged into; `target_is_bottom` enables
  /// tombstone dropping (a delete reaching the lowest level has nothing
  /// left to cancel). `preserve_blocks` toggles the block-preserving
  /// optimization (off reproduces the paper's "-P" policy variants).
  MergeExecutor(const Options& options, BlockDevice* device, Level* target,
                bool target_is_bottom, bool preserve_blocks);

  /// Runs the merge. On success the source range has been removed from its
  /// level (L0 sources are already drained by the caller) and the target
  /// satisfies both waste constraints.
  ///
  /// Failure atomicity: the merge's commit point is the target splice. A
  /// failure *before* it (corrupt input block, ResourceExhausted device)
  /// frees every output block this merge wrote, settles the slack ledger,
  /// and leaves both levels untouched — the pre-merge tree stays fully
  /// readable and the device's live-block count returns to its pre-merge
  /// value. A failure *after* it (during constraint-restoring
  /// maintenance) leaves a valid but possibly waste-violating tree; the
  /// error still surfaces to the caller.
  StatusOr<MergeResult> Merge(MergeSource source);

 private:
  /// Cross-cutting bookkeeping for failure atomicity.
  struct MergeScratch {
    /// Output blocks written and currently owned by this merge (removed
    /// again when the merge itself frees one, or when the splice hands
    /// ownership to the target level).
    std::vector<BlockId> owned;
    bool ledger_open = false;  ///< OnMergeStart ran, OnMergeEnd has not.
    bool installed = false;    ///< The target splice (commit point) ran.
    uint64_t target_empty_before = 0;
  };

  StatusOr<MergeResult> MergeBody(MergeSource source, MergeScratch* scratch);

  const Options& options_;
  BlockDevice* device_;
  Level* target_;
  bool target_is_bottom_;
  bool preserve_blocks_;
};

}  // namespace lsmssd

#endif  // LSMSSD_LSM_MERGE_H_
