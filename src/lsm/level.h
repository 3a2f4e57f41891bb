#ifndef LSMSSD_LSM_LEVEL_H_
#define LSMSSD_LSM_LEVEL_H_

#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

#include <memory>
#include <optional>

#include "src/format/options.h"
#include "src/format/record.h"
#include "src/format/record_block.h"
#include "src/format/record_block_view.h"
#include "src/lsm/waste.h"
#include "src/storage/block_device.h"
#include "src/util/bloom.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd {

/// Metadata of one B+tree data block (leaf) of a level. These entries are
/// the level's "internal nodes cached in main memory" (Section II-A): they
/// carry everything policies need — key ranges and record counts — so
/// range selection (ChooseBest) runs on metadata alone, with no data I/O.
struct LeafMeta {
  BlockId block = kInvalidBlockId;
  Key min_key = 0;
  Key max_key = 0;
  uint32_t count = 0;
  /// Optional per-leaf Bloom filter (Options::bloom_bits_per_key > 0);
  /// shared so preserved blocks keep their filter across levels.
  std::shared_ptr<const BloomFilter> filter;
};

/// Builds the metadata entry (key range, count, Bloom filter if enabled)
/// for a block holding `records` at id `block`.
LeafMeta MakeLeafMeta(const Options& options,
                      const std::vector<Record>& records, BlockId block);

/// One leaf's block image plus a validated zero-copy view over it (the
/// unit the read path hands around). The shared image stays valid even if
/// a later merge frees or evicts the block — readers hold a reference.
struct LeafView {
  std::shared_ptr<const BlockData> data;
  RecordBlockView view;
};

/// One on-SSD level L_i (i >= 1) under the paper's relaxed storage rules
/// (Section II-B): leaves live at arbitrary block addresses, need not be
/// full individually, and the level maintains the two waste constraints
/// (level-wise <= epsilon; adjacent pairs > B records). All record
/// mutation happens through merges/compactions — never in place.
///
/// The leaf directory is an ordered vector; bulk splices touch one
/// contiguous range per operation, mirroring the paper's bulk-delete /
/// bulk-insert of B+tree key ranges whose cost is negligible against data
/// block I/O.
class Level {
 public:
  /// `device` must outlive the level. `level_index` is 1-based (L0 is the
  /// memtable) and used for diagnostics.
  Level(const Options& options, BlockDevice* device, size_t level_index);

  Level(const Level&) = delete;
  Level& operator=(const Level&) = delete;

  size_t level_index() const { return level_index_; }
  size_t num_leaves() const { return leaves_.size(); }
  /// Size of the level in blocks (S(L_i) in the paper).
  size_t size_blocks() const { return leaves_.size(); }
  uint64_t record_count() const { return record_count_; }
  bool empty() const { return leaves_.empty(); }

  const LeafMeta& leaf(size_t i) const;
  const std::vector<LeafMeta>& leaves() const { return leaves_; }

  Key min_key() const;
  Key max_key() const;

  /// Total empty record slots across all leaves.
  uint64_t empty_slots() const;
  /// Fraction of empty slots (0 when the level is empty).
  double waste_factor() const;
  /// Level-wise waste constraint (exempt below two leaves).
  bool MeetsLevelWaste() const;
  /// Pairwise constraint for leaves (i, i+1).
  bool MeetsPairwiseWaste(size_t i) const;

  /// Reads leaf `i` without decoding: shared block image + in-place view.
  /// The preferred read primitive — lookups, scans, and merge streams all
  /// run on it; only slots actually consumed are materialized as Records.
  StatusOr<LeafView> ReadLeafView(size_t i) const;

  /// Reads and decodes leaf `i`'s records (materializing convenience for
  /// compaction and tests; implemented over ReadLeafView).
  StatusOr<std::vector<Record>> ReadLeaf(size_t i) const;

  /// Point lookup. Returns the level's record for `key` via `*out`;
  /// NotFound if the level has no record for the key.
  Status Lookup(Key key, Record* out) const;
  /// The block Lookup(key) would read, or nullopt when it reads none (no
  /// leaf covers `key`, or the leaf's Bloom filter rules it out). Counts
  /// nothing.
  std::optional<BlockId> BlockForLookup(Key key) const;

  /// Half-open leaf index range [first, second) of leaves whose key ranges
  /// intersect [lo, hi].
  std::pair<size_t, size_t> OverlapRange(Key lo, Key hi) const;

  /// Replaces leaves [begin, end) with `replacement`. Old blocks are freed
  /// unless their id appears in `preserved` (block-preserving merges hand
  /// blocks across levels without rewriting them). Replacement leaves must
  /// be internally sorted and fit strictly between the neighbours.
  Status SpliceLeaves(size_t begin, size_t end,
                      std::vector<LeafMeta> replacement,
                      const std::unordered_set<BlockId>& preserved);

  /// Removes leaves [begin, end); frees their blocks except `preserved`.
  Status RemoveLeaves(size_t begin, size_t end,
                      const std::unordered_set<BlockId>& preserved);

  /// Appends one leaf (bulk load); key range must follow the current tail.
  void AppendLeaf(const LeafMeta& meta);

  /// Rewrites adjacent leaves (i, i+1) as one block (pairwise-waste repair,
  /// Cases 1 and 3 in Section II-B). Their combined count must fit in one
  /// block — guaranteed whenever the pairwise constraint is violated.
  /// Returns the number of blocks written (always 1).
  StatusOr<uint64_t> CoalescePair(size_t i);

  /// One-pass compaction: rewrites the level into fully packed blocks and
  /// resets the waste ledger. Returns the number of blocks written.
  StatusOr<uint64_t> Compact();

  WasteLedger& ledger() { return ledger_; }
  const WasteLedger& ledger() const { return ledger_; }

  /// Lookups answered "absent" by a leaf's Bloom filter without reading
  /// the block (0 when filters are disabled).
  uint64_t bloom_negative_skips() const { return bloom_negative_skips_; }

  /// Structural invariant check. `deep` additionally reads every block and
  /// verifies contents against metadata (tests only; O(level size) I/O).
  Status CheckInvariants(bool deep) const;

  const Options& options() const { return options_; }
  BlockDevice* device() const { return device_; }

 private:
  /// Index of the first leaf with max_key >= key.
  size_t LowerBoundLeaf(Key key) const;

  const Options& options_;
  BlockDevice* device_;
  size_t level_index_;
  std::vector<LeafMeta> leaves_;
  uint64_t record_count_ = 0;
  WasteLedger ledger_;
  // Mutable: Lookup is logically const; the counter is observability only.
  mutable uint64_t bloom_negative_skips_ = 0;
};

}  // namespace lsmssd

#endif  // LSMSSD_LSM_LEVEL_H_
