#include "src/policy/partitioned_policy.h"

#include <limits>
#include <vector>

#include "src/lsm/lsm_tree.h"
#include "src/util/logging.h"

namespace lsmssd {

namespace {

/// Number of target leaves overlapping [lo, hi].
size_t OverlapCount(const Level& target, Key lo, Key hi) {
  const auto [begin, end] = target.OverlapRange(lo, hi);
  return end - begin;
}

}  // namespace

MergeSelection PartitionedChooseBestPolicy::SelectMerge(const LsmTree& tree,
                                                        size_t source_level) {
  const Options& options = tree.options();
  const size_t target_index = source_level + 1;
  LSMSSD_CHECK_LT(target_index, tree.num_levels());
  const Level& target = tree.level(target_index);

  if (source_level == 0) {
    const Memtable& mem = tree.l0_buffer();
    const size_t n = mem.size();
    LSMSSD_CHECK_GT(n, 0u);
    const size_t window = std::min<size_t>(
        options.PartialMergeBlocks(0) * options.records_per_block(), n);
    const std::vector<Key> keys = mem.SortedKeys();

    size_t best_begin = 0;
    size_t best_overlap = std::numeric_limits<size_t>::max();
    for (size_t begin = 0; begin < n; begin += window) {
      const size_t count = std::min(window, n - begin);
      const size_t overlap =
          OverlapCount(target, keys[begin], keys[begin + count - 1]);
      if (overlap < best_overlap) {
        best_overlap = overlap;
        best_begin = begin;
      }
    }
    return MergeSelection::Records(best_begin,
                                   std::min(window, n - best_begin));
  }

  const Level& source = tree.level(source_level);
  const size_t n = source.num_leaves();
  LSMSSD_CHECK_GT(n, 0u);
  const size_t window =
      std::min<size_t>(options.PartialMergeBlocks(source_level), n);

  size_t best_begin = 0;
  size_t best_overlap = std::numeric_limits<size_t>::max();
  // Candidates are the aligned partitions 0..w, w..2w, ... — the analogue
  // of HyperLevelDB's fixed SSTables.
  for (size_t begin = 0; begin < n; begin += window) {
    const size_t count = std::min(window, n - begin);
    const size_t overlap =
        OverlapCount(target, source.leaf(begin).min_key,
                     source.leaf(begin + count - 1).max_key);
    if (overlap < best_overlap) {
      best_overlap = overlap;
      best_begin = begin;
    }
  }
  return MergeSelection::Leaves(best_begin,
                                std::min(window, n - best_begin));
}

}  // namespace lsmssd
