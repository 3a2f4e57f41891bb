#include "src/policy/choose_best_policy.h"

#include <limits>
#include <vector>

#include "src/lsm/lsm_tree.h"
#include "src/util/logging.h"

namespace lsmssd {

namespace {

/// Two-pointer minimum-overlap sweep over candidate windows. `n` candidate
/// windows; window j spans keys [lo_key(j), hi_key(j)], both nondecreasing
/// in j. Returns the index of the first window overlapping the fewest
/// target leaves.
template <typename LoKeyFn, typename HiKeyFn>
size_t MinOverlapWindow(size_t n, const Level& target, LoKeyFn lo_key,
                        HiKeyFn hi_key) {
  const auto& leaves = target.leaves();
  size_t lo = 0, hi = 0;  // Target leaf cursor pair for window j.
  size_t best_j = 0;
  size_t best_overlap = std::numeric_limits<size_t>::max();
  for (size_t j = 0; j < n; ++j) {
    const Key klo = lo_key(j);
    const Key khi = hi_key(j);
    while (lo < leaves.size() && leaves[lo].max_key < klo) ++lo;
    if (hi < lo) hi = lo;
    while (hi < leaves.size() && leaves[hi].min_key <= khi) ++hi;
    const size_t overlap = hi - lo;
    if (overlap < best_overlap) {
      best_overlap = overlap;
      best_j = j;
      if (overlap == 0) break;  // Cannot do better.
    }
  }
  return best_j;
}

}  // namespace

MergeSelection SelectChooseBestFromLevel(const Level& source,
                                         const Level& target,
                                         size_t window_blocks) {
  LSMSSD_CHECK_GT(window_blocks, 0u);
  const size_t n = source.num_leaves();
  LSMSSD_CHECK_GT(n, 0u);
  if (window_blocks >= n) return MergeSelection::Leaves(0, n);

  const size_t candidates = n - window_blocks + 1;
  const size_t best = MinOverlapWindow(
      candidates, target,
      [&](size_t j) { return source.leaf(j).min_key; },
      [&](size_t j) { return source.leaf(j + window_blocks - 1).max_key; });
  return MergeSelection::Leaves(best, window_blocks);
}

MergeSelection SelectChooseBestFromL0(const Memtable& source,
                                      const Level& target,
                                      size_t window_records) {
  LSMSSD_CHECK_GT(window_records, 0u);
  const std::vector<Key> keys = source.SortedKeys();
  const size_t n = keys.size();
  LSMSSD_CHECK_GT(n, 0u);
  if (window_records >= n) return MergeSelection::Records(0, n);

  const size_t candidates = n - window_records + 1;
  const size_t best = MinOverlapWindow(
      candidates, target, [&](size_t j) { return keys[j]; },
      [&](size_t j) { return keys[j + window_records - 1]; });
  return MergeSelection::Records(best, window_records);
}

MergeSelection ChooseBestPolicy::SelectMerge(const LsmTree& tree,
                                             size_t source_level) {
  const Options& options = tree.options();
  const size_t target_index = source_level + 1;
  LSMSSD_CHECK_LT(target_index, tree.num_levels());
  const Level& target = tree.level(target_index);

  if (source_level == 0) {
    const size_t window = options.PartialMergeBlocks(0) *
                          options.records_per_block();
    return SelectChooseBestFromL0(tree.l0_buffer(), target, window);
  }
  return SelectChooseBestFromLevel(tree.level(source_level), target,
                                   options.PartialMergeBlocks(source_level));
}

}  // namespace lsmssd
