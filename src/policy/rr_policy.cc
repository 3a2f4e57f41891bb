#include "src/policy/rr_policy.h"

#include <algorithm>
#include <vector>

#include "src/lsm/lsm_tree.h"
#include "src/util/logging.h"

namespace lsmssd {

MergeSelection RrPolicy::SelectMerge(const LsmTree& tree,
                                     size_t source_level) {
  const Options& options = tree.options();
  const size_t target_index = source_level + 1;
  LSMSSD_CHECK_LT(target_index, tree.num_levels());

  auto cursor_it = cursors_.find(source_level);
  const bool has_cursor = cursor_it != cursors_.end();

  if (source_level == 0) {
    const Memtable& mem = tree.l0_buffer();
    const size_t n = mem.size();
    LSMSSD_CHECK_GT(n, 0u);
    const size_t window = std::min<size_t>(
        options.PartialMergeBlocks(0) * options.records_per_block(), n);

    size_t begin = has_cursor ? mem.UpperBoundIndex(cursor_it->second) : 0;
    if (begin >= n) begin = 0;  // Wrap around.
    const size_t count = std::min(window, n - begin);
    // Remember the largest key of the selection for next time.
    const std::vector<Record> last = mem.Slice(begin + count - 1, 1);
    LSMSSD_CHECK_EQ(last.size(), 1u);
    cursors_[source_level] = last.front().key;
    return MergeSelection::Records(begin, count);
  }

  const Level& source = tree.level(source_level);
  const size_t n = source.num_leaves();
  LSMSSD_CHECK_GT(n, 0u);
  const size_t window =
      std::min<size_t>(options.PartialMergeBlocks(source_level), n);

  size_t begin = 0;
  if (has_cursor) {
    // First leaf whose smallest key is greater than the cursor.
    const Key cursor = cursor_it->second;
    const auto& leaves = source.leaves();
    auto it = std::upper_bound(
        leaves.begin(), leaves.end(), cursor,
        [](Key k, const LeafMeta& m) { return k < m.min_key; });
    begin = static_cast<size_t>(it - leaves.begin());
    if (begin >= n) begin = 0;  // No such block left: wrap to the start.
  }
  const size_t count = std::min(window, n - begin);
  cursors_[source_level] = source.leaf(begin + count - 1).max_key;
  return MergeSelection::Leaves(begin, count);
}

}  // namespace lsmssd
