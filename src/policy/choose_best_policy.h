#ifndef LSMSSD_POLICY_CHOOSE_BEST_POLICY_H_
#define LSMSSD_POLICY_CHOOSE_BEST_POLICY_H_

#include "src/lsm/level.h"
#include "src/lsm/memtable.h"
#include "src/policy/merge_policy.h"

namespace lsmssd {

/// Selection primitives shared by ChooseBest and Mixed. Each scans cached
/// metadata only (source leaf directory or memtable keys vs. target leaf
/// directory) with a two-pointer sweep — the single simultaneous pass the
/// paper describes in Section III-C.

/// Picks the window of `window_blocks` consecutive source leaves whose key
/// span overlaps the fewest target leaves. If the source has at most
/// `window_blocks` leaves, selects all of them. Ties break to the leftmost
/// window.
MergeSelection SelectChooseBestFromLevel(const Level& source,
                                         const Level& target,
                                         size_t window_blocks);

/// Same, but the source is L0: windows are `window_records` consecutive
/// records of the L0 buffer in key order.
MergeSelection SelectChooseBestFromL0(const Memtable& source,
                                      const Level& target,
                                      size_t window_records);

/// ChooseBest (Section III-C): a partial policy that merges the
/// minimum-overlap window of delta * K_source blocks. Every merge into L_i
/// costs at most delta * (1/Gamma + 1) * K_i blocks (Theorem 2) — unlike
/// Full and RR, no single merge can rewrite the whole next level.
class ChooseBestPolicy : public MergePolicy {
 public:
  std::string_view name() const override { return "ChooseBest"; }
  MergeSelection SelectMerge(const LsmTree& tree,
                             size_t source_level) override;
};

}  // namespace lsmssd

#endif  // LSMSSD_POLICY_CHOOSE_BEST_POLICY_H_
