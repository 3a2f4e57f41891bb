#include "src/policy/mixed_policy.h"

#include <sstream>

#include "src/lsm/lsm_tree.h"
#include "src/policy/choose_best_policy.h"
#include "src/util/logging.h"

namespace lsmssd {

std::string MixedParams::ToString() const {
  std::ostringstream out;
  out << "tau=[";
  for (size_t i = 2; i < tau.size(); ++i) {
    out << (i > 2 ? "," : "") << tau[i];
  }
  out << "] beta=" << (beta ? "true" : "false");
  return out.str();
}

MixedPolicy::MixedPolicy(MixedParams params) : params_(std::move(params)) {}

MixedPolicy MixedPolicy::TestMixed() {
  MixedParams params;
  params.beta = true;
  return MixedPolicy(std::move(params));
}

MergeSelection MixedPolicy::SelectMerge(const LsmTree& tree,
                                        size_t source_level) {
  const Options& options = tree.options();
  const size_t target_index = source_level + 1;
  LSMSSD_CHECK_LT(target_index, tree.num_levels());
  const Level& target = tree.level(target_index);

  auto choose_best = [&]() -> MergeSelection {
    if (source_level == 0) {
      const size_t window =
          options.PartialMergeBlocks(0) * options.records_per_block();
      return SelectChooseBestFromL0(tree.l0_buffer(), target, window);
    }
    return SelectChooseBestFromLevel(
        tree.level(source_level), target,
        options.PartialMergeBlocks(source_level));
  };

  // Rule 1: merges out of the memory-resident L0 are always partial.
  if (source_level == 0 && !tree.IsBottomLevel(target_index)) {
    return choose_best();
  }

  // Rule 3: the bottom level follows the Boolean decision beta.
  if (tree.IsBottomLevel(target_index)) {
    // When L1 is the bottom (2-level tree), beta also governs merges from
    // L0 — there are no internal levels to protect.
    return params_.beta ? MergeSelection::Full() : choose_best();
  }

  // Rule 2: full merge into an internal level while it is small.
  const double threshold =
      params_.TauFor(target_index) *
      static_cast<double>(tree.LevelCapacityBlocks(target_index));
  if (static_cast<double>(target.size_blocks()) < threshold) {
    return MergeSelection::Full();
  }
  return choose_best();
}

}  // namespace lsmssd
