#ifndef LSMSSD_POLICY_MERGE_POLICY_H_
#define LSMSSD_POLICY_MERGE_POLICY_H_

#include <cstddef>
#include <string_view>

namespace lsmssd {

class LsmTree;

/// What a merge policy decided to merge out of an overflowing level.
/// Either `full` is set (merge the whole level), or exactly one of the two
/// partial descriptions applies: a leaf range for on-SSD source levels, or
/// a sorted-position record range for the memory-resident L0.
struct MergeSelection {
  bool full = false;

  /// Partial merge from a level >= 1: leaves [leaf_begin, leaf_begin +
  /// leaf_count).
  size_t leaf_begin = 0;
  size_t leaf_count = 0;

  /// Partial merge from L0: the record range [record_begin, record_begin +
  /// record_count) in sorted key order.
  size_t record_begin = 0;
  size_t record_count = 0;

  static MergeSelection Full() {
    MergeSelection s;
    s.full = true;
    return s;
  }
  static MergeSelection Leaves(size_t begin, size_t count) {
    MergeSelection s;
    s.leaf_begin = begin;
    s.leaf_count = count;
    return s;
  }
  static MergeSelection Records(size_t begin, size_t count) {
    MergeSelection s;
    s.record_begin = begin;
    s.record_count = count;
    return s;
  }
};

/// Strategy interface: decides, at overflow time, which part of the
/// overflowing level to merge into the next one (Section III). Policies
/// work purely on cached metadata (leaf directories, memtable keys) — a
/// selection never performs data-block I/O.
class MergePolicy {
 public:
  virtual ~MergePolicy() = default;

  /// Display name ("Full", "RR", "ChooseBest", "Mixed").
  virtual std::string_view name() const = 0;

  /// Called when `source_level` (0 = the L0 buffer) overflows; returns what
  /// to merge into `source_level + 1`. Stateful policies (RR's cursor) may
  /// update internal state — the returned selection is always executed.
  virtual MergeSelection SelectMerge(const LsmTree& tree,
                                     size_t source_level) = 0;

  /// Clears internal state (e.g., RR cursors). Called when the tree is
  /// reconfigured under the policy.
  virtual void Reset() {}
};

}  // namespace lsmssd

#endif  // LSMSSD_POLICY_MERGE_POLICY_H_
