#ifndef LSMSSD_LSM_MEMTABLE_H_
#define LSMSSD_LSM_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/format/record.h"

namespace lsmssd {

/// The memory-resident top level L0 (Section II-A): an in-memory sorted
/// index that logs modifications. At most one record per key — a newer
/// Put overwrites an older entry, a Delete replaces it with a tombstone
/// (the tombstone must survive to cancel possible older versions in lower
/// levels). Merges drain contiguous key ranges out of L0.
class Memtable {
 public:
  Memtable() = default;
  Memtable(Memtable&& other) noexcept;
  Memtable& operator=(Memtable&& other) noexcept;

  /// Logs an insert/update.
  void Put(Key key, std::string payload);

  /// Logs a delete (tombstone).
  void Delete(Key key);

  /// Looks up `key`. Returns the logged record, or nullptr if L0 has no
  /// entry for the key (the caller must then consult lower levels).
  const Record* Get(Key key) const;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  Key min_key() const;
  Key max_key() const;

  /// Copies all keys in sorted order (policy metadata scans).
  std::vector<Key> SortedKeys() const;

  /// Copies the records of the `count` entries starting at sorted position
  /// `begin` (clamped to size). Does not remove them.
  std::vector<Record> Slice(size_t begin, size_t count) const;

  /// Removes the `count` entries starting at sorted position `begin` and
  /// returns them in key order.
  std::vector<Record> Extract(size_t begin, size_t count);

  /// Removes the `count` entries starting at sorted position `begin`
  /// without returning them. Pairs with Slice(): a merge copies its L0
  /// input up front and erases it only after the merge has fully
  /// installed, so an aborted merge leaves L0 intact.
  void EraseRange(size_t begin, size_t count);

  /// Removes and returns everything.
  std::vector<Record> ExtractAll();

  /// Sorted position of the first entry with key > `key` (i.e., where an
  /// RR cursor resumes).
  size_t UpperBoundIndex(Key key) const;

  /// Ordered-map positions for scans (see MemtableCursor): LowerBound is
  /// the first entry with key >= `key`. A position stays valid only until
  /// the memtable is next mutated (any of the non-const members above,
  /// being moved from, or being assigned to).
  using const_iterator = std::map<Key, Record>::const_iterator;
  const_iterator LowerBound(Key key) const { return entries_.lower_bound(key); }
  const_iterator end() const { return entries_.end(); }

  /// Number of mutations so far: a cursor LSMSSD_DCHECKs (debug builds)
  /// that the memtable did not change under it. Counted in every build,
  /// so the class layout does not depend on NDEBUG.
  uint64_t mutations() const { return mutations_; }

 private:
  void NoteMutation() { ++mutations_; }

  // Ordered map gives O(log n) point ops and scan positions; index-based
  // slicing walks iterators (L0 is small — thousands of entries — so this
  // is cheap relative to merge I/O).
  std::map<Key, Record> entries_;
  uint64_t mutations_ = 0;
};

}  // namespace lsmssd

#endif  // LSMSSD_LSM_MEMTABLE_H_
