#ifndef LSMSSD_LSM_ITERATOR_H_
#define LSMSSD_LSM_ITERATOR_H_

#include <memory>
#include <string>

#include "src/format/record.h"
#include "src/util/status.h"

namespace lsmssd {

/// Forward iterator over the live (non-deleted, consolidated) records of
/// an LSM tree, in key order. Obtained from LsmTree::NewIterator().
///
/// Contract: an LsmTree iterator is invalidated by *any* mutation of the
/// tree or of its memtables — Put/Delete, a seal, a flush or merge step.
/// It holds positions inside the memtables' ordered maps, so using it
/// afterwards (even Seek) is undefined behaviour; debug builds
/// LSMSSD_DCHECK a per-memtable mutation counter to catch it.
/// Iterators from Db::NewIterator() are safe: they hold the Db's tree
/// lock (tree_mu_) and memtable lock (mem_mu_) shared for their lifetime,
/// so writers wait until the iterator is destroyed. Bare-tree callers
/// must destroy the iterator before mutating the tree.
///
/// Usage:
///   auto it = tree.NewIterator();
///   for (it->SeekToFirst(); it->Valid(); it->Next()) {
///     use(it->key(), it->value());
///   }
///   LSMSSD_CHECK(it->status().ok());
class Iterator {
 public:
  virtual ~Iterator() = default;

  /// True iff the iterator is positioned on a record. key()/value() may
  /// only be called when Valid().
  virtual bool Valid() const = 0;

  /// Positions on the smallest key (invalid if the tree is empty).
  virtual void SeekToFirst() = 0;

  /// Positions on the first record with key >= target.
  virtual void Seek(Key target) = 0;

  /// Advances to the next live record. Requires Valid().
  virtual void Next() = 0;

  virtual Key key() const = 0;
  /// The current record's payload. The reference stays valid until the
  /// iterator moves (Seek/SeekToFirst/Next) or is destroyed.
  virtual const std::string& value() const = 0;

  /// Non-OK if an I/O or corruption error interrupted iteration; the
  /// iterator becomes invalid in that case.
  virtual Status status() const = 0;
};

}  // namespace lsmssd

#endif  // LSMSSD_LSM_ITERATOR_H_
