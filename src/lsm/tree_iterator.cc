// LsmTree::NewIterator(): a k-way merge across L0 and every on-SSD level,
// with upper levels shadowing lower ones and tombstones suppressed.
//
// Nothing is allocated per record: a memtable cursor is a std::map
// position (Seek is one lower_bound, Next one ++it), a level cursor walks
// the zero-copy leaf view (Level::ReadLeafView; only a leaf change reads a
// block), key comparisons and tombstone checks read the map node or the
// encoded block in place, and the merged iterator copies only the winning
// payload, into one reused string. Nothing materializes a Record.

#include <string_view>
#include <vector>

#include "src/lsm/iterator.h"
#include "src/lsm/lsm_tree.h"
#include "src/util/logging.h"

namespace lsmssd {

namespace {

/// Cursor over one source (a memtable or one level), exposing entries in
/// key order including tombstones. The merged iterator consolidates.
/// Valid()/key() read the cached position; payload() views the entry in
/// place and stays valid until the cursor moves.
class SourceCursor {
 public:
  virtual ~SourceCursor() = default;
  bool Valid() const { return valid_; }
  Key key() const {
    LSMSSD_DCHECK(valid_);
    return key_;
  }
  virtual Status SeekToFirst() = 0;
  virtual Status Seek(Key target) = 0;
  virtual Status Next() = 0;
  virtual bool is_tombstone() const = 0;
  virtual std::string_view payload() const = 0;

 protected:
  bool valid_ = false;
  Key key_ = 0;
};

class MemtableCursor : public SourceCursor {
 public:
  explicit MemtableCursor(const Memtable* memtable)
      : memtable_(memtable), mutations_(memtable->mutations()) {}

  Status SeekToFirst() override { return Seek(0); }

  Status Seek(Key target) override {
    CheckUnchanged();
    it_ = memtable_->LowerBound(target);
    Load();
    return Status::OK();
  }

  Status Next() override {
    LSMSSD_DCHECK(valid_);
    CheckUnchanged();
    ++it_;
    Load();
    return Status::OK();
  }

  bool is_tombstone() const override {
    LSMSSD_DCHECK(valid_);
    CheckUnchanged();
    return it_->second.is_tombstone();
  }

  std::string_view payload() const override {
    LSMSSD_DCHECK(valid_);
    CheckUnchanged();
    return it_->second.payload;
  }

 private:
  void Load() {
    valid_ = it_ != memtable_->end();
    if (valid_) key_ = it_->first;
  }

  /// A map position dies with any mutation of its memtable (see
  /// Iterator): debug builds catch a tree changed under an open iterator.
  void CheckUnchanged() const {
    LSMSSD_DCHECK(memtable_->mutations() == mutations_);
  }

  const Memtable* memtable_;
  Memtable::const_iterator it_;
  const uint64_t mutations_;  // memtable_->mutations() at construction.
};

class LevelCursor : public SourceCursor {
 public:
  explicit LevelCursor(const Level* level) : level_(level) {}

  Status SeekToFirst() override {
    leaf_index_ = 0;
    return LoadLeaf();
  }

  Status Seek(Key target) override {
    const auto [begin, end] = level_->OverlapRange(target, target);
    if (begin < end) {
      leaf_index_ = begin;
      LSMSSD_RETURN_IF_ERROR(LoadLeaf());
      if (!valid_) return Status::OK();
      pos_ = leaf_.view.LowerBound(target);
      if (pos_ >= leaf_.view.size()) return AdvanceLeaf();
      key_ = leaf_.view.key_at(pos_);
      return Status::OK();
    }
    // No leaf contains target: the first leaf starting after it (if any).
    leaf_index_ = begin;  // OverlapRange's begin == first leaf with max >= target.
    return LoadLeaf();
  }

  Status Next() override {
    LSMSSD_DCHECK(valid_);
    ++pos_;
    if (pos_ >= leaf_.view.size()) return AdvanceLeaf();
    key_ = leaf_.view.key_at(pos_);
    return Status::OK();
  }

  bool is_tombstone() const override {
    LSMSSD_DCHECK(valid_);
    return leaf_.view.is_tombstone_at(pos_);
  }

  std::string_view payload() const override {
    LSMSSD_DCHECK(valid_);
    return leaf_.view.payload_at(pos_);
  }

 private:
  Status AdvanceLeaf() {
    ++leaf_index_;
    return LoadLeaf();
  }

  /// Positions on the first entry of leaf `leaf_index_` (invalid past the
  /// last leaf).
  Status LoadLeaf() {
    valid_ = false;
    pos_ = 0;
    leaf_ = LeafView{};
    if (leaf_index_ >= level_->num_leaves()) return Status::OK();
    auto leaf_or = level_->ReadLeafView(leaf_index_);
    if (!leaf_or.ok()) return leaf_or.status();
    leaf_ = std::move(leaf_or).value();
    valid_ = !leaf_.view.empty();
    if (valid_) key_ = leaf_.view.key_at(0);
    return Status::OK();
  }

  const Level* level_;
  size_t leaf_index_ = 0;
  size_t pos_ = 0;
  LeafView leaf_;
};

/// Merges the cursors: smallest key wins; among equal keys the youngest
/// source (lowest index, L0 first) shadows the rest; tombstones are
/// skipped.
class MergedIterator : public Iterator {
 public:
  explicit MergedIterator(std::vector<std::unique_ptr<SourceCursor>> sources)
      : sources_(std::move(sources)) {}

  bool Valid() const override { return valid_ && status_.ok(); }

  void SeekToFirst() override {
    for (auto& s : sources_) {
      if (!Check(s->SeekToFirst())) return;
    }
    FindNextLive();
  }

  void Seek(Key target) override {
    for (auto& s : sources_) {
      if (!Check(s->Seek(target))) return;
    }
    FindNextLive();
  }

  void Next() override {
    LSMSSD_CHECK(Valid());
    if (!AdvancePast(key_)) return;
    FindNextLive();
  }

  Key key() const override {
    LSMSSD_DCHECK(Valid());
    return key_;
  }

  const std::string& value() const override {
    LSMSSD_DCHECK(Valid());
    return value_;
  }

  Status status() const override { return status_; }

 private:
  bool Check(Status st) {
    if (!st.ok()) {
      status_ = std::move(st);
      valid_ = false;
      return false;
    }
    return true;
  }

  /// Advances every source positioned on `key`.
  bool AdvancePast(Key key) {
    for (auto& s : sources_) {
      if (s->Valid() && s->key() == key) {
        if (!Check(s->Next())) return false;
      }
    }
    return true;
  }

  /// Consolidates the current minimum across sources; skips tombstones.
  /// Only the winner of a live key copies its payload, into value_'s
  /// existing buffer.
  void FindNextLive() {
    for (;;) {
      const SourceCursor* winner = nullptr;
      for (const auto& s : sources_) {
        if (!s->Valid()) continue;
        if (winner == nullptr || s->key() < winner->key()) {
          winner = s.get();  // Lowest index wins ties (scanned in order).
        }
      }
      if (winner == nullptr) {
        valid_ = false;
        return;
      }
      if (!winner->is_tombstone()) {
        key_ = winner->key();
        value_.assign(winner->payload());
        valid_ = true;
        return;
      }
      if (!AdvancePast(winner->key())) return;  // Deleted: keep looking.
    }
  }

  std::vector<std::unique_ptr<SourceCursor>> sources_;
  Key key_ = 0;
  std::string value_;
  bool valid_ = false;
  Status status_;
};

}  // namespace

std::unique_ptr<Iterator> LsmTree::NewIterator() const {
  std::vector<std::unique_ptr<SourceCursor>> sources;
  sources.reserve(num_levels() + sealed_.size() + 1);
  // Youngest source first (ties are won by the lowest index): the active
  // memtable, then sealed memtables newest-first, then the L0 buffer
  // (absorbed seals, older than all of the above), then the levels.
  sources.push_back(std::make_unique<MemtableCursor>(&memtable_));
  for (auto it = sealed_.rbegin(); it != sealed_.rend(); ++it) {
    sources.push_back(std::make_unique<MemtableCursor>(it->get()));
  }
  sources.push_back(std::make_unique<MemtableCursor>(&l0_buffer_));
  for (size_t i = 1; i < num_levels(); ++i) {
    sources.push_back(std::make_unique<LevelCursor>(&level(i)));
  }
  return std::make_unique<MergedIterator>(std::move(sources));
}

}  // namespace lsmssd
