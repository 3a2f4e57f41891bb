#include "src/lsm/memtable.h"

#include <algorithm>

#include "src/util/logging.h"

namespace lsmssd {

Memtable::Memtable(Memtable&& other) noexcept
    : entries_(std::move(other.entries_)) {
  other.NoteMutation();
}

Memtable& Memtable::operator=(Memtable&& other) noexcept {
  entries_ = std::move(other.entries_);
  NoteMutation();
  other.NoteMutation();
  return *this;
}

void Memtable::Put(Key key, std::string payload) {
  NoteMutation();
  entries_[key] = Record::Put(key, std::move(payload));
}

void Memtable::Delete(Key key) {
  NoteMutation();
  entries_[key] = Record::Tombstone(key);
}

const Record* Memtable::Get(Key key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

Key Memtable::min_key() const {
  LSMSSD_CHECK(!entries_.empty());
  return entries_.begin()->first;
}

Key Memtable::max_key() const {
  LSMSSD_CHECK(!entries_.empty());
  return entries_.rbegin()->first;
}

std::vector<Key> Memtable::SortedKeys() const {
  std::vector<Key> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, record] : entries_) keys.push_back(key);
  return keys;
}

std::vector<Record> Memtable::Slice(size_t begin, size_t count) const {
  std::vector<Record> out;
  if (begin >= entries_.size()) return out;
  count = std::min(count, entries_.size() - begin);
  out.reserve(count);
  auto it = entries_.begin();
  std::advance(it, static_cast<ptrdiff_t>(begin));
  for (size_t i = 0; i < count; ++i, ++it) out.push_back(it->second);
  return out;
}

std::vector<Record> Memtable::Extract(size_t begin, size_t count) {
  std::vector<Record> out;
  if (begin >= entries_.size()) return out;
  NoteMutation();
  count = std::min(count, entries_.size() - begin);
  out.reserve(count);
  auto it = entries_.begin();
  std::advance(it, static_cast<ptrdiff_t>(begin));
  for (size_t i = 0; i < count; ++i) {
    out.push_back(std::move(it->second));
    it = entries_.erase(it);
  }
  return out;
}

void Memtable::EraseRange(size_t begin, size_t count) {
  if (begin >= entries_.size()) return;
  NoteMutation();
  count = std::min(count, entries_.size() - begin);
  auto it = entries_.begin();
  std::advance(it, static_cast<ptrdiff_t>(begin));
  for (size_t i = 0; i < count; ++i) it = entries_.erase(it);
}

std::vector<Record> Memtable::ExtractAll() {
  NoteMutation();
  std::vector<Record> out;
  out.reserve(entries_.size());
  for (auto& [key, record] : entries_) out.push_back(std::move(record));
  entries_.clear();
  return out;
}

size_t Memtable::UpperBoundIndex(Key key) const {
  auto it = entries_.upper_bound(key);
  return static_cast<size_t>(std::distance(entries_.begin(), it));
}

}  // namespace lsmssd
