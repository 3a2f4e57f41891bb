#include "src/lsm/manifest.h"

#include <cstdio>
#include <cstring>

#include "src/lsm/lsm_tree.h"
#include "src/util/logging.h"

namespace lsmssd {

namespace {

// v1 manifests predate key–value separation: no vlog_value_threshold
// in the options block and no vlog bounds after the levels. They are
// still decoded (threshold 0, vlog bounds zero); new manifests are
// always written as v2.
constexpr char kMagicV1[8] = {'L', 'S', 'M', 'S', 'S', 'D', '0', '1'};
constexpr char kMagicV2[8] = {'L', 'S', 'M', 'S', 'S', 'D', '0', '2'};

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Bounds-checked little-endian reader.
class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(
                static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadDouble(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadBytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) return false;
    out->assign(data_, pos_, n);
    pos_ += n;
    return true;
  }

  size_t pos() const { return pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

/// FNV-1a over the payload; cheap manifest integrity check.
uint64_t Checksum(const std::string& data, size_t begin, size_t end) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = begin; i < end; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void EncodeOptions(const Options& o, std::string* out) {
  PutU64(out, o.block_size);
  PutU64(out, o.key_size);
  PutU64(out, o.payload_size);
  PutU64(out, o.level0_capacity_blocks);
  PutDouble(out, o.gamma);
  PutDouble(out, o.epsilon);
  PutDouble(out, o.delta);
  PutU64(out, o.preserve_blocks ? 1 : 0);
  PutU64(out, o.cache_blocks);
  PutU64(out, o.bloom_bits_per_key);
  PutU64(out, o.annihilate_delete_put ? 1 : 0);
  PutU64(out, o.vlog_value_threshold);
}

bool DecodeOptions(Reader* r, Options* o, bool v2) {
  uint64_t u;
  if (!r->ReadU64(&u)) return false;
  o->block_size = u;
  if (!r->ReadU64(&u)) return false;
  o->key_size = u;
  if (!r->ReadU64(&u)) return false;
  o->payload_size = u;
  if (!r->ReadU64(&o->level0_capacity_blocks)) return false;
  if (!r->ReadDouble(&o->gamma)) return false;
  if (!r->ReadDouble(&o->epsilon)) return false;
  if (!r->ReadDouble(&o->delta)) return false;
  if (!r->ReadU64(&u)) return false;
  o->preserve_blocks = (u != 0);
  if (!r->ReadU64(&u)) return false;
  o->cache_blocks = u;
  if (!r->ReadU64(&u)) return false;
  o->bloom_bits_per_key = u;
  if (!r->ReadU64(&u)) return false;
  o->annihilate_delete_put = (u != 0);
  if (v2) {
    if (!r->ReadU64(&u)) return false;
    o->vlog_value_threshold = u;
  } else {
    o->vlog_value_threshold = 0;
  }
  return true;
}

void EncodeRecord(const Record& record, std::string* out) {
  PutU64(out, static_cast<uint64_t>(record.type));
  PutU64(out, record.key);
  PutU64(out, record.payload.size());
  out->append(record.payload);
}

bool DecodeRecord(Reader* r, Record* record) {
  uint64_t type, payload_size;
  if (!r->ReadU64(&type)) return false;
  if (type > static_cast<uint64_t>(RecordType::kDelete)) return false;
  record->type = static_cast<RecordType>(type);
  if (!r->ReadU64(&record->key)) return false;
  if (!r->ReadU64(&payload_size)) return false;
  if (payload_size > (1u << 20)) return false;  // Sanity cap.
  return r->ReadBytes(payload_size, &record->payload);
}

}  // namespace

std::string EncodeManifest(const LsmTree& tree) {
  return EncodeManifest(tree, VlogManifestState());
}

std::string EncodeManifest(const LsmTree& tree,
                           const VlogManifestState& vlog) {
  std::string out(kMagicV2, sizeof(kMagicV2));
  std::string body;
  EncodeOptions(tree.options(), &body);

  // Memory-resident records in key order: the active memtable plus any
  // sealed (queued-for-flush) memtables, consolidated newest-wins. A
  // checkpoint taken while background compaction has work queued must
  // capture those records, or deleting covered WAL segments loses them.
  const std::vector<Record> memtable = tree.MemtableSnapshot();
  PutU64(&body, memtable.size());
  for (const Record& r : memtable) EncodeRecord(r, &body);

  // Leaf directories of every on-SSD level.
  PutU64(&body, tree.num_levels() - 1);
  for (size_t i = 1; i < tree.num_levels(); ++i) {
    const Level& level = tree.level(i);
    PutU64(&body, level.num_leaves());
    for (const LeafMeta& leaf : level.leaves()) {
      PutU64(&body, leaf.block);
      PutU64(&body, leaf.min_key);
      PutU64(&body, leaf.max_key);
      PutU64(&body, leaf.count);
    }
  }

  // Value-log bounds (zeros when separation is off).
  PutU64(&body, vlog.head_file);
  PutU64(&body, vlog.head_offset);
  PutU64(&body, vlog.tail_file);

  out += body;
  PutU64(&out, Checksum(out, sizeof(kMagicV2), out.size()));
  return out;
}

StatusOr<Manifest> DecodeManifest(const std::string& data) {
  if (data.size() < sizeof(kMagicV2) + 8) {
    return Status::Corruption("bad manifest magic");
  }
  const bool v2 = std::memcmp(data.data(), kMagicV2, sizeof(kMagicV2)) == 0;
  if (!v2 && std::memcmp(data.data(), kMagicV1, sizeof(kMagicV1)) != 0) {
    return Status::Corruption("bad manifest magic");
  }
  // Verify the trailing checksum over everything between magic and it.
  {
    uint64_t stored = 0;
    const size_t tail = data.size() - 8;
    for (int i = 0; i < 8; ++i) {
      stored |= static_cast<uint64_t>(static_cast<uint8_t>(data[tail + i]))
                << (8 * i);
    }
    if (stored != Checksum(data, sizeof(kMagicV2), tail)) {
      return Status::Corruption("manifest checksum mismatch");
    }
  }

  Reader r(data);
  std::string magic;
  (void)r.ReadBytes(sizeof(kMagicV2), &magic);

  Manifest manifest;
  if (!DecodeOptions(&r, &manifest.options, v2)) {
    return Status::Corruption("truncated options");
  }
  if (Status st = manifest.options.Validate(); !st.ok()) {
    return Status::Corruption("manifest options invalid: " + st.message());
  }

  uint64_t memtable_count;
  if (!r.ReadU64(&memtable_count)) {
    return Status::Corruption("truncated memtable count");
  }
  manifest.memtable_records.reserve(memtable_count);
  Key prev_key = 0;
  for (uint64_t i = 0; i < memtable_count; ++i) {
    Record record;
    if (!DecodeRecord(&r, &record)) {
      return Status::Corruption("truncated memtable record");
    }
    if (i > 0 && record.key <= prev_key) {
      return Status::Corruption("memtable records out of order");
    }
    prev_key = record.key;
    manifest.memtable_records.push_back(std::move(record));
  }

  uint64_t level_count;
  if (!r.ReadU64(&level_count)) {
    return Status::Corruption("truncated level count");
  }
  if (level_count > 64) return Status::Corruption("absurd level count");
  manifest.levels.resize(level_count);
  for (auto& leaves : manifest.levels) {
    uint64_t leaf_count;
    if (!r.ReadU64(&leaf_count)) {
      return Status::Corruption("truncated leaf count");
    }
    leaves.reserve(leaf_count);
    Key prev_max = 0;
    for (uint64_t i = 0; i < leaf_count; ++i) {
      LeafMeta leaf;
      uint64_t count;
      if (!r.ReadU64(&leaf.block) || !r.ReadU64(&leaf.min_key) ||
          !r.ReadU64(&leaf.max_key) || !r.ReadU64(&count)) {
        return Status::Corruption("truncated leaf metadata");
      }
      leaf.count = static_cast<uint32_t>(count);
      if (leaf.count == 0 || leaf.min_key > leaf.max_key ||
          (i > 0 && leaf.min_key <= prev_max)) {
        return Status::Corruption("inconsistent leaf metadata");
      }
      prev_max = leaf.max_key;
      leaves.push_back(leaf);
    }
  }
  if (v2) {
    if (!r.ReadU64(&manifest.vlog.head_file) ||
        !r.ReadU64(&manifest.vlog.head_offset) ||
        !r.ReadU64(&manifest.vlog.tail_file)) {
      return Status::Corruption("truncated vlog bounds");
    }
    if (manifest.vlog.tail_file > manifest.vlog.head_file) {
      return Status::Corruption("vlog tail beyond head");
    }
  }
  return manifest;
}

Status SaveManifestToFile(const LsmTree& tree, const std::string& path) {
  const std::string data = EncodeManifest(tree);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + tmp);
  const size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != data.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " -> " + path);
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<LsmTree>> LsmTree::Restore(
    const Manifest& manifest, BlockDevice* device,
    std::unique_ptr<MergePolicy> policy) {
  auto tree_or = Open(manifest.options, device, std::move(policy));
  if (!tree_or.ok()) return tree_or.status();
  std::unique_ptr<LsmTree> tree = std::move(tree_or).value();
  const Options& options = tree->options();

  // The manifest's memory-resident records are the oldest memory-resident
  // state, so they go to the L0 buffer: writes after the restore (Put/
  // Delete, or the active memtable of the step-driven path) shadow them.
  for (const Record& r : manifest.memtable_records) {
    if (r.is_tombstone()) {
      tree->l0_buffer_.Delete(r.key);
    } else {
      if (r.payload.size() != options.stored_payload_size()) {
        return Status::Corruption("manifest memtable payload size mismatch");
      }
      tree->l0_buffer_.Put(r.key, r.payload);
    }
  }

  for (const auto& leaves : manifest.levels) {
    tree->AddLevel();
    Level* level = tree->mutable_level(tree->num_levels() - 1);
    for (const LeafMeta& leaf : leaves) {
      if (leaf.count > options.records_per_block()) {
        return Status::Corruption("manifest leaf count exceeds capacity");
      }
      if (options.bloom_bits_per_key == 0) {
        level->AppendLeaf(leaf);
        continue;
      }
      // Rebuild the Bloom filter from the block, verifying the metadata
      // against the actual contents as we go. Reads go through the tree's
      // device so a configured buffer cache is warmed by the restore.
      auto data_or = tree->device()->ReadBlockShared(leaf.block);
      if (!data_or.ok()) return data_or.status();
      auto view_or = RecordBlockView::Parse(options, *data_or.value());
      if (!view_or.ok()) return view_or.status();
      const RecordBlockView& view = view_or.value();
      if (view.empty() || view.min_key() != leaf.min_key ||
          view.max_key() != leaf.max_key || view.size() != leaf.count) {
        return Status::Corruption("manifest leaf metadata mismatch");
      }
      LeafMeta rebuilt = leaf;
      auto filter = std::make_shared<BloomFilter>(view.size(),
                                                  options.bloom_bits_per_key);
      for (size_t s = 0; s < view.size(); ++s) filter->AddKey(view.key_at(s));
      rebuilt.filter = std::move(filter);
      level->AppendLeaf(rebuilt);
    }
  }

  LSMSSD_RETURN_IF_ERROR(tree->CheckInvariants(false));
  return tree;
}

StatusOr<Manifest> LoadManifestFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  return DecodeManifest(data);
}

}  // namespace lsmssd
