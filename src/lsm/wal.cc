#include "src/lsm/wal.h"

#include <cstdio>
#include <memory>
#include <string_view>

#include "src/util/logging.h"

namespace lsmssd {

namespace {

uint32_t Fnv1a(std::string_view data) {
  uint32_t h = 2166136261u;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

void EncodeU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void EncodeU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// True when any offset in [from, data.size()) starts a complete,
/// checksum-valid WAL frame. Distinguishes a benign torn tail (nothing
/// readable follows the bad frame) from mid-file corruption that still
/// has intact entries behind it. A false positive needs random bytes to
/// pass FNV-1a (~2^-32 per offset); only runs on the failure path.
bool HasValidEntryAfter(std::string_view data, size_t from) {
  for (size_t p = from; p + 8 + 9 <= data.size(); ++p) {
    const uint32_t length = GetU32(data.data() + p);
    if (length < 9 || length > data.size() - p - 8) continue;
    if (Fnv1a(data.substr(p + 8, length)) == GetU32(data.data() + p + 4)) {
      return true;
    }
  }
  return false;
}

}  // namespace

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path) {
  auto file = PosixWalFile::Open(path);
  if (!file.ok()) return file.status();
  return Wrap(std::move(file).value());
}

std::unique_ptr<WalWriter> WalWriter::Wrap(std::unique_ptr<WalFile> file) {
  LSMSSD_CHECK(file != nullptr);
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(file)));
}

WalWriter::WalWriter(std::unique_ptr<WalFile> file)
    : file_(std::move(file)) {}

Status WalWriter::Append(const Record& record) {
  Buffer(record.type, record.key, record.payload);
  if (pending_.size() < kMaxPendingBytes) return Status::OK();
  SealBatch();
  return WriteBatch(/*sync=*/false);
}

void WalWriter::Buffer(RecordType type, Key key, std::string_view payload) {
  // Frame in place: [u32 length][u32 FNV-1a][u8 type][u64 key][payload].
  const size_t start = pending_.size();
  const size_t length = 9 + payload.size();
  pending_.resize(start + 8 + length);
  char* frame = pending_.data() + start;
  frame[8] = static_cast<char>(type);
  EncodeU64(frame + 9, key);
  if (!payload.empty()) payload.copy(frame + 17, payload.size());
  EncodeU32(frame, static_cast<uint32_t>(length));
  EncodeU32(frame + 4, Fnv1a(std::string_view(frame + 8, length)));
  ++entries_appended_;
  bytes_appended_ += 8 + length;
}

Status WalWriter::Sync() {
  SealBatch();
  return WriteBatch(/*sync=*/true);
}

void WalWriter::SealBatch() {
  LSMSSD_CHECK(batch_.empty());
  pending_.swap(batch_);
}

Status WalWriter::WriteBatch(bool sync) {
  Status st = batch_.empty() ? Status::OK() : file_->Append(batch_);
  // Cleared on failure too: the file's tail is then unknown, and the
  // caller must treat the log as failed (reopen recovers its prefix).
  batch_.clear();
  if (st.ok() && sync) st = file_->Sync();
  return st;
}

Status WalWriter::Truncate() {
  pending_.clear();
  return file_->Truncate();
}

StatusOr<std::vector<Record>> WalReader::ReadAll(
    const std::string& path, size_t* valid_bytes,
    std::vector<size_t>* entry_offsets) {
  if (valid_bytes != nullptr) *valid_bytes = 0;
  if (entry_offsets != nullptr) entry_offsets->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::vector<Record>{};  // Nothing to replay.
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);

  std::vector<Record> records;
  size_t pos = 0;
  while (pos + 8 <= data.size()) {
    const uint32_t length = GetU32(data.data() + pos);
    const uint32_t checksum = GetU32(data.data() + pos + 4);
    const bool frame_fits = length >= 9 && pos + 8 + length <= data.size();
    if (!frame_fits ||
        Fnv1a(std::string_view(data).substr(pos + 8, length)) != checksum) {
      // A bad frame with nothing readable after it is the expected tear
      // from a crash mid-append: drop it. But a bad frame *followed by*
      // well-formed entries is latent corruption of data a sync may
      // have acknowledged — truncating here would silently discard
      // those durable entries, so refuse instead of guessing.
      if (HasValidEntryAfter(data, pos + 1)) {
        return Status::Corruption(
            "WAL entry at offset " + std::to_string(pos) +
            " is corrupt but followed by well-formed entries");
      }
      break;  // Torn tail.
    }
    const std::string payload = data.substr(pos + 8, length);
    Record record;
    const auto type = static_cast<uint8_t>(payload[0]);
    if (type > static_cast<uint8_t>(RecordType::kDelete)) {
      return Status::Corruption("WAL entry with unknown record type");
    }
    record.type = static_cast<RecordType>(type);
    record.key = GetU64(payload.data() + 1);
    record.payload = payload.substr(9);
    records.push_back(std::move(record));
    if (entry_offsets != nullptr) entry_offsets->push_back(pos);
    pos += 8 + length;
  }
  if (valid_bytes != nullptr) *valid_bytes = pos;
  return records;
}

}  // namespace lsmssd
