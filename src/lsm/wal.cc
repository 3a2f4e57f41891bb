#include "src/lsm/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <memory>
#include <string_view>

#include "src/util/crc32c.h"
#include "src/util/logging.h"

namespace lsmssd {

namespace {

constexpr char kFileHeader[] = {'L', 'S', 'M', 'W', 'A', 'L', 0x02, 0x00};
constexpr size_t kFileHeaderSize = sizeof(kFileHeader);
constexpr size_t kBatchHeaderSize = 8;
/// Smallest entry: a tag (key width 0) and a one-byte payload length.
constexpr size_t kMinEntrySize = 2;

void EncodeU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// CRC32C over a batch's length field and body (`length` bytes after the
/// 8-byte header at `header`).
uint32_t BatchCrc(const char* header, size_t length) {
  const auto* p = reinterpret_cast<const uint8_t*>(header);
  return crc32c::Extend(crc32c::Value(p, 4), p + kBatchHeaderSize, length);
}

/// Bytes of `key` with its leading zero bytes dropped (0 for key 0).
int KeyWidth(Key key) {
  return key == 0 ? 0 : (64 - __builtin_clzll(key) + 7) / 8;
}

/// Header status of `data`, the whole log or its first bytes: OK with
/// `*complete` set when it starts with the v2 header, OK with it cleared
/// when it is empty or a prefix of the header (a crash during the first
/// write), and Corruption otherwise.
Status CheckFileHeader(std::string_view data, const std::string& path,
                       bool* complete) {
  const size_t n = std::min(data.size(), kFileHeaderSize);
  if (std::memcmp(data.data(), kFileHeader, n) != 0) {
    return Status::Corruption(
        "WAL " + path +
        " lacks the v2 batch-format header (a log in the older per-entry "
        "format?); refusing to replay or truncate it");
  }
  *complete = n == kFileHeaderSize;
  return Status::OK();
}

/// Body length of the batch at `pos` when it is whole and checksum-valid,
/// else 0.
size_t ValidBatchLength(std::string_view data, size_t pos) {
  if (data.size() - pos < kBatchHeaderSize) return 0;
  const uint32_t length = GetU32(data.data() + pos);
  if (length < kMinEntrySize ||
      length > data.size() - pos - kBatchHeaderSize) {
    return 0;
  }
  if (BatchCrc(data.data() + pos, length) != GetU32(data.data() + pos + 4)) {
    return 0;
  }
  return length;
}

/// True when any offset in [from, data.size()) starts a whole,
/// checksum-valid batch. Distinguishes a benign torn tail (nothing
/// readable follows the bad batch) from mid-file corruption that still
/// has intact batches behind it. A false positive needs random bytes to
/// pass CRC32C (~2^-32 per offset); only runs on the failure path.
bool HasValidBatchAfter(std::string_view data, size_t from) {
  for (size_t p = from; p < data.size(); ++p) {
    if (ValidBatchLength(data, p) != 0) return true;
  }
  return false;
}

/// Replaces `records` with the entries of one checksum-valid batch body,
/// reusing the elements (and their payload buffers) already there. False
/// when the body does not parse: the log lied about its contents.
bool DecodeBatch(std::string_view body, std::vector<Record>* records) {
  size_t n = 0;
  size_t p = 0;
  while (p < body.size()) {
    const auto tag = static_cast<uint8_t>(body[p++]);
    const int width = tag & 0x0f;
    const int type = tag >> 4;
    if (width > 8 || type > static_cast<int>(RecordType::kDelete) ||
        body.size() - p < static_cast<size_t>(width)) {
      return false;
    }
    Key key = 0;
    for (int i = 0; i < width; ++i) {
      key = (key << 8) | static_cast<uint8_t>(body[p++]);
    }
    uint64_t length = 0;
    for (int shift = 0;; shift += 7) {
      if (p == body.size() || shift > 28) return false;
      const auto byte = static_cast<uint8_t>(body[p++]);
      length |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
    if (body.size() - p < length) return false;
    if (n == records->size()) records->emplace_back();
    Record& record = (*records)[n++];
    record.type = static_cast<RecordType>(type);
    record.key = key;
    record.payload.assign(body.data() + p, length);
    p += length;
  }
  records->resize(n);
  return true;
}

/// Reads the whole file at `path` into `data`. False when it does not
/// exist (or cannot be read): nothing to replay.
bool ReadFile(const std::string& path, std::string* data) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct ::stat st;
  if (::fstat(fd, &st) == 0) data->reserve(static_cast<size_t>(st.st_size));
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    data->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return true;
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
    : file_(std::move(file)), needs_file_header_(file_->size() == 0) {}

Status WalWriter::Append(const Record& record) {
  Buffer(record.type, record.key, record.payload);
  if (pending_.size() < kMaxPendingBytes) return Status::OK();
  SealBatch();
  return WriteBatch(/*sync=*/false);
}

void WalWriter::Buffer(RecordType type, Key key, std::string_view payload) {
  const size_t start = pending_.size();
  if (open_batch_ == kNoBatch) {
    if (needs_file_header_) {
      pending_.append(kFileHeader, kFileHeaderSize);
      needs_file_header_ = false;
    }
    // The header is filled in by WriteBatch, off the commit lock.
    open_batch_ = pending_.size();
    pending_.append(kBatchHeaderSize, '\0');
  }
  // [u8 tag][key, big-endian, leading zeros dropped][varint length].
  char head[1 + 8 + 5];
  const int width = KeyWidth(key);
  size_t n = 0;
  head[n++] = static_cast<char>((static_cast<int>(type) << 4) | width);
  for (int i = width - 1; i >= 0; --i) {
    head[n++] = static_cast<char>((key >> (8 * i)) & 0xff);
  }
  uint32_t length = static_cast<uint32_t>(payload.size());
  while (length >= 0x80) {
    head[n++] = static_cast<char>((length & 0x7f) | 0x80);
    length >>= 7;
  }
  head[n++] = static_cast<char>(length);
  pending_.append(head, n);
  pending_.append(payload);
  ++entries_appended_;
  bytes_appended_ += pending_.size() - start;
}

Status WalWriter::Sync() {
  SealBatch();
  return WriteBatch(/*sync=*/true);
}

void WalWriter::SealBatch() {
  LSMSSD_CHECK(batch_.empty());
  pending_.swap(batch_);
  sealed_batch_ = open_batch_;
  open_batch_ = kNoBatch;
}

Status WalWriter::WriteBatch(bool sync) {
  Status st;
  if (!batch_.empty()) {
    char* header = batch_.data() + sealed_batch_;
    const size_t length = batch_.size() - sealed_batch_ - kBatchHeaderSize;
    EncodeU32(header, static_cast<uint32_t>(length));
    EncodeU32(header + 4, BatchCrc(header, length));
    st = file_->Append(batch_);
  }
  // Cleared on failure too: the file's tail is then unknown, and the
  // caller must treat the log as failed (reopen recovers its prefix).
  batch_.clear();
  sealed_batch_ = kNoBatch;
  if (st.ok() && sync) st = file_->Sync();
  return st;
}

Status WalWriter::Truncate() {
  pending_.clear();
  open_batch_ = kNoBatch;
  needs_file_header_ = true;
  return file_->Truncate();
}

Status WalReader::ForEachBatch(const std::string& path, const BatchFn& fn,
                               size_t* valid_bytes) {
  if (valid_bytes != nullptr) *valid_bytes = 0;
  std::string data;
  if (!ReadFile(path, &data)) return Status::OK();

  bool have_header = false;
  LSMSSD_RETURN_IF_ERROR(CheckFileHeader(data, path, &have_header));
  if (!have_header) return Status::OK();  // Empty, or a torn first write.
  std::vector<Record> batch;
  size_t pos = kFileHeaderSize;
  while (pos < data.size()) {
    const size_t length = ValidBatchLength(data, pos);
    if (length == 0) {
      // A bad batch with nothing readable after it is the expected tear
      // from a crash mid-write: drop it. But a bad batch *followed by* a
      // well-formed one is latent corruption of data a sync may have
      // acknowledged — truncating here would silently discard those
      // durable batches, so refuse instead of guessing.
      if (HasValidBatchAfter(data, pos + 1)) {
        return Status::Corruption(
            "WAL batch at offset " + std::to_string(pos) + " of " + path +
            " is corrupt but followed by well-formed batches");
      }
      break;  // Torn tail.
    }
    if (!DecodeBatch(std::string_view(data).substr(pos + kBatchHeaderSize,
                                                   length),
                     &batch)) {
      return Status::Corruption("WAL batch at offset " + std::to_string(pos) +
                                " of " + path + " has a malformed entry");
    }
    LSMSSD_RETURN_IF_ERROR(fn(pos, batch));
    pos += kBatchHeaderSize + length;
  }
  if (valid_bytes != nullptr) *valid_bytes = pos;
  return Status::OK();
}

StatusOr<std::vector<Record>> WalReader::ReadAll(const std::string& path,
                                                 size_t* valid_bytes) {
  std::vector<Record> records;
  LSMSSD_RETURN_IF_ERROR(ForEachBatch(
      path,
      [&records](size_t, std::vector<Record>& batch) {
        records.insert(records.end(), std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
        return Status::OK();
      },
      valid_bytes));
  return records;
}

Status WalReader::CheckHeader(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::OK();  // Nothing to replay.
  char buf[kFileHeaderSize];
  ssize_t n;
  do {
    n = ::pread(fd, buf, sizeof(buf), 0);
  } while (n < 0 && errno == EINTR);
  ::close(fd);
  if (n < 0) {
    return Status::IoError("read WAL header of " + path + ": " +
                           std::strerror(errno));
  }
  bool complete = false;
  return CheckFileHeader(std::string_view(buf, static_cast<size_t>(n)), path,
                         &complete);
}

}  // namespace lsmssd
