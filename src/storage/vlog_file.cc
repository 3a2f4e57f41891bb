#include "src/storage/vlog_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/util/crc32c.h"

namespace lsmssd {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// crc32c over (key bytes || len bytes || value), matching EncodeEntry.
uint32_t EntryCrc(Key key, uint32_t len, std::string_view value) {
  unsigned char hdr[12];
  for (int i = 0; i < 8; ++i) hdr[i] = static_cast<unsigned char>(key >> (8 * i));
  for (int i = 0; i < 4; ++i) {
    hdr[8 + i] = static_cast<unsigned char>(len >> (8 * i));
  }
  uint32_t crc = crc32c::Value(hdr, sizeof(hdr));
  return crc32c::Extend(crc, reinterpret_cast<const uint8_t*>(value.data()),
                        value.size());
}

}  // namespace

StatusOr<std::unique_ptr<PosixVlogFile>> PosixVlogFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open vlog " + path);
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Errno("lseek vlog " + path);
  }
  return std::unique_ptr<PosixVlogFile>(
      new PosixVlogFile(path, fd, static_cast<uint64_t>(end)));
}

PosixVlogFile::~PosixVlogFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PosixVlogFile::Append(std::string_view data) {
  const uint64_t end = size_.load(std::memory_order_relaxed);
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::pwrite(fd_, data.data() + done, data.size() - done,
                 static_cast<off_t>(end + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite vlog " + path_);
    }
    done += static_cast<size_t>(n);
  }
  size_.store(end + data.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status PosixVlogFile::Sync() {
  if (::fsync(fd_) != 0) return Errno("fsync vlog " + path_);
  return Status::OK();
}

Status PosixVlogFile::ReadAt(uint64_t offset, size_t n, std::string* out) {
  out->resize(n);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd_, out->data() + done, n - done,
                              static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("pread vlog " + path_);
    }
    if (r == 0) {
      return Status::IoError("short read past end of vlog " + path_);
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status FaultInjectionVlogFile::Append(std::string_view data) {
  if (injector_->tripped()) return Dead();
  if (injector_->Step()) {
    // Crash during append: the bytes never left the process.
    return Status::IoError("injected fault: vlog append");
  }
  std::lock_guard<std::mutex> lk(mu_);
  buffer_.append(data);
  return Status::OK();
}

Status FaultInjectionVlogFile::Sync() {
  if (injector_->tripped()) return Dead();
  std::lock_guard<std::mutex> lk(mu_);
  if (injector_->Step()) {
    // Crash during sync: a prefix of the unsynced bytes reaches the file
    // (torn final entry), but the fsync never happens.
    if (!buffer_.empty()) {
      (void)base_->Append(
          std::string_view(buffer_).substr(0, buffer_.size() / 2 + 1));
    }
    return Status::IoError("injected fault: torn vlog sync");
  }
  if (!buffer_.empty()) {
    LSMSSD_RETURN_IF_ERROR(base_->Append(buffer_));
    synced_size_ = base_->size();
    buffer_.clear();
  }
  return base_->Sync();
}

Status FaultInjectionVlogFile::ReadAt(uint64_t offset, size_t n,
                                      std::string* out) {
  if (injector_->tripped()) return Dead();
  std::lock_guard<std::mutex> lk(mu_);
  if (offset + n <= synced_size_) {
    return base_->ReadAt(offset, n, out);
  }
  out->clear();
  out->reserve(n);
  if (offset < synced_size_) {
    std::string head;
    LSMSSD_RETURN_IF_ERROR(
        base_->ReadAt(offset, static_cast<size_t>(synced_size_ - offset),
                      &head));
    out->append(head);
  }
  // Remainder from the unsynced buffer ("page cache").
  const uint64_t buf_from = offset > synced_size_ ? offset - synced_size_ : 0;
  const size_t want = n - out->size();
  if (buf_from + want > buffer_.size()) {
    return Status::IoError("short read past end of vlog buffer");
  }
  out->append(buffer_, static_cast<size_t>(buf_from), want);
  return Status::OK();
}

uint64_t FaultInjectionVlogFile::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return synced_size_ + buffer_.size();
}

namespace vlog {

std::string EncodeEntry(Key key, std::string_view value) {
  std::string out;
  EncodeEntry(key, value, &out);
  return out;
}

void EncodeEntry(Key key, std::string_view value, std::string* out) {
  const auto len = static_cast<uint32_t>(value.size());
  char hdr[kEntryHeaderSize];
  hdr[0] = static_cast<char>(kEntryMagic);
  for (int i = 0; i < 8; ++i) hdr[1 + i] = static_cast<char>(key >> (8 * i));
  for (int i = 0; i < 4; ++i) hdr[9 + i] = static_cast<char>(len >> (8 * i));
  const uint32_t crc = EntryCrc(key, len, value);
  for (int i = 0; i < 4; ++i) hdr[13 + i] = static_cast<char>(crc >> (8 * i));
  out->assign(hdr, kEntryHeaderSize);
  out->append(value);
}

Status ReadEntry(VlogFile* file, uint64_t offset, Key expected_key,
                 uint32_t expected_length, std::string* value) {
  auto bad = [&](const std::string& what) {
    return Status::Corruption("vlog entry at offset " +
                              std::to_string(offset) + ": " + what);
  };
  if (offset + kEntryHeaderSize + expected_length > file->size()) {
    return bad("points past end of segment");
  }
  std::string raw;
  LSMSSD_RETURN_IF_ERROR(
      file->ReadAt(offset, kEntryHeaderSize + expected_length, &raw));
  const auto* p = reinterpret_cast<const unsigned char*>(raw.data());
  if (p[0] != kEntryMagic) return bad("bad magic");
  const Key key = GetU64(p + 1);
  if (key != expected_key) return bad("key mismatch");
  const uint32_t len = GetU32(p + 9);
  if (len != expected_length) return bad("length mismatch");
  const std::string_view body(raw.data() + kEntryHeaderSize, len);
  if (GetU32(p + 13) != EntryCrc(key, len, body)) return bad("bad checksum");
  value->assign(body);
  return Status::OK();
}

Status ScanEntries(
    VlogFile* file, uint64_t start,
    const std::function<Status(const EntryInfo&, const std::string&)>& fn,
    uint64_t* intact_end) {
  uint64_t off = start;
  const uint64_t size = file->size();
  *intact_end = off;
  while (off + kEntryHeaderSize <= size) {
    std::string hdr;
    LSMSSD_RETURN_IF_ERROR(file->ReadAt(off, kEntryHeaderSize, &hdr));
    const auto* p = reinterpret_cast<const unsigned char*>(hdr.data());
    if (p[0] != kEntryMagic) break;
    EntryInfo info;
    info.key = GetU64(p + 1);
    info.offset = off;
    info.length = GetU32(p + 9);
    if (off + kEntryHeaderSize + info.length > size) break;
    std::string value;
    LSMSSD_RETURN_IF_ERROR(file->ReadAt(off + kEntryHeaderSize, info.length,
                                        &value));
    if (GetU32(p + 13) != EntryCrc(info.key, info.length, value)) break;
    LSMSSD_RETURN_IF_ERROR(fn(info, value));
    off += kEntryHeaderSize + info.length;
    *intact_end = off;
  }
  return Status::OK();
}

}  // namespace vlog

}  // namespace lsmssd
