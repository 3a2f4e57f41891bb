#ifndef LSMSSD_STORAGE_VLOG_FILE_H_
#define LSMSSD_STORAGE_VLOG_FILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/format/key_codec.h"
#include "src/storage/fault_injection.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd {

/// Append-only value-log segment file (key–value separation, DESIGN.md
/// §11). Unlike the WAL seam, readers need this file *while it is being
/// written* — Get resolves pointers into the head segment — so the seam
/// carries ReadAt and a logical size in addition to Append/Sync. The
/// fault-injection decorator models the page cache (unsynced bytes are
/// process-local) and therefore must serve reads through its buffer,
/// which a raw path-based reader could not.
class VlogFile {
 public:
  virtual ~VlogFile() = default;

  /// Appends `data` at the logical end. Durable only after Sync().
  virtual Status Append(std::string_view data) = 0;

  /// Makes every appended byte durable.
  virtual Status Sync() = 0;

  /// Reads exactly `n` bytes at `offset` into `out` (resized). Sees
  /// appended-but-unsynced bytes. Fails with IoError on a short read.
  virtual Status ReadAt(uint64_t offset, size_t n, std::string* out) = 0;

  /// Logical size: durable bytes plus appended-but-unsynced bytes.
  virtual uint64_t size() const = 0;
};

/// VlogFile over a POSIX fd: pwrite at the tracked end, pread for
/// ReadAt, fsync for Sync. Opens read-write so one object serves the
/// writer and concurrent readers.
class PosixVlogFile : public VlogFile {
 public:
  /// Opens (creating if absent) the segment at `path`, positioned to
  /// append at its current end.
  static StatusOr<std::unique_ptr<PosixVlogFile>> Open(
      const std::string& path);

  ~PosixVlogFile() override;
  PosixVlogFile(const PosixVlogFile&) = delete;
  PosixVlogFile& operator=(const PosixVlogFile&) = delete;

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status ReadAt(uint64_t offset, size_t n, std::string* out) override;
  uint64_t size() const override {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  PosixVlogFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_;
  /// Relaxed atomic: readers only resolve pointers they read from the
  /// tree, and the tree locks already order the append before the read —
  /// the atomic just makes the concurrent unrelated-append benign.
  std::atomic<uint64_t> size_;
};

/// VlogFile decorator mirroring FaultInjectionWalFile: unsynced bytes
/// live in an in-process buffer and reach the base file only on Sync; a
/// crash during Sync tears the log, flushing a prefix of the buffered
/// bytes without the fsync. ReadAt serves the durable range from the
/// base file and the tail from the buffer, so resolving a pointer to a
/// just-written value works exactly as it would against the page cache.
///
/// Injector steps: one per Append and Sync (ReadAt takes none — reads
/// are not durable steps).
///
/// Thread-safe: the group-commit leader syncs off the commit lock while
/// other writers append, and readers resolve concurrently.
class FaultInjectionVlogFile : public VlogFile {
 public:
  /// `injector` must outlive this object.
  FaultInjectionVlogFile(std::unique_ptr<PosixVlogFile> base,
                         FaultInjector* injector)
      : base_(std::move(base)), injector_(injector),
        synced_size_(base_->size()) {}

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status ReadAt(uint64_t offset, size_t n, std::string* out) override;
  uint64_t size() const override;

 private:
  Status Dead() const {
    return Status::IoError("injected fault: vlog file is dead");
  }

  std::unique_ptr<PosixVlogFile> base_;
  FaultInjector* injector_;
  mutable std::mutex mu_;
  uint64_t synced_size_;  ///< Base-file bytes. Guarded by mu_.
  std::string buffer_;    ///< Appended but not yet synced. Guarded by mu_.
};

namespace vlog {

/// Per-entry layout, 17-byte header + value:
///   [u8 magic 0xA7][u64 LE key][u32 LE value_len]
///   [u32 LE crc32c(key bytes || len bytes || value)][value]
/// The checksum covers the key and length so a misdirected or torn
/// entry cannot masquerade as a valid one for a different record.
inline constexpr uint8_t kEntryMagic = 0xA7;
inline constexpr size_t kEntryHeaderSize = 1 + 8 + 4 + 4;

/// One decoded entry header.
struct EntryInfo {
  Key key = 0;
  uint64_t offset = 0;   ///< Of the entry header within its segment.
  uint32_t length = 0;   ///< Value bytes (entry is header + length).
};

/// Serializes one entry (header + value).
std::string EncodeEntry(Key key, std::string_view value);

/// Replaces `*out` with the serialized entry, reusing its capacity (the
/// commit path encodes every vlog Put into one buffer).
void EncodeEntry(Key key, std::string_view value, std::string* out);

/// Reads and fully verifies the entry at `offset`: magic, key match,
/// length match, crc. On success `value` holds the payload. Any
/// mismatch is `Corruption` naming the offset; reading past the file
/// end is `Corruption` too (a dangling pointer).
Status ReadEntry(VlogFile* file, uint64_t offset, Key expected_key,
                 uint32_t expected_length, std::string* value);

/// Walks entries from `start` to the logical end, verifying each
/// header and checksum and invoking `fn(info, value)`; a non-OK return
/// from `fn` aborts the scan with that status. `*intact_end` receives
/// the offset one past the last whole verified entry — when it is
/// short of file->size() the remainder is a torn or corrupt tail and
/// the caller decides whether that is legal (head segment after a
/// crash) or Corruption (sealed segment).
Status ScanEntries(
    VlogFile* file, uint64_t start,
    const std::function<Status(const EntryInfo&, const std::string&)>& fn,
    uint64_t* intact_end);

}  // namespace vlog

}  // namespace lsmssd

#endif  // LSMSSD_STORAGE_VLOG_FILE_H_
