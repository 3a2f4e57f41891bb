#ifndef LSMSSD_STORAGE_WAL_FILE_H_
#define LSMSSD_STORAGE_WAL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd {

/// Append-only log file abstraction: the seam between the WAL framing
/// layer (src/lsm/wal.h) and the bytes-on-disk layer, so tests can
/// interpose a fault-injecting implementation that loses or tears
/// unsynced data exactly like a crash would.
class WalFile {
 public:
  virtual ~WalFile() = default;

  /// Appends `data` at the end of the log. An entry is only guaranteed
  /// durable after a subsequent successful Sync().
  virtual Status Append(std::string_view data) = 0;

  /// Makes every previously appended byte durable (fsync).
  virtual Status Sync() = 0;

  /// Empties the log (after a successful checkpoint) and syncs.
  virtual Status Truncate() = 0;

  /// Bytes in the log, synced or not (the WAL writes its file header
  /// into an empty log).
  virtual uint64_t size() const = 0;
};

/// Production WalFile: unbuffered positional appends to a plain file via a
/// raw fd, fsync on Sync, ftruncate on Truncate. Opens in append mode so a
/// reopened log keeps its existing entries.
class PosixWalFile : public WalFile {
 public:
  static StatusOr<std::unique_ptr<PosixWalFile>> Open(
      const std::string& path);
  ~PosixWalFile() override;

  PosixWalFile(const PosixWalFile&) = delete;
  PosixWalFile& operator=(const PosixWalFile&) = delete;

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Truncate() override;
  uint64_t size() const override { return size_; }

  const std::string& path() const { return path_; }

 private:
  PosixWalFile(std::string path, int fd, uint64_t size);

  std::string path_;
  int fd_;
  uint64_t size_;
};

}  // namespace lsmssd

#endif  // LSMSSD_STORAGE_WAL_FILE_H_
