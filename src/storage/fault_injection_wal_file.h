#ifndef LSMSSD_STORAGE_FAULT_INJECTION_WAL_FILE_H_
#define LSMSSD_STORAGE_FAULT_INJECTION_WAL_FILE_H_

#include <memory>
#include <string>

#include "src/storage/fault_injection.h"
#include "src/storage/wal_file.h"

namespace lsmssd {

/// WalFile decorator that models exactly what a crash can do to a log:
/// appended-but-unsynced bytes live in a buffer (the "page cache") and
/// reach the underlying file only on Sync, so dropping this object after
/// a trip loses them — except that a crash *during* Sync tears the log,
/// flushing only a prefix of the buffered bytes without an fsync. WAL
/// recovery must therefore tolerate a torn final batch, and a sweep over
/// crash points exercises every tear.
///
/// Injector steps: one per Append, Sync, and Truncate.
///
/// Not thread-safe, and need not be: the Db buffers WAL batches in its
/// own commit buffer (WalWriter) and issues every Append and Sync from
/// one group-commit round at a time, so Sync never runs concurrently
/// with Append.
class FaultInjectionWalFile : public WalFile {
 public:
  /// `injector` must outlive this object.
  FaultInjectionWalFile(std::unique_ptr<WalFile> base,
                        FaultInjector* injector)
      : base_(std::move(base)), injector_(injector) {}

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Truncate() override;
  uint64_t size() const override { return base_->size() + buffer_.size(); }

  /// Bytes appended since the last successful Sync (lost on a crash).
  size_t unsynced_bytes() const { return buffer_.size(); }

 private:
  Status Dead() const {
    return Status::IoError("injected fault: WAL file is dead");
  }

  std::unique_ptr<WalFile> base_;
  FaultInjector* injector_;
  std::string buffer_;  ///< Appended but not yet synced.
};

}  // namespace lsmssd

#endif  // LSMSSD_STORAGE_FAULT_INJECTION_WAL_FILE_H_
