#include "src/storage/fault_injection_wal_file.h"

namespace lsmssd {

Status FaultInjectionWalFile::Append(std::string_view data) {
  if (injector_->tripped()) return Dead();
  if (injector_->Step()) {
    // Crash during append: the bytes never left the process.
    return Status::IoError("injected fault: WAL append");
  }
  buffer_.append(data);
  return Status::OK();
}

Status FaultInjectionWalFile::Sync() {
  if (injector_->tripped()) return Dead();
  if (injector_->Step()) {
    // Crash during sync: a prefix of the unsynced bytes reaches the file
    // (torn final entry), but the fsync never happens.
    if (!buffer_.empty()) {
      (void)base_->Append(
          std::string_view(buffer_).substr(0, buffer_.size() / 2 + 1));
    }
    return Status::IoError("injected fault: torn WAL sync");
  }
  if (!buffer_.empty()) {
    LSMSSD_RETURN_IF_ERROR(base_->Append(buffer_));
    buffer_.clear();
  }
  return base_->Sync();
}

Status FaultInjectionWalFile::Truncate() {
  if (injector_->tripped()) return Dead();
  if (injector_->Step()) {
    return Status::IoError("injected fault: WAL truncate");
  }
  buffer_.clear();
  return base_->Truncate();
}

}  // namespace lsmssd
