#include "src/storage/wal_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace lsmssd {

StatusOr<std::unique_ptr<PosixWalFile>> PosixWalFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  struct ::stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot stat WAL " + path + ": " +
                           std::strerror(err));
  }
  return std::unique_ptr<PosixWalFile>(
      new PosixWalFile(path, fd, static_cast<uint64_t>(st.st_size)));
}

PosixWalFile::PosixWalFile(std::string path, int fd, uint64_t size)
    : path_(std::move(path)), fd_(fd), size_(size) {}

PosixWalFile::~PosixWalFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PosixWalFile::Append(std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("WAL append to " + path_ + ": " +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
    size_ += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Status PosixWalFile::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IoError("WAL fsync of " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status PosixWalFile::Truncate() {
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IoError("WAL truncate of " + path_ + ": " +
                           std::strerror(errno));
  }
  size_ = 0;
  return Sync();
}

}  // namespace lsmssd
