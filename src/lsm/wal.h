#ifndef LSMSSD_LSM_WAL_H_
#define LSMSSD_LSM_WAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/format/record.h"
#include "src/storage/wal_file.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd {

/// Write-ahead log for the memory-resident L0. LSM's durability gap is
/// exactly L0 (everything else lives on the block device); the paper
/// treats recovery as out of scope, so this is the standard complement: a
/// checkpoint (Manifest) plus a WAL of the modifications since.
///
/// Protocol (run automatically by lsmssd::Db, src/db/db.h):
///   * append every Put/Delete to the WAL before applying it (into the
///     commit buffer; a sync writes the whole buffer with one write);
///   * on checkpoint: Sync() (the durable log must cover every entry the
///     manifest includes), SaveManifestToFile(tree, ...), then
///     Truncate();
///   * on restart: LsmTree::Restore(manifest, ...), then replay
///     WalReader::ReadAll() in order.
///
/// Entry framing: [u32 LE length][u32 LE FNV-1a of payload][payload],
/// payload = [u8 type][u64 LE key][payload bytes]. A torn final entry
/// (crash mid-append) is detected and dropped; anything after it is
/// ignored. Entries carry no sequence numbers: replaying a WAL tail on
/// top of a manifest that already includes some of its entries is safe
/// because all modifications are blind writes (re-applying an in-order
/// suffix of the history reproduces the same final state).
class WalWriter {
 public:
  /// Bound on the commit buffer: Append writes the buffered frames to
  /// the file once they reach this many bytes, so a writer that never
  /// syncs (the Db's kNone mode) holds at most this much in memory.
  static constexpr size_t kMaxPendingBytes = size_t{64} << 10;

  /// Opens (creating or appending to) the log at `path`.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& path);

  /// Frames entries onto an externally constructed log file (used to
  /// interpose FaultInjectionWalFile in crash tests).
  static std::unique_ptr<WalWriter> Wrap(std::unique_ptr<WalFile> file);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one logged modification (Put carries the payload; Delete an
  /// empty one): frames it into the commit buffer, and writes the buffer
  /// to the file once it holds kMaxPendingBytes. A buffered entry reaches
  /// the file at the next Sync (or bound); it is durable only after the
  /// next successful Sync().
  Status Append(const Record& record);

  /// Frames one modification into the commit buffer. No I/O.
  void Buffer(RecordType type, Key key, std::string_view payload);

  /// Writes the commit buffer to the file, then fsyncs: every appended
  /// entry is durable on success.
  Status Sync();

  /// Drops the commit buffer and empties the log (after a successful
  /// checkpoint).
  Status Truncate();

  /// Group commit in two halves, for a caller that buffers under its own
  /// lock and writes with it released (Engine's sync leader):
  /// SealBatch() moves the commit buffer's frames into the write batch
  /// and leaves an empty commit buffer; WriteBatch() then writes the
  /// batch with one write (and fsyncs when `sync`). Buffer() may run
  /// concurrently with WriteBatch(): they touch different buffers. The
  /// caller serializes SealBatch/WriteBatch pairs, and SealBatch requires
  /// the previous batch written. Both buffers keep their capacity.
  void SealBatch();
  Status WriteBatch(bool sync);

  /// Framed bytes in the commit buffer (not yet written to the file).
  size_t pending_bytes() const { return pending_.size(); }

  /// Entries appended since this writer was opened.
  uint64_t entries_appended() const { return entries_appended_; }
  /// Framed bytes appended (buffered or written) since this writer was
  /// opened (drives Db's checkpoint-by-WAL-size threshold).
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  explicit WalWriter(std::unique_ptr<WalFile> file);

  std::unique_ptr<WalFile> file_;
  std::string pending_;  ///< Commit buffer: framed, not yet written.
  std::string batch_;    ///< Sealed frames being written by WriteBatch.
  uint64_t entries_appended_ = 0;
  uint64_t bytes_appended_ = 0;
};

/// Reads a WAL back; tolerant of a torn tail.
class WalReader {
 public:
  /// Returns all complete entries in append order. A missing file yields
  /// an empty vector (nothing to replay). A bad frame at the end of the
  /// log is the expected tear from a crash mid-append and is dropped; a
  /// bad frame *followed by* well-formed entries is mid-file corruption
  /// of possibly-synced data and yields `Corruption` instead of silently
  /// discarding the entries behind it. When `valid_bytes` is non-null
  /// it receives the byte length of the intact prefix — recovery must
  /// truncate the file to it before appending new entries, or they would
  /// land unreachable behind the torn tail. When `entry_offsets` is
  /// non-null it receives the frame-start byte offset of each returned
  /// entry — vlog recovery truncates the log at the first entry whose
  /// value pointer exceeds the durable vlog frontier (DESIGN.md §11).
  static StatusOr<std::vector<Record>> ReadAll(
      const std::string& path, size_t* valid_bytes = nullptr,
      std::vector<size_t>* entry_offsets = nullptr);
};

}  // namespace lsmssd

#endif  // LSMSSD_LSM_WAL_H_
