#ifndef LSMSSD_LSM_WAL_H_
#define LSMSSD_LSM_WAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
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
///     WalReader::ForEachBatch() in order.
///
/// On-disk format (v2). A log is an 8-byte file header followed by
/// batches, one per group-commit write:
///
///   file   = header batch*
///   header = "LSMWAL" [u16 LE version = 2]
///   batch  = [u32 LE body length][u32 LE CRC32C(length bytes || body)]
///            body
///   body   = entry+
///   entry  = [u8 tag][key: width bytes, big-endian]
///            [varint payload length][payload]
///   tag    = (type << 4) | width; type 0 = Put, 1 = Delete; width =
///            bytes of the key with leading zero bytes dropped (0..8)
///
/// So a Put of a 4-byte key and a 40-byte payload logs 46 bytes, plus a
/// share of its batch's 8-byte header. A batch replays whole or not at
/// all: a crash that tears the last write loses that batch (entries that
/// no sync had acknowledged) and keeps every batch before it. A bad batch
/// followed by a valid one is not a tear but corruption of possibly
/// synced data, and replay refuses it. A non-empty log without the v2
/// header (the older per-entry format, which framed and checksummed each
/// entry on its own) is refused as Corruption too, never dropped or
/// truncated; no reader for that format is kept, so such a log must be
/// replayed by the version that wrote it.
///
/// Entries carry no sequence numbers: replaying a WAL tail on top of a
/// manifest that already includes some of its entries is safe because
/// all modifications are blind writes (re-applying an in-order suffix of
/// the history reproduces the same final state).
class WalWriter {
 public:
  /// Bound on the commit buffer: Append writes the buffered batch to
  /// the file once it reaches this many bytes, so a writer that never
  /// syncs (the Db's kNone mode) holds at most this much in memory.
  static constexpr size_t kMaxPendingBytes = size_t{64} << 10;

  /// Opens (creating or appending to) the log at `path`.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& path);

  /// Writes the log onto an externally constructed log file (used to
  /// interpose FaultInjectionWalFile in crash tests). An empty file gets
  /// the file header with its first batch.
  static std::unique_ptr<WalWriter> Wrap(std::unique_ptr<WalFile> file);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one logged modification (Put carries the payload; Delete an
  /// empty one): encodes it into the commit buffer, and writes the buffer
  /// to the file once it holds kMaxPendingBytes. A buffered entry reaches
  /// the file at the next Sync (or bound); it is durable only after the
  /// next successful Sync().
  Status Append(const Record& record);

  /// Encodes one modification into the commit buffer's open batch,
  /// opening one (and reserving its header, plus the file header when
  /// the file is empty) if none is open. No I/O, no checksum.
  void Buffer(RecordType type, Key key, std::string_view payload);

  /// Writes the commit buffer to the file, then fsyncs: every appended
  /// entry is durable on success.
  Status Sync();

  /// Drops the commit buffer and empties the log (after a successful
  /// checkpoint). The next batch starts a new file header.
  Status Truncate();

  /// Group commit in two halves, for a caller that buffers under its own
  /// lock and writes with it released (Engine's sync leader):
  /// SealBatch() moves the commit buffer's open batch into the write
  /// buffer and leaves an empty commit buffer; WriteBatch() then fills in
  /// the batch header (length and CRC32C) and writes it with one write
  /// (and fsyncs when `sync`). Buffer() may run
  /// concurrently with WriteBatch(): they touch different buffers. The
  /// caller serializes SealBatch/WriteBatch pairs, and SealBatch requires
  /// the previous batch written. Both buffers keep their capacity.
  void SealBatch();
  Status WriteBatch(bool sync);

  /// Bytes in the commit buffer (not yet written to the file).
  size_t pending_bytes() const { return pending_.size(); }

  /// Entries appended since this writer was opened.
  uint64_t entries_appended() const { return entries_appended_; }
  /// Bytes appended (buffered or written) since this writer was opened:
  /// entries, batch headers and file headers, i.e. every byte this writer
  /// puts in the file (drives Db's checkpoint-by-WAL-size threshold).
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  static constexpr size_t kNoBatch = ~size_t{0};

  explicit WalWriter(std::unique_ptr<WalFile> file);

  std::unique_ptr<WalFile> file_;
  std::string pending_;  ///< Commit buffer: encoded, not yet written.
  std::string batch_;    ///< Sealed batch being written by WriteBatch.
  /// Offset of the open batch's header in pending_ (kNoBatch: none).
  size_t open_batch_ = kNoBatch;
  /// Offset of the sealed batch's header in batch_ (kNoBatch: none).
  size_t sealed_batch_ = kNoBatch;
  /// The file is empty and no file header is buffered yet.
  bool needs_file_header_ = false;
  uint64_t entries_appended_ = 0;
  uint64_t bytes_appended_ = 0;
};

/// Reads a WAL back; tolerant of a torn tail.
class WalReader {
 public:
  /// Called once per whole, checksum-valid batch, in append order, with
  /// the byte offset of the batch's header and its entries, in a buffer
  /// the reader reuses for the next batch (the visitor may move them
  /// out). A non-OK return stops the read with it.
  using BatchFn =
      std::function<Status(size_t offset, std::vector<Record>& batch)>;

  /// Visits the batches of the log at `path`, holding the file bytes and
  /// one decoded batch at a time. A missing or empty file, or one holding
  /// a prefix of the file header (a crash during the first write), visits
  /// nothing. A bad batch at the end of the log is the expected tear from
  /// a crash mid-write and is dropped whole; a bad batch *followed by* a
  /// valid one is mid-file corruption of possibly-synced data and yields
  /// `Corruption` (after the batches before it were visited). A log
  /// without the v2 file header yields `Corruption` (see CheckHeader).
  /// `valid_bytes`, when non-null, receives the byte length of the intact
  /// prefix (file header plus whole batches): recovery truncates the file
  /// to it, or new batches would land unreachable behind the torn tail.
  static Status ForEachBatch(const std::string& path, const BatchFn& fn,
                             size_t* valid_bytes = nullptr);

  /// The entries of every batch ForEachBatch visits, in append order.
  static StatusOr<std::vector<Record>> ReadAll(const std::string& path,
                                               size_t* valid_bytes = nullptr);

  /// Checks only the file header: OK for a missing or empty log, a v2
  /// log, or a prefix of the v2 header; `Corruption` naming the format
  /// for anything else. Reads at most the first 8 bytes, so recovery can
  /// refuse an old-format log before it touches any file.
  static Status CheckHeader(const std::string& path);
};

}  // namespace lsmssd

#endif  // LSMSSD_LSM_WAL_H_
