#ifndef LSMSSD_DB_VALUE_LOG_H_
#define LSMSSD_DB_VALUE_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/format/record.h"
#include "src/lsm/manifest.h"
#include "src/storage/vlog_file.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace lsmssd {

struct DbOptions;
struct DbStats;

/// One engine's value log (key–value separation, DESIGN.md §11): the
/// `vlog-<n>` segments of its directory, from the manifest-published tail
/// to the head being appended, and the only code that opens, rolls,
/// truncates, reads or unlinks one. Methods marked "Writer" require the
/// caller's writer lock (Engine's db_mu_), which guards the head, the
/// tails and the counters; the reader map and the quarantine set sit
/// under the leaf vlog_mu_, so Resolve needs no writer lock.
///
/// Recovery: Open, then AdmitReplayedBatch for every WAL batch in log
/// order, then FinishRecovery; only then may the other methods run.
class ValueLog {
 public:
  /// Adopts the manifest frontier `state` (zeros for a fresh directory),
  /// unlinks segments below its tail (a crash between publishing that
  /// tail and the unlink), and fails with Corruption when the head is
  /// shorter than the manifest's head_offset. `payload_size` is the
  /// tree's value size, for the GC trigger's live-byte floor.
  static StatusOr<std::unique_ptr<ValueLog>> Open(
      const std::string& dir, const DbOptions& dbopts, size_t payload_size,
      const VlogManifestState& state);

  ValueLog(const ValueLog&) = delete;
  ValueLog& operator=(const ValueLog&) = delete;

  /// False when a pointer in `batch` ends past the durable bytes of its
  /// segment (the WAL fsync outran the vlog bytes): the batch must not
  /// replay. Otherwise extends the replayed frontier and returns true.
  /// Pointers below the tail never dangle: GC rewrote those keys later.
  bool AdmitReplayedBatch(const std::vector<Record>& batch);

  /// Truncates the head to the replayed frontier and opens every segment
  /// in [tail, head].
  Status FinishRecovery();

  /// Writer: appends `value` to the head (rolling it first once it holds
  /// vlog_segment_bytes) and writes the pointer the WAL and tree carry
  /// to `pointer[0, kVlogPointerSize)`. Any error is a durability failure.
  Status Append(Key key, std::string_view value, char* pointer);

  /// Writer: the head segment, which every WAL sync round syncs first.
  VlogFile* head() const { return head_; }

  /// Resolves a stored pointer to the user value. A checksum or shape
  /// mismatch quarantines the entry (later reads fail fast) and returns
  /// Corruption naming it.
  Status Resolve(std::string_view stored, Key key, std::string* out) const;

  /// Writer: the auto-GC trigger. True when a sealed segment exists and
  /// the log's dead fraction reaches vlog_gc_ratio, with live_records()
  /// entries as the live floor (every live key stores exactly one);
  /// live_records runs only when there are bytes to judge.
  bool GcWanted(const std::function<uint64_t()>& live_records) const;

  /// GC's per-entry callback: re-Puts (key, value) when the tree still
  /// stores `pointer` for the key, and says whether it did.
  using Rewrite = std::function<StatusOr<bool>(
      Key key, const std::string& value, std::string_view pointer)>;

  /// Writer: GC of the oldest uncollected sealed segment: scans it with
  /// `lk` (the writer lock) released, hands every entry to `rewrite`,
  /// then advances the pending tail over it. Refuses (Corruption) a
  /// segment with unreadable bytes. Unlinks nothing.
  Status CollectOldest(std::unique_lock<std::mutex>& lk,
                       const Rewrite& rewrite);

  /// Writer: once a manifest publishing `tail` is durable, unlinks the
  /// segments below it with their readers and quarantined entries. A
  /// no-op unless `tail` passes the current tail.
  Status DropBelow(uint64_t tail);

  /// Writer: the frontier the next manifest records (the pending tail).
  VlogManifestState ManifestState() const {
    return {head_file_, head_offset_, pending_tail_};
  }
  uint64_t head_file() const { return head_file_; }
  uint64_t tail_file() const { return tail_file_; }
  uint64_t pending_tail() const { return pending_tail_; }

  /// Writer: fills the vlog_* fields of `s`.
  void AddStats(DbStats* s) const;

 private:
  ValueLog(const std::string& dir, const DbOptions& dbopts,
           size_t payload_size);

  std::string SegmentPath(uint64_t n) const;

  /// Opens segment `n`, through the fault injector when `writable`.
  StatusOr<std::shared_ptr<VlogFile>> OpenSegment(uint64_t n,
                                                  bool writable) const;

  const std::string dir_;
  const uint64_t segment_bytes_;
  const double gc_ratio_;
  const uint64_t entry_bytes_;  ///< Header + payload_size.
  FaultInjector* const injector_;

  // Recovery state (Open to FinishRecovery).
  std::map<uint64_t, uint64_t> durable_sizes_;  ///< Per segment, at Open.
  /// Referenced end per segment: the manifest's, then replayed pointers'.
  std::map<uint64_t, uint64_t> frontier_;

  // Writer state (under the caller's writer lock).
  uint64_t head_file_ = 0;     ///< Segment being appended.
  uint64_t head_offset_ = 0;   ///< Append end within the head.
  uint64_t tail_file_ = 0;     ///< Manifest-published tail.
  uint64_t pending_tail_ = 0;  ///< GC-advanced, awaiting publish.
  VlogFile* head_ = nullptr;   ///< Borrowed from files_.
  std::string entry_;          ///< Reused entry encode buffer.
  uint64_t bytes_appended_ = 0;
  uint64_t gc_rewrites_ = 0;
  uint64_t segments_reclaimed_ = 0;

  mutable std::mutex vlog_mu_;  ///< Leaf lock (never held acquiring others).
  /// Every open segment in [tail, head], shared so a reader holding one
  /// across an unlink keeps a valid fd.
  std::map<uint64_t, std::shared_ptr<VlogFile>> files_;
  /// (segment, offset) of entries that failed verification.
  mutable std::set<std::pair<uint64_t, uint64_t>> quarantine_;
  mutable std::atomic<uint64_t> quarantined_entries_{0};
};

}  // namespace lsmssd

#endif  // LSMSSD_DB_VALUE_LOG_H_
