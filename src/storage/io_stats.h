#ifndef LSMSSD_STORAGE_IO_STATS_H_
#define LSMSSD_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace lsmssd {

/// Precise device-level I/O accounting. The paper's primary performance
/// metric is the number of data-block writes, instrumented in code and
/// independent of the platform (Section V, "Metrics of comparison"); this
/// struct is that instrument. One IoStats instance is owned by each block
/// device; the LSM layer additionally keeps per-level write counters that
/// tests cross-check against these totals.
///
/// Beyond the paper's write metric, the read path records where each
/// lookup was answered: a physical block read, a buffer-cache hit, or a
/// Bloom-filter negative that skipped the block entirely. Benches report
/// these to break down read cost; none of them affect write counts.
///
/// Counters are relaxed atomics so concurrent readers (Db::Get under a
/// shared lock) may record reads/hits while a writer merges. Relaxed
/// ordering is sufficient: each counter is an independent monotonic tally,
/// never used to synchronize other memory. Single-threaded counts are
/// bit-identical to the plain-integer implementation.
class IoStats {
 public:
  IoStats() = default;
  /// Copyable (Db::Stats() returns a snapshot by value). The copy is a
  /// per-counter relaxed snapshot, not an atomic snapshot of the whole
  /// struct — fine for statistics.
  IoStats(const IoStats& other) { CopyFrom(other); }
  IoStats& operator=(const IoStats& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  void RecordWrite() { Bump(block_writes_); }
  void RecordRead() { Bump(block_reads_); }
  void RecordCachedRead() { Bump(cached_reads_); }
  void RecordFree() { Bump(block_frees_); }
  void RecordAllocate() { Bump(block_allocs_); }
  void RecordCacheHit() { Bump(cache_hits_); }
  void RecordCacheMiss() { Bump(cache_misses_); }
  void RecordBloomSkip() { Bump(bloom_skips_); }

  /// Syscall/batch accounting for the vectored I/O path. A batch counter
  /// ticks once per WriteBlocks/ReadBlocks call that covered more than one
  /// block; the batched-blocks counters tally the blocks those calls moved.
  /// Syscall counters tick once per physical pwrite/pwritev/pread/preadv a
  /// file-backed device issues for block payloads (CRC sidecar writes ride
  /// along and are counted too). Purely-in-memory devices leave them zero.
  /// None of these touch the paper's block-write metric.
  void RecordWriteSyscall() { Bump(write_syscalls_); }
  void RecordReadSyscall() { Bump(read_syscalls_); }
  void RecordBatchWrite(uint64_t blocks) {
    batch_writes_.fetch_add(1, std::memory_order_relaxed);
    batched_blocks_written_.fetch_add(blocks, std::memory_order_relaxed);
  }
  void RecordBatchRead(uint64_t blocks) {
    batch_reads_.fetch_add(1, std::memory_order_relaxed);
    batched_blocks_read_.fetch_add(blocks, std::memory_order_relaxed);
  }

  uint64_t block_writes() const { return Load(block_writes_); }
  uint64_t block_reads() const { return Load(block_reads_); }
  uint64_t cached_reads() const { return Load(cached_reads_); }
  uint64_t block_frees() const { return Load(block_frees_); }
  uint64_t block_allocs() const { return Load(block_allocs_); }
  uint64_t cache_hits() const { return Load(cache_hits_); }
  uint64_t cache_misses() const { return Load(cache_misses_); }
  uint64_t bloom_skips() const { return Load(bloom_skips_); }
  uint64_t write_syscalls() const { return Load(write_syscalls_); }
  uint64_t read_syscalls() const { return Load(read_syscalls_); }
  uint64_t batch_writes() const { return Load(batch_writes_); }
  uint64_t batched_blocks_written() const {
    return Load(batched_blocks_written_);
  }
  uint64_t batch_reads() const { return Load(batch_reads_); }
  uint64_t batched_blocks_read() const { return Load(batched_blocks_read_); }

  /// Copies `other`'s syscall/batch counters into this snapshot,
  /// overwriting them. Decorator stacks keep one IoStats per layer and
  /// only the file-backed base device issues syscalls, so a snapshot of
  /// the stack's outer view (logical writes/reads/cache) overlays the
  /// base's counters to present one complete account.
  void OverlaySyscallCounters(const IoStats& other);

  /// Adds every counter of `other` into this snapshot. Used by the Db
  /// router to aggregate per-engine device accounting into one view;
  /// like CopyFrom, the result is a per-counter relaxed sum, not an atomic
  /// snapshot across counters.
  void MergeFrom(const IoStats& other);

  void Reset();

  /// "writes=... reads=... cached_reads=... allocs=... frees=..." plus
  /// "cache_hits=... cache_misses=... bloom_skips=..." when any is
  /// non-zero (devices without a cache keep the paper-era format), plus
  /// "write_syscalls=... read_syscalls=... batch_writes=... ..." when any
  /// syscall/batch counter is non-zero (in-memory devices and single-block
  /// workloads keep the historical format).
  std::string ToString() const;

 private:
  static void Bump(std::atomic<uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  }
  static uint64_t Load(const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  }
  void CopyFrom(const IoStats& other);

  std::atomic<uint64_t> block_writes_{0};
  std::atomic<uint64_t> block_reads_{0};
  std::atomic<uint64_t> cached_reads_{0};
  std::atomic<uint64_t> block_frees_{0};
  std::atomic<uint64_t> block_allocs_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> bloom_skips_{0};
  std::atomic<uint64_t> write_syscalls_{0};
  std::atomic<uint64_t> read_syscalls_{0};
  std::atomic<uint64_t> batch_writes_{0};
  std::atomic<uint64_t> batched_blocks_written_{0};
  std::atomic<uint64_t> batch_reads_{0};
  std::atomic<uint64_t> batched_blocks_read_{0};
};

}  // namespace lsmssd

#endif  // LSMSSD_STORAGE_IO_STATS_H_
