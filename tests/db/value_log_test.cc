// ValueLog without a Db (DESIGN.md §11): the recovery frontier (the
// dangling-suffix rule, head truncation to the replayed frontier,
// below-tail unlinks, the manifest-frontier check), the GC trigger at
// its edges, GC's refusal of a damaged segment, and entry quarantine.

#include "src/db/value_log.h"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/db/db.h"
#include "src/format/vlog_pointer.h"

namespace lsmssd {
namespace {

constexpr size_t kPayload = 20;
constexpr uint64_t kEntry = vlog::kEntryHeaderSize + kPayload;

std::string FreshDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "/vlog_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string Value(Key key) {
  return std::string(kPayload, static_cast<char>('a' + key % 26));
}

/// Open + FinishRecovery with no WAL batch replayed.
std::unique_ptr<ValueLog> OpenLog(const std::string& dir,
                                  const DbOptions& dbopts,
                                  const VlogManifestState& state = {}) {
  auto log_or = ValueLog::Open(dir, dbopts, kPayload, state);
  EXPECT_TRUE(log_or.ok()) << log_or.status().ToString();
  if (!log_or.ok()) return nullptr;
  Status st = log_or.value()->FinishRecovery();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return std::move(log_or).value();
}

std::string Append(ValueLog& log, Key key) {
  char pointer[kVlogPointerSize];
  Status st = log.Append(key, Value(key), pointer);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return std::string(pointer, kVlogPointerSize);
}

VlogPointer Decode(const std::string& stored) {
  VlogPointer ptr;
  EXPECT_TRUE(DecodeVlogPointer(stored, &ptr));
  return ptr;
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x40));
}

TEST(ValueLogTest, DanglingBatchIsRefusedAndHeadCutToReplayedFrontier) {
  const std::string dir = FreshDir("dangle");
  const DbOptions dbopts;
  std::vector<std::string> ptrs;
  {
    auto log = OpenLog(dir, dbopts);
    ASSERT_NE(log, nullptr);
    for (Key k = 1; k <= 3; ++k) ptrs.push_back(Append(*log, k));
    ASSERT_TRUE(log->head()->Sync().ok());
  }
  // Lose the last byte of key 3's entry, as a crash between the WAL sync
  // and the vlog bytes reaching the disk would.
  const std::string head = Db::VlogSegmentPath(dir, 0);
  ASSERT_EQ(::truncate(head.c_str(), static_cast<off_t>(3 * kEntry - 1)), 0);

  auto log_or = ValueLog::Open(dir, dbopts, kPayload, {});
  ASSERT_TRUE(log_or.ok()) << log_or.status().ToString();
  ValueLog& log = *log_or.value();
  EXPECT_TRUE(log.AdmitReplayedBatch({Record::Put(1, ptrs[0])}));
  EXPECT_TRUE(log.AdmitReplayedBatch({Record::Tombstone(9)}));
  // Key 2's entry is intact, but its batch also holds key 3's dangling
  // pointer: the batch is refused whole and adds nothing to the frontier.
  EXPECT_FALSE(log.AdmitReplayedBatch(
      {Record::Put(2, ptrs[1]), Record::Put(3, ptrs[2])}));
  // A payload that is not a pointer dangles too.
  EXPECT_FALSE(log.AdmitReplayedBatch({Record::Put(4, "short")}));
  ASSERT_TRUE(log.FinishRecovery().ok());

  // Truncated to batch 1's frontier: key 2's orphan entry is gone too.
  EXPECT_EQ(std::filesystem::file_size(head), kEntry);
  std::string value;
  ASSERT_TRUE(log.Resolve(ptrs[0], 1, &value).ok());
  EXPECT_EQ(value, Value(1));
  EXPECT_TRUE(log.Resolve(ptrs[1], 2, &value).IsCorruption());
  // The writer continues right behind the frontier.
  EXPECT_EQ(Decode(Append(log, 5)).offset, kEntry);
  EXPECT_EQ(log.ManifestState().head_offset, 2 * kEntry);
}

TEST(ValueLogTest, RecoveryUnlinksSegmentsBelowTheManifestTail) {
  const std::string dir = FreshDir("tail");
  DbOptions dbopts;
  dbopts.vlog_segment_bytes = kEntry;  // One entry per segment.
  std::vector<std::string> ptrs;
  {
    auto log = OpenLog(dir, dbopts);
    ASSERT_NE(log, nullptr);
    for (Key k = 1; k <= 3; ++k) ptrs.push_back(Append(*log, k));
    ASSERT_TRUE(log->head()->Sync().ok());
  }
  ASSERT_EQ(Db::ListVlogSegments(dir), (std::vector<uint64_t>{0, 1, 2}));

  // A manifest published tail 2, and the crash came before the unlinks.
  const VlogManifestState state{/*head_file=*/2, /*head_offset=*/kEntry,
                                /*tail_file=*/2};
  auto log_or = ValueLog::Open(dir, dbopts, kPayload, state);
  ASSERT_TRUE(log_or.ok()) << log_or.status().ToString();
  EXPECT_EQ(Db::ListVlogSegments(dir), (std::vector<uint64_t>{2}));
  ValueLog& log = *log_or.value();
  // A pointer below the tail is stale, not dangling: GC rewrote its key
  // later in the log.
  EXPECT_TRUE(log.AdmitReplayedBatch({Record::Put(1, ptrs[0])}));
  ASSERT_TRUE(log.FinishRecovery().ok());
  std::string value;
  ASSERT_TRUE(log.Resolve(ptrs[2], 3, &value).ok());
  EXPECT_EQ(value, Value(3));
  DbStats stats;
  log.AddStats(&stats);
  EXPECT_EQ(stats.vlog_segments, 1u);
}

TEST(ValueLogTest, HeadShorterThanTheManifestFrontierIsCorruption) {
  const std::string dir = FreshDir("short");
  const DbOptions dbopts;
  {
    auto log = OpenLog(dir, dbopts);
    ASSERT_NE(log, nullptr);
    Append(*log, 1);
    ASSERT_TRUE(log->head()->Sync().ok());
  }
  // The manifest references one byte past the head's durable end.
  auto log_or = ValueLog::Open(dir, dbopts, kPayload, {0, kEntry + 1, 0});
  EXPECT_TRUE(log_or.status().IsCorruption()) << log_or.status().ToString();
  // A manifest head segment that does not exist at all.
  log_or = ValueLog::Open(dir, dbopts, kPayload, {5, 10, 0});
  EXPECT_TRUE(log_or.status().IsCorruption()) << log_or.status().ToString();
  // At the frontier exactly, recovery proceeds.
  EXPECT_TRUE(ValueLog::Open(dir, dbopts, kPayload, {0, kEntry, 0}).ok());
}

TEST(ValueLogTest, GcTriggerEdges) {
  const std::string dir = FreshDir("trigger");
  DbOptions dbopts;
  dbopts.vlog_segment_bytes = 2 * kEntry;  // Roll after two entries.
  dbopts.vlog_gc_ratio = 0.5;
  int probes = 0;
  auto live = [&probes](uint64_t records) {
    return [&probes, records] {
      ++probes;
      return records;
    };
  };
  {
    auto log = OpenLog(dir, dbopts);
    ASSERT_NE(log, nullptr);
    // Head only: nothing sealed to collect, however dead the head is.
    EXPECT_FALSE(log->GcWanted(live(0)));
    Append(*log, 1);
    Append(*log, 2);
    EXPECT_FALSE(log->GcWanted(live(0)));
    EXPECT_EQ(probes, 0);
    Append(*log, 3);  // Rolls: segment 0 holds 2 entries, the head 1.
    Append(*log, 4);
    // 4 entries, 2 live: the dead fraction is exactly the ratio.
    EXPECT_TRUE(log->GcWanted(live(2)));
    EXPECT_FALSE(log->GcWanted(live(3)));
    EXPECT_FALSE(log->GcWanted(live(4)));
    EXPECT_FALSE(log->GcWanted(live(100)));  // Live floor above the total.
    ASSERT_TRUE(log->head()->Sync().ok());
  }
  // Just under the ratio: the same 2-of-4 dead fraction no longer fires.
  dbopts.vlog_gc_ratio = std::nextafter(0.5, 1.0);
  auto log = OpenLog(dir, dbopts, {1, 2 * kEntry, 0});
  ASSERT_NE(log, nullptr);
  EXPECT_FALSE(log->GcWanted(live(2)));
  EXPECT_TRUE(log->GcWanted(live(1)));

  // Zero bytes: a sealed segment and a head, both empty.
  const std::string empty = FreshDir("trigger_empty");
  std::ofstream(Db::VlogSegmentPath(empty, 0)).close();
  std::ofstream(Db::VlogSegmentPath(empty, 1)).close();
  auto empty_log = OpenLog(empty, dbopts, {1, 0, 0});
  ASSERT_NE(empty_log, nullptr);
  probes = 0;
  EXPECT_FALSE(empty_log->GcWanted(live(0)));
  EXPECT_EQ(probes, 0);
}

TEST(ValueLogTest, CollectOldestRewritesLiveEntriesAndRefusesDamage) {
  const std::string dir = FreshDir("collect");
  DbOptions dbopts;
  dbopts.vlog_segment_bytes = 2 * kEntry;
  auto log = OpenLog(dir, dbopts);
  ASSERT_NE(log, nullptr);
  const std::string p1 = Append(*log, 1);
  Append(*log, 2);
  Append(*log, 3);  // Head is segment 1.
  std::mutex mu;
  std::unique_lock<std::mutex> lk(mu);
  std::vector<Key> seen;
  Status st = log->CollectOldest(
      lk, [&](Key key, const std::string& value,
              std::string_view pointer) -> StatusOr<bool> {
        EXPECT_FALSE(lk.owns_lock());  // The scan runs off the lock.
        EXPECT_EQ(value, Value(key));
        seen.push_back(key);
        if (pointer != p1) return false;  // Only key 1 is live.
        char moved[kVlogPointerSize];
        LSMSSD_RETURN_IF_ERROR(log->Append(key, value, moved));
        return true;
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(lk.owns_lock());
  EXPECT_EQ(seen, (std::vector<Key>{1, 2}));
  EXPECT_EQ(log->pending_tail(), 1u);
  EXPECT_EQ(log->tail_file(), 0u);  // Published only by DropBelow.
  EXPECT_EQ(log->ManifestState().tail_file, 1u);
  DbStats stats;
  log->AddStats(&stats);
  EXPECT_EQ(stats.vlog_gc_rewrites, 1u);

  // A sealed segment with unreadable bytes is never collected.
  Append(*log, 4);  // Rolls: segment 1 is sealed.
  FlipByte(Db::VlogSegmentPath(dir, 1), vlog::kEntryHeaderSize + 3);
  st = log->CollectOldest(
      lk, [](Key, const std::string&, std::string_view) -> StatusOr<bool> {
        return false;
      });
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(log->pending_tail(), 1u);
}

TEST(ValueLogTest, QuarantineFailsFastUntilDropBelowReclaimsTheSegment) {
  const std::string dir = FreshDir("quarantine");
  DbOptions dbopts;
  dbopts.vlog_segment_bytes = kEntry;  // One entry per segment.
  auto log = OpenLog(dir, dbopts);
  ASSERT_NE(log, nullptr);
  const std::string p1 = Append(*log, 1);
  const std::string p2 = Append(*log, 2);  // Rolls: segment 0 is sealed.
  const std::string seg0 = Db::VlogSegmentPath(dir, 0);

  std::string value;
  FlipByte(seg0, vlog::kEntryHeaderSize + 3);
  Status st = log->Resolve(p1, 1, &value);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // Repair the byte: the entry keeps failing fast, unread.
  FlipByte(seg0, vlog::kEntryHeaderSize + 3);
  st = log->Resolve(p1, 1, &value);
  EXPECT_NE(st.message().find("quarantined"), std::string::npos)
      << st.ToString();
  // Other entries are untouched.
  ASSERT_TRUE(log->Resolve(p2, 2, &value).ok());
  EXPECT_EQ(value, Value(2));
  DbStats stats;
  log->AddStats(&stats);
  EXPECT_EQ(stats.vlog_quarantined_entries, 1u);

  ASSERT_TRUE(log->DropBelow(1).ok());
  EXPECT_EQ(Db::ListVlogSegments(dir), (std::vector<uint64_t>{1}));
  // The quarantine entry went with its segment.
  st = log->Resolve(p1, 1, &value);
  EXPECT_NE(st.message().find("unknown vlog segment"), std::string::npos)
      << st.ToString();
  ASSERT_TRUE(log->DropBelow(1).ok());  // Not past the tail: a no-op.
  stats = DbStats();
  log->AddStats(&stats);
  EXPECT_EQ(stats.vlog_segments_reclaimed, 1u);
  EXPECT_EQ(stats.vlog_segments, 1u);
}

}  // namespace
}  // namespace lsmssd
