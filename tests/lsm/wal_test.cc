#include "src/lsm/wal.h"

#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/lsm/manifest.h"
#include "src/storage/fault_injection_wal_file.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;
using testing::TreeFixture;

std::string WalPath(const char* tag) {
  return ::testing::TempDir() + "/wal_" + tag + std::to_string(::getpid());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// What a RecordingWalFile saw; outlives the file the writer owns.
struct WalFileLog {
  std::string bytes;  ///< Everything appended, in order.
  int appends = 0;
  int syncs = 0;
};

/// WalFile that records each call instead of touching a disk.
class RecordingWalFile : public WalFile {
 public:
  explicit RecordingWalFile(WalFileLog* log) : log_(log) {}
  Status Append(std::string_view data) override {
    log_->bytes.append(data);
    ++log_->appends;
    return Status::OK();
  }
  Status Sync() override {
    ++log_->syncs;
    return Status::OK();
  }
  Status Truncate() override {
    log_->bytes.clear();
    return Status::OK();
  }

 private:
  WalFileLog* log_;
};

TEST(WalTest, AppendAndReadBack) {
  const std::string path = WalPath("rt");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(Record::Put(1, "hello")).ok());
    ASSERT_TRUE(writer.value()->Append(Record::Tombstone(2)).ok());
    ASSERT_TRUE(writer.value()->Append(Record::Put(3, "world")).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  auto records = WalReader::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0], Record::Put(1, "hello"));
  EXPECT_EQ((*records)[1], Record::Tombstone(2));
  EXPECT_EQ((*records)[2], Record::Put(3, "world"));
  ::unlink(path.c_str());
}

TEST(WalTest, MissingFileMeansNothingToReplay) {
  auto records = WalReader::ReadAll("/does/not/exist.wal");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(WalTest, AppendSurvivesReopen) {
  const std::string path = WalPath("reopen");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.value()->Append(Record::Put(1, "a")).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  {
    auto writer = WalWriter::Open(path);  // Appends, not truncates.
    ASSERT_TRUE(writer.value()->Append(Record::Put(2, "b")).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  auto records = WalReader::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
  ::unlink(path.c_str());
}

TEST(WalTest, TruncateEmptiesLog) {
  const std::string path = WalPath("trunc");
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.value()->Append(Record::Put(1, "a")).ok());
  ASSERT_TRUE(writer.value()->Truncate().ok());
  ASSERT_TRUE(writer.value()->Append(Record::Put(2, "b")).ok());
  ASSERT_TRUE(writer.value()->Sync().ok());
  auto records = WalReader::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].key, 2u);
  ::unlink(path.c_str());
}

TEST(WalTest, TornTailIsDropped) {
  const std::string path = WalPath("torn");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.value()->Append(Record::Put(1, "aaaa")).ok());
    ASSERT_TRUE(writer.value()->Append(Record::Put(2, "bbbb")).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  // Chop bytes off the end, simulating a crash mid-append.
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() - 5));
  }
  auto records = WalReader::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);  // Complete first entry only.
  EXPECT_EQ((*records)[0].key, 1u);
  ::unlink(path.c_str());
}

TEST(WalTest, CorruptChecksumStopsReplay) {
  const std::string path = WalPath("crc");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.value()->Append(Record::Put(1, "aaaa")).ok());
    ASSERT_TRUE(writer.value()->Append(Record::Put(2, "bbbb")).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  data[data.size() - 2] ^= 0x5a;  // Corrupt the *second* entry's payload.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  auto records = WalReader::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
  ::unlink(path.c_str());
}

TEST(WalTest, MidFileCorruptionIsSurfacedNotTruncated) {
  // A bad frame with intact entries *behind* it is not a torn tail:
  // stopping there would silently discard synced, acknowledged data, so
  // the reader must refuse with Corruption. Flip one byte at every
  // offset of the first two entries; the third stays well-formed.
  const std::string path = WalPath("midcorrupt");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(Record::Put(1, "aaaa")).ok());
    ASSERT_TRUE(writer.value()->Append(Record::Put(2, "bbbb")).ok());
    ASSERT_TRUE(writer.value()->Append(Record::Put(3, "cccc")).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  const size_t entry_size = 8 + 9 + 4;
  ASSERT_EQ(data.size(), 3 * entry_size);
  for (size_t off = 0; off < 2 * entry_size; ++off) {
    SCOPED_TRACE("flip at " + std::to_string(off));
    std::string bad = data;
    bad[off] ^= 0x5a;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    auto records = WalReader::ReadAll(path);
    EXPECT_TRUE(records.status().IsCorruption())
        << records.status().ToString();
  }
  ::unlink(path.c_str());
}

TEST(WalTest, TornTailFuzzEveryTruncationOffset) {
  // A crash can cut the log at *any* byte. Recovery must return exactly
  // the complete entries before the cut — never an error, never a
  // half-applied entry, never anything after the tear.
  const std::string path = WalPath("fuzztrunc");
  const Record kEntries[] = {
      Record::Put(11, "aaaa"),
      Record::Tombstone(22),
      Record::Put(33, "cccccc"),
  };
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (const Record& r : kEntries) {
      ASSERT_TRUE(writer.value()->Append(r).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Framed size of entry i: 8-byte header + 1 type + 8 key + payload.
  const size_t sizes[] = {8 + 9 + 4, 8 + 9 + 0, 8 + 9 + 6};
  ASSERT_EQ(data.size(), sizes[0] + sizes[1] + sizes[2]);

  for (size_t cut = 0; cut < data.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(cut));
    }
    size_t expect = 0;
    if (cut >= sizes[0]) ++expect;
    if (cut >= sizes[0] + sizes[1]) ++expect;
    if (cut >= data.size()) ++expect;  // Unreachable; documents intent.
    auto records = WalReader::ReadAll(path);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), expect);
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ((*records)[i], kEntries[i]);
    }
  }
  ::unlink(path.c_str());
}

TEST(WalTest, TornTailFuzzEveryBitFlipInFinalEntry) {
  // Corruption anywhere in the final entry (bit rot, torn sector) must
  // drop that entry and keep the intact prefix — never crash, never
  // return a mangled record.
  const std::string path = WalPath("fuzzflip");
  const Record kKept[] = {Record::Put(1, "xxxx"), Record::Put(2, "yyyy")};
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (const Record& r : kKept) ASSERT_TRUE(writer.value()->Append(r).ok());
    ASSERT_TRUE(writer.value()->Append(Record::Put(3, "zzzz")).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  const size_t entry_size = 8 + 9 + 4;
  const size_t final_start = data.size() - entry_size;
  for (size_t off = final_start; off < data.size(); ++off) {
    for (const char mask : {char(0x01), char(0xA5), char(0xFF)}) {
      SCOPED_TRACE("flip at " + std::to_string(off));
      std::string bad = data;
      bad[off] ^= mask;
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
      }
      auto records = WalReader::ReadAll(path);
      ASSERT_TRUE(records.ok()) << records.status().ToString();
      ASSERT_EQ(records->size(), 2u);
      EXPECT_EQ((*records)[0], kKept[0]);
      EXPECT_EQ((*records)[1], kKept[1]);
    }
  }
  ::unlink(path.c_str());
}

TEST(WalTest, FramesAreByteIdenticalToTheOnDiskFormat) {
  // Golden bytes, computed from the format spec in wal.h
  // ([u32 LE length][u32 LE FNV-1a of payload][u8 type][u64 LE key]
  // [payload]) independently of the encoder, so logs written by any
  // earlier version keep replaying.
  const unsigned char kPut[] = {
      0x0c, 0x00, 0x00, 0x00, 0x67, 0xee, 0x88, 0x00, 0x00, 0x08,
      0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x68, 0x69, 0x21};
  const unsigned char kTombstone[] = {0x09, 0x00, 0x00, 0x00, 0x66, 0x6a,
                                      0x80, 0x23, 0x01, 0x2a, 0x00, 0x00,
                                      0x00, 0x00, 0x00, 0x00, 0x00};
  WalFileLog log;
  auto writer = WalWriter::Wrap(std::make_unique<RecordingWalFile>(&log));
  ASSERT_TRUE(writer->Append(Record::Put(0x0102030405060708, "hi!")).ok());
  ASSERT_TRUE(writer->Append(Record::Tombstone(0x2a)).ok());
  ASSERT_TRUE(writer->Sync().ok());
  const std::string want =
      std::string(reinterpret_cast<const char*>(kPut), sizeof(kPut)) +
      std::string(reinterpret_cast<const char*>(kTombstone),
                  sizeof(kTombstone));
  EXPECT_EQ(log.bytes, want);
  EXPECT_EQ(writer->bytes_appended(), want.size());
  EXPECT_EQ(writer->entries_appended(), 2u);
}

TEST(WalTest, TornBatchRecoversExactlyTheWholeFramesBeforeTheTear) {
  // A group commit writes many frames with one write; a crash can cut
  // that write at any byte. Recovery must return exactly the frames that
  // end at or before the cut.
  const std::string path = WalPath("tornbatch");
  ::unlink(path.c_str());
  std::vector<Record> entries;
  for (Key k = 0; k < 40; ++k) {
    entries.push_back(k % 5 == 3
                          ? Record::Tombstone(k)
                          : Record::Put(k, std::string(k % 7, 'a' + k % 26)));
  }
  {
    auto base = PosixWalFile::Open(path);
    ASSERT_TRUE(base.ok());
    auto writer = WalWriter::Wrap(std::move(base).value());
    for (const Record& r : entries) ASSERT_TRUE(writer->Append(r).ok());
    EXPECT_EQ(ReadFile(path).size(), 0u);  // Still in the commit buffer.
    ASSERT_TRUE(writer->Sync().ok());
  }
  const std::string data = ReadFile(path);
  std::vector<size_t> frame_ends;
  size_t end = 0;
  for (const Record& r : entries) {
    end += 8 + 9 + r.payload.size();
    frame_ends.push_back(end);
  }
  ASSERT_EQ(data.size(), end);

  for (size_t cut = 0; cut <= data.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(cut));
    }
    size_t expect = 0;
    while (expect < frame_ends.size() && frame_ends[expect] <= cut) ++expect;
    size_t valid = 0;
    auto records = WalReader::ReadAll(path, &valid);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), expect);
    EXPECT_EQ(valid, expect == 0 ? 0 : frame_ends[expect - 1]);
    for (size_t i = 0; i < expect; ++i) EXPECT_EQ((*records)[i], entries[i]);
  }
  ::unlink(path.c_str());
}

TEST(WalTest, PendingBytesReachTheFileAtTheBoundWithoutSync) {
  // A writer that never syncs (the Db's kNone mode) holds at most
  // kMaxPendingBytes in memory: the Append that reaches the bound writes
  // the whole commit buffer with one write, and no fsync.
  WalFileLog log;
  auto writer = WalWriter::Wrap(std::make_unique<RecordingWalFile>(&log));
  const std::string payload(100, 'p');
  const size_t frame = 8 + 9 + payload.size();
  Key k = 0;
  while (writer->bytes_appended() + frame < WalWriter::kMaxPendingBytes) {
    ASSERT_TRUE(writer->Append(Record::Put(k++, payload)).ok());
  }
  EXPECT_EQ(log.appends, 0);
  EXPECT_EQ(writer->pending_bytes(), writer->bytes_appended());
  ASSERT_TRUE(writer->Append(Record::Put(k++, payload)).ok());
  EXPECT_EQ(log.appends, 1);
  EXPECT_EQ(log.syncs, 0);
  EXPECT_EQ(writer->pending_bytes(), 0u);
  EXPECT_EQ(log.bytes.size(), writer->bytes_appended());
  EXPECT_GE(log.bytes.size(), WalWriter::kMaxPendingBytes);

  // The next bound-crossing writes only the bytes buffered since.
  const uint64_t written = log.bytes.size();
  while (writer->pending_bytes() + frame < WalWriter::kMaxPendingBytes) {
    ASSERT_TRUE(writer->Append(Record::Put(k++, payload)).ok());
  }
  EXPECT_EQ(log.appends, 1);
  ASSERT_TRUE(writer->Append(Record::Put(k++, payload)).ok());
  EXPECT_EQ(log.appends, 2);
  EXPECT_EQ(log.syncs, 0);
  EXPECT_EQ(log.bytes.size(), writer->bytes_appended());
  EXPECT_GT(log.bytes.size(), written);
}

TEST(WalTest, AppendThenSyncWritesAndFsyncs) {
  // The Append + Sync pair (the perfbench layer replay's calls) writes
  // the buffered frames and then fsyncs them. The fault-injection file
  // forwards bytes to its base file only on Sync, so frames in the base
  // file prove both halves ran, in order.
  const std::string path = WalPath("appendsync");
  ::unlink(path.c_str());
  FaultInjector injector;
  auto base = PosixWalFile::Open(path);
  ASSERT_TRUE(base.ok());
  auto file = std::make_unique<FaultInjectionWalFile>(std::move(base).value(),
                                                      &injector);
  FaultInjectionWalFile* fi = file.get();
  auto writer = WalWriter::Wrap(std::move(file));
  ASSERT_TRUE(writer->Append(Record::Put(1, "one")).ok());
  ASSERT_TRUE(writer->Append(Record::Tombstone(2)).ok());
  EXPECT_EQ(fi->unsynced_bytes(), 0u);  // Not written yet.
  EXPECT_EQ(injector.steps(), 0u);
  ASSERT_TRUE(writer->Sync().ok());
  EXPECT_EQ(injector.steps(), 2u);  // One write, one fsync.
  EXPECT_EQ(fi->unsynced_bytes(), 0u);
  auto records = WalReader::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0], Record::Put(1, "one"));
  EXPECT_EQ((*records)[1], Record::Tombstone(2));

  // A Sync with nothing buffered still fsyncs (one step, no write).
  ASSERT_TRUE(writer->Sync().ok());
  EXPECT_EQ(injector.steps(), 3u);
  ::unlink(path.c_str());
}

TEST(WalTest, CheckpointPlusWalRecoversExactState) {
  // The full recovery protocol: snapshot a tree, keep logging into the
  // WAL, "crash", then Restore(manifest) + replay WAL and compare.
  const std::string wal_path = WalPath("recover");
  Options options = TinyOptions();
  TreeFixture fx(options, PolicyKind::kChooseBest);

  // Phase 1: checkpointed history. The device clone is the point-in-time
  // "persistent" device image the crashed process would find on disk.
  for (Key k = 0; k < 500; ++k) ASSERT_TRUE(fx.Put(k * 3).ok());
  const std::string manifest_bytes = EncodeManifest(*fx.tree);
  std::unique_ptr<MemBlockDevice> device_image = fx.device.Clone();

  // Phase 2: post-checkpoint writes, logged to the WAL.
  auto writer = WalWriter::Open(wal_path);
  ASSERT_TRUE(writer.ok());
  // NOTE: replay applies to the *restored* tree, so only L0-bound requests
  // after the checkpoint go to the WAL — exactly the protocol.
  std::vector<Record> tail;
  for (Key k = 0; k < 30; ++k) {
    const Record r = (k % 3 == 0)
                         ? Record::Tombstone(k * 3)
                         : Record::Put(9'000 + k, MakePayload(options, k));
    ASSERT_TRUE(writer.value()->Append(r).ok());
    tail.push_back(r);
  }
  ASSERT_TRUE(writer.value()->Sync().ok());

  // Apply the same tail to the live tree (the "real" execution).
  for (const Record& r : tail) {
    if (r.is_tombstone()) {
      ASSERT_TRUE(fx.tree->Delete(r.key).ok());
    } else {
      ASSERT_TRUE(fx.tree->Put(r.key, r.payload).ok());
    }
  }

  // Phase 3: crash + recover against the checkpoint-time device image.
  auto manifest = DecodeManifest(manifest_bytes);
  ASSERT_TRUE(manifest.ok());
  auto recovered_or =
      LsmTree::Restore(manifest.value(), device_image.get(),
                       CreatePolicy(PolicyKind::kChooseBest));
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  LsmTree& recovered = *recovered_or.value();
  auto replay = WalReader::ReadAll(wal_path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->size(), tail.size());
  for (const Record& r : replay.value()) {
    if (r.is_tombstone()) {
      ASSERT_TRUE(recovered.Delete(r.key).ok());
    } else {
      ASSERT_TRUE(recovered.Put(r.key, r.payload).ok());
    }
  }

  // The recovered tree answers every query like the live one.
  for (Key k = 0; k < 1600; ++k) {
    auto a = fx.tree->Get(k);
    auto b = recovered.Get(k);
    ASSERT_EQ(a.ok(), b.ok()) << "key " << k;
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value());
    }
  }
  for (Key k = 9'000; k < 9'030; ++k) {
    auto a = fx.tree->Get(k);
    auto b = recovered.Get(k);
    ASSERT_EQ(a.ok(), b.ok()) << "key " << k;
  }
  ::unlink(wal_path.c_str());
}

}  // namespace
}  // namespace lsmssd
