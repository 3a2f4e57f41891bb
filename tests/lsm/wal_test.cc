#include "src/lsm/wal.h"

#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/lsm/manifest.h"
#include "src/storage/fault_injection_wal_file.h"
#include "src/util/crc32c.h"
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

void WriteFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// A log written one Sync per batch: the entries of each batch, the file
/// bytes, and the end offset of each batch in them.
struct BatchedLog {
  std::vector<std::vector<Record>> batches;
  std::string bytes;
  std::vector<size_t> batch_ends;
};

BatchedLog WriteBatches(const std::string& path,
                        std::vector<std::vector<Record>> batches) {
  ::unlink(path.c_str());
  BatchedLog log;
  log.batches = std::move(batches);
  auto writer = WalWriter::Open(path);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (const std::vector<Record>& batch : log.batches) {
    for (const Record& r : batch) EXPECT_TRUE(writer.value()->Append(r).ok());
    EXPECT_TRUE(writer.value()->Sync().ok());
    log.batch_ends.push_back(ReadFile(path).size());
  }
  log.bytes = ReadFile(path);
  return log;
}

/// Three batches of mixed entries: keys of several widths (0 to 8
/// bytes), tombstones, and a payload long enough for a two-byte varint.
BatchedLog WriteThreeBatches(const std::string& path) {
  return WriteBatches(
      path, {{Record::Put(0, "zero"), Record::Tombstone(0x1234),
              Record::Put(0xffffffffffffffff, std::string(300, 'w'))},
             {Record::Put(7, "seven"), Record::Put(0x10000, "")},
             {Record::Tombstone(99), Record::Put(0xabcdef, "last")}});
}

/// The entries of the first `n` batches of `log`, in order.
std::vector<Record> FirstBatches(const BatchedLog& log, size_t n) {
  std::vector<Record> out;
  for (size_t i = 0; i < n; ++i) {
    out.insert(out.end(), log.batches[i].begin(), log.batches[i].end());
  }
  return out;
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
  uint64_t size() const override { return log_->bytes.size(); }

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
    ASSERT_TRUE(writer.value()->Sync().ok());  // One batch per sync.
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
  ASSERT_EQ(records->size(), 1u);  // Complete first batch only.
  EXPECT_EQ((*records)[0].key, 1u);
  ::unlink(path.c_str());
}

TEST(WalTest, CorruptChecksumStopsReplay) {
  const std::string path = WalPath("crc");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.value()->Append(Record::Put(1, "aaaa")).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());  // One batch per sync.
    ASSERT_TRUE(writer.value()->Append(Record::Put(2, "bbbb")).ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  data[data.size() - 2] ^= 0x5a;  // Corrupt the *second* batch's payload.
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
  // A bad batch with intact batches *behind* it is not a torn tail:
  // stopping there would silently discard synced, acknowledged data, so
  // the reader must refuse with Corruption. Flip one byte at every
  // offset of the file header and the first two batches; the third
  // stays well-formed.
  const std::string path = WalPath("midcorrupt");
  const BatchedLog log = WriteBatches(
      path, {{Record::Put(1, "aaaa")},
             {Record::Put(2, "bbbb")},
             {Record::Put(3, "cccc")}});
  const std::string& data = log.bytes;
  const size_t batch_size = 8 + 1 + 1 + 1 + 4;  // Header, tag, key, len.
  ASSERT_EQ(data.size(), 8 + 3 * batch_size);
  for (size_t off = 0; off < log.batch_ends[1]; ++off) {
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
  // One entry per batch (a Sync after each), so the whole batches
  // before a cut are the whole entries before it.
  const BatchedLog log = WriteBatches(
      path, {{kEntries[0]}, {kEntries[1]}, {kEntries[2]}});
  const std::string& data = log.bytes;
  // File header, then per batch: 8-byte header, tag, 1 key byte, a
  // one-byte length, payload.
  const size_t sizes[] = {8 + 3 + 4, 8 + 3 + 0, 8 + 3 + 6};
  ASSERT_EQ(data.size(), 8 + sizes[0] + sizes[1] + sizes[2]);

  for (size_t cut = 0; cut < data.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    WriteFile(path, std::string_view(data).substr(0, cut));
    size_t expect = 0;
    if (cut >= 8 + sizes[0]) ++expect;
    if (cut >= 8 + sizes[0] + sizes[1]) ++expect;
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
  // Corruption anywhere in the final entry's batch (bit rot, torn
  // sector) must drop that batch and keep the intact prefix — never
  // crash, never return a mangled record.
  const std::string path = WalPath("fuzzflip");
  const Record kKept[] = {Record::Put(1, "xxxx"), Record::Put(2, "yyyy")};
  const BatchedLog log = WriteBatches(
      path, {{kKept[0], kKept[1]}, {Record::Put(3, "zzzz")}});
  const std::string& data = log.bytes;
  const size_t final_start = log.batch_ends[0];
  ASSERT_EQ(data.size() - final_start, 8 + 1 + 1 + 1 + 4u);
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

TEST(WalTest, BatchesAreByteIdenticalToTheOnDiskFormat) {
  // Golden bytes, built here from the format spec in wal.h rather than
  // by the encoder, so the on-disk format cannot drift unnoticed: the
  // file header, then one batch of a Put and a Tombstone.
  const unsigned char kFileHeader[] = {'L', 'S', 'M', 'W',
                                       'A', 'L', 0x02, 0x00};
  const unsigned char kBody[] = {
      // Put: tag (Put, width 8), key big-endian, length 3, "hi!".
      0x08, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x03, 'h', 'i',
      '!',
      // Tombstone: tag (Delete, width 1), key 0x2a, length 0.
      0x11, 0x2a, 0x00};
  const unsigned char kLength[] = {sizeof(kBody), 0x00, 0x00, 0x00};
  std::string covered(reinterpret_cast<const char*>(kLength), 4);
  covered.append(reinterpret_cast<const char*>(kBody), sizeof(kBody));
  const uint32_t crc = crc32c::Value(
      reinterpret_cast<const uint8_t*>(covered.data()), covered.size());
  EXPECT_EQ(crc, 0x7827f795u);  // Pins what the checksum covers.
  std::string want(reinterpret_cast<const char*>(kFileHeader), 8);
  want.append(reinterpret_cast<const char*>(kLength), 4);
  for (int i = 0; i < 4; ++i) want.push_back(static_cast<char>(crc >> (8 * i)));
  want.append(reinterpret_cast<const char*>(kBody), sizeof(kBody));

  WalFileLog log;
  auto writer = WalWriter::Wrap(std::make_unique<RecordingWalFile>(&log));
  ASSERT_TRUE(writer->Append(Record::Put(0x0102030405060708, "hi!")).ok());
  ASSERT_TRUE(writer->Append(Record::Tombstone(0x2a)).ok());
  ASSERT_TRUE(writer->Sync().ok());
  EXPECT_EQ(log.bytes, want);
  EXPECT_EQ(log.appends, 1);  // File header and batch in one write.
  EXPECT_EQ(writer->bytes_appended(), want.size());
  EXPECT_EQ(writer->entries_appended(), 2u);

  // A 44-byte Put (4-byte key, 40-byte payload) logs 46 bytes.
  const uint64_t before = writer->bytes_appended();
  writer->Buffer(RecordType::kPut, 0x89abcdef, std::string(40, 'v'));
  EXPECT_EQ(writer->bytes_appended() - before, 8u + 46u);  // New batch.
  writer->Buffer(RecordType::kPut, 0x89abcdf0, std::string(40, 'v'));
  EXPECT_EQ(writer->bytes_appended() - before, 8u + 2 * 46u);
}

TEST(WalTest, ReopenedLogKeepsOneFileHeader) {
  // Only an empty file gets the file header: a writer reopened on a
  // non-empty log appends batches, and a truncated log starts again.
  WalFileLog log;
  {
    auto writer = WalWriter::Wrap(std::make_unique<RecordingWalFile>(&log));
    ASSERT_TRUE(writer->Sync().ok());  // Nothing buffered: nothing written.
    EXPECT_EQ(log.bytes.size(), 0u);
    ASSERT_TRUE(writer->Append(Record::Put(1, "a")).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  const size_t first = log.bytes.size();
  EXPECT_EQ(first, 8u + 8u + 4u);
  auto writer = WalWriter::Wrap(std::make_unique<RecordingWalFile>(&log));
  ASSERT_TRUE(writer->Append(Record::Put(2, "b")).ok());
  ASSERT_TRUE(writer->Sync().ok());
  EXPECT_EQ(log.bytes.size(), first + 8u + 4u);
  EXPECT_EQ(log.bytes.substr(0, 8), std::string("LSMWAL\x02\x00", 8));
  ASSERT_TRUE(writer->Truncate().ok());
  ASSERT_TRUE(writer->Append(Record::Put(3, "c")).ok());
  ASSERT_TRUE(writer->Sync().ok());
  EXPECT_EQ(log.bytes.size(), first);
  EXPECT_EQ(log.bytes.substr(0, 8), std::string("LSMWAL\x02\x00", 8));
}

TEST(WalTest, TornLogRecoversExactlyTheWholeBatchesBeforeTheCut) {
  // A crash can cut the log at any byte, including inside the file
  // header. Recovery must return exactly the batches that end at or
  // before the cut, report the intact prefix, and give each entry the
  // offset of its batch.
  const std::string path = WalPath("tornbatch");
  const BatchedLog log = WriteThreeBatches(path);
  const std::string& data = log.bytes;
  ASSERT_EQ(data.size(), log.batch_ends.back());

  for (size_t cut = 0; cut <= data.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    WriteFile(path, std::string_view(data).substr(0, cut));
    size_t whole = 0;
    while (whole < log.batch_ends.size() && log.batch_ends[whole] <= cut) {
      ++whole;
    }
    size_t valid = 0;
    auto records = WalReader::ReadAll(path, &valid);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    EXPECT_EQ(records.value(), FirstBatches(log, whole));
    const size_t want_valid =
        whole > 0 ? log.batch_ends[whole - 1] : (cut >= 8 ? 8 : 0);
    EXPECT_EQ(valid, want_valid);
    std::vector<size_t> offsets;
    std::vector<std::vector<Record>> batches;
    ASSERT_TRUE(WalReader::ForEachBatch(
                    path,
                    [&](size_t offset, const std::vector<Record>& batch) {
                      offsets.push_back(offset);
                      batches.push_back(batch);
                      return Status::OK();
                    })
                    .ok());
    ASSERT_EQ(batches.size(), whole);
    std::vector<size_t> want_offsets;
    for (size_t b = 0; b < whole; ++b) {
      want_offsets.push_back(b == 0 ? 8 : log.batch_ends[b - 1]);
      EXPECT_EQ(batches[b], log.batches[b]) << "batch " << b;
    }
    EXPECT_EQ(offsets, want_offsets);
  }
  ::unlink(path.c_str());
}

TEST(WalTest, ForEachBatchStopsAtTheVisitorsErrorAndAtMidFileCorruption) {
  const std::string path = WalPath("visit");
  const BatchedLog log = WriteThreeBatches(path);
  size_t visited = 0;
  Status st = WalReader::ForEachBatch(
      path, [&](size_t, const std::vector<Record>& batch) {
        EXPECT_EQ(batch, log.batches[visited]);
        return ++visited == 2 ? Status::Internal("stop") : Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_EQ(visited, 2u);

  // Damage the second batch: the first is visited, then the valid third
  // batch behind the damage makes the read Corruption.
  std::string bad = log.bytes;
  bad[log.batch_ends[0] + 8] ^= 0x01;
  WriteFile(path, bad);
  visited = 0;
  size_t valid = 1;
  st = WalReader::ForEachBatch(
      path,
      [&](size_t, const std::vector<Record>&) {
        ++visited;
        return Status::OK();
      },
      &valid);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(valid, 0u);
  ::unlink(path.c_str());
}

TEST(WalTest, EveryBitFlipInTheFirstBatchIsCorruption) {
  // The first batch is followed by two valid ones, so no flip in it can
  // pass for a torn tail: dropping it would discard synced batches.
  const std::string path = WalPath("flipfirst");
  const BatchedLog log = WriteThreeBatches(path);
  for (size_t off = 8; off < log.batch_ends[0]; ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flip bit " + std::to_string(bit) + " of byte " +
                   std::to_string(off));
      std::string bad = log.bytes;
      bad[off] = static_cast<char>(bad[off] ^ (1 << bit));
      WriteFile(path, bad);
      auto records = WalReader::ReadAll(path);
      ASSERT_TRUE(records.status().IsCorruption())
          << records.status().ToString();
    }
  }
  ::unlink(path.c_str());
}

TEST(WalTest, EveryBitFlipInTheLastBatchDropsOnlyThatBatch) {
  const std::string path = WalPath("fliplast");
  const BatchedLog log = WriteThreeBatches(path);
  const std::vector<Record> kept = FirstBatches(log, 2);
  for (size_t off = log.batch_ends[1]; off < log.batch_ends[2]; ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flip bit " + std::to_string(bit) + " of byte " +
                   std::to_string(off));
      std::string bad = log.bytes;
      bad[off] = static_cast<char>(bad[off] ^ (1 << bit));
      WriteFile(path, bad);
      size_t valid = 0;
      auto records = WalReader::ReadAll(path, &valid);
      ASSERT_TRUE(records.ok()) << records.status().ToString();
      EXPECT_EQ(records.value(), kept);
      EXPECT_EQ(valid, log.batch_ends[1]);
    }
  }
  ::unlink(path.c_str());
}

TEST(WalTest, LogWithoutTheFileHeaderIsRefused) {
  // A log in the older per-entry format ([u32 length][u32 FNV-1a]
  // [u8 type][u64 LE key][payload] per entry, no file header), and any
  // file header bit flip, are Corruption — from ReadAll and from the
  // header check recovery runs first — and the reader leaves the file
  // alone.
  const std::string path = WalPath("oldformat");
  std::string old_entry;
  const std::string body = std::string("\x00", 1) +
                           std::string("\x05\x00\x00\x00\x00\x00\x00\x00", 8) +
                           "aaaa";
  uint32_t fnv = 2166136261u;
  for (char c : body) {
    fnv ^= static_cast<uint8_t>(c);
    fnv *= 16777619u;
  }
  for (uint32_t v : {static_cast<uint32_t>(body.size()), fnv}) {
    for (int i = 0; i < 4; ++i) old_entry.push_back(static_cast<char>(v >> (8 * i)));
  }
  old_entry += body;
  WriteFile(path, old_entry + old_entry);
  auto records = WalReader::ReadAll(path);
  EXPECT_TRUE(records.status().IsCorruption()) << records.status().ToString();
  EXPECT_NE(records.status().message().find("format"), std::string::npos);
  EXPECT_TRUE(WalReader::CheckHeader(path).IsCorruption());
  EXPECT_EQ(ReadFile(path), old_entry + old_entry);

  const BatchedLog log = WriteThreeBatches(path);
  EXPECT_TRUE(WalReader::CheckHeader(path).ok());
  for (size_t off = 0; off < 8; ++off) {
    std::string bad = log.bytes;
    bad[off] ^= 0x01;
    WriteFile(path, bad);
    EXPECT_TRUE(WalReader::ReadAll(path).status().IsCorruption()) << off;
    EXPECT_TRUE(WalReader::CheckHeader(path).IsCorruption()) << off;
  }
  // A prefix of the header is a torn first write, not another format.
  WriteFile(path, std::string_view(log.bytes).substr(0, 5));
  EXPECT_TRUE(WalReader::CheckHeader(path).ok());
  EXPECT_TRUE(WalReader::CheckHeader("/does/not/exist.wal").ok());
  ::unlink(path.c_str());
}

TEST(WalTest, PendingBytesReachTheFileAtTheBoundWithoutSync) {
  // A writer that never syncs (the Db's kNone mode) holds at most
  // kMaxPendingBytes in memory: the Append that reaches the bound writes
  // the whole commit buffer with one write, and no fsync.
  WalFileLog log;
  auto writer = WalWriter::Wrap(std::make_unique<RecordingWalFile>(&log));
  const std::string payload(100, 'p');
  const size_t frame = 1 + 2 + 1 + payload.size();  // Keys of width 2.
  Key k = 0x100;
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
