// Microbenchmarks (google-benchmark) of the hot primitives underneath the
// merge engine: block encode/decode, memtable ops, leaf-directory lookup,
// the ChooseBest metadata scan, the LRU cache, a short range scan
// through a Db iterator, and the write path's WAL append, WAL replay and
// group-commit Put (with and without the value log). These quantify the CPU overhead that Section V
// reports as 2%-16% of total request time.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/db/db.h"
#include "src/format/record_block.h"
#include "src/format/record_block_view.h"
#include "src/lsm/level.h"
#include "src/lsm/lsm_tree.h"
#include "src/lsm/memtable.h"
#include "src/lsm/wal.h"
#include "src/policy/choose_best_policy.h"
#include "src/policy/policy_factory.h"
#include "src/storage/lru_cache.h"
#include "src/storage/mem_block_device.h"
#include "src/util/golden_section.h"
#include "src/util/random.h"

namespace lsmssd {
namespace {

Options MicroOptions() {
  Options options;
  options.block_size = 4096;
  options.key_size = 4;
  options.payload_size = 100;  // Paper defaults: B = 38.
  return options;
}

std::vector<Record> MakeRecords(const Options& options, size_t n) {
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back(
        Record::Put(i * 7 + 1, std::string(options.payload_size, 'x')));
  }
  return records;
}

void BM_RecordBlockEncode(benchmark::State& state) {
  const Options options = MicroOptions();
  const auto records = MakeRecords(options, options.records_per_block());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeRecordBlock(options, records));
  }
  state.SetBytesProcessed(state.iterations() * options.block_size);
}
BENCHMARK(BM_RecordBlockEncode);

void BM_RecordBlockDecode(benchmark::State& state) {
  const Options options = MicroOptions();
  const BlockData data = EncodeRecordBlock(
      options, MakeRecords(options, options.records_per_block()));
  for (auto _ : state) {
    auto records = DecodeRecordBlock(options, data);
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(state.iterations() * options.block_size);
}
BENCHMARK(BM_RecordBlockDecode);

void BM_RecordBlockViewParse(benchmark::State& state) {
  // Zero-copy counterpart of BM_RecordBlockDecode: header validation +
  // order check only, no per-record materialization.
  const Options options = MicroOptions();
  const BlockData data = EncodeRecordBlock(
      options, MakeRecords(options, options.records_per_block()));
  for (auto _ : state) {
    auto view = RecordBlockView::Parse(options, data);
    benchmark::DoNotOptimize(view);
  }
  state.SetBytesProcessed(state.iterations() * options.block_size);
}
BENCHMARK(BM_RecordBlockViewParse);

void BM_RecordBlockViewFind(benchmark::State& state) {
  // Parse + in-slot binary search + materialize the one matching record —
  // the per-lookup work of the view-based read path.
  const Options options = MicroOptions();
  const auto records = MakeRecords(options, options.records_per_block());
  const BlockData data = EncodeRecordBlock(options, records);
  Random rng(7);
  const Key max_key = records.back().key;
  for (auto _ : state) {
    auto view_or = RecordBlockView::Parse(options, data);
    size_t slot;
    if (view_or.value().Find(rng.Uniform(max_key) + 1, &slot)) {
      Record r = view_or.value().record_at(slot);
      benchmark::DoNotOptimize(r);
    }
  }
}
BENCHMARK(BM_RecordBlockViewFind);

void BM_MemtablePut(benchmark::State& state) {
  const Options options = MicroOptions();
  Random rng(1);
  Memtable mem;
  const std::string payload(options.payload_size, 'x');
  for (auto _ : state) {
    mem.Put(rng.Uniform(1'000'000'000), payload);
    if (mem.size() > 200'000) {
      state.PauseTiming();
      mem.ExtractAll();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_MemtablePut);

void BM_MemtableGet(benchmark::State& state) {
  const Options options = MicroOptions();
  Random rng(2);
  Memtable mem;
  const std::string payload(options.payload_size, 'x');
  for (int i = 0; i < 100'000; ++i) {
    mem.Put(rng.Uniform(1'000'000'000), payload);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Get(rng.Uniform(1'000'000'000)));
  }
}
BENCHMARK(BM_MemtableGet);

/// Builds a level with `leaves` synthetic full leaves (metadata only needs
/// the device for splices; lookups read real blocks).
void BuildLevel(const Options& options, MemBlockDevice* device, Level* level,
                size_t leaves) {
  const size_t b = options.records_per_block();
  Key key = 1;
  for (size_t i = 0; i < leaves; ++i) {
    std::vector<Record> records;
    for (size_t j = 0; j < b; ++j) {
      records.push_back(
          Record::Put(key, std::string(options.payload_size, 'x')));
      key += 3;
    }
    auto id = device->WriteNewBlock(EncodeRecordBlock(options, records));
    LSMSSD_CHECK(id.ok());
    level->AppendLeaf(MakeLeafMeta(options, records, id.value()));
    key += 17;
  }
}

void BM_LevelLookup(benchmark::State& state) {
  const Options options = MicroOptions();
  MemBlockDevice device(options.block_size);
  Level level(options, &device, 1);
  BuildLevel(options, &device, &level, state.range(0));
  Random rng(3);
  const Key max_key = level.max_key();
  Record out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(level.Lookup(rng.Uniform(max_key), &out));
  }
}
BENCHMARK(BM_LevelLookup)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LevelLookupCached(benchmark::State& state) {
  // Lookup through a warm CachedBlockDevice: every block read is a cache
  // hit returning the shared image, so the only per-lookup work is the
  // leaf-directory search plus the in-place slot binary search.
  const Options options = MicroOptions();
  MemBlockDevice base(options.block_size);
  CachedBlockDevice device(&base, static_cast<size_t>(state.range(0)));
  Level level(options, &base, 1);
  BuildLevel(options, &base, &level, state.range(0));
  // Rebind reads through the cache: a level built on `base` would bypass
  // it, so build a cached twin sharing the same blocks.
  Level cached_level(options, &device, 1);
  for (const LeafMeta& m : level.leaves()) cached_level.AppendLeaf(m);
  Record out;
  // Warm: touch every leaf once.
  for (size_t i = 0; i < cached_level.num_leaves(); ++i) {
    LSMSSD_CHECK(cached_level.ReadLeafView(i).ok());
  }
  Random rng(3);
  const Key max_key = cached_level.max_key();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached_level.Lookup(rng.Uniform(max_key), &out));
  }
  state.counters["cache_hits"] =
      static_cast<double>(device.stats().cache_hits());
  state.counters["cache_misses"] =
      static_cast<double>(device.stats().cache_misses());
}
BENCHMARK(BM_LevelLookupCached)->Arg(100)->Arg(1000)->Arg(10000);

void BM_TreeGetWarmCache(benchmark::State& state) {
  // End-to-end point lookups on a populated tree with the buffer cache and
  // Bloom filters on — the paper's query-side configuration (Section V).
  Options options = MicroOptions();
  options.cache_blocks = 4096;
  options.bloom_bits_per_key = 10;
  // Shrink L0 (default K0 = 4000 blocks would hold the whole dataset in
  // memory) so the bulk of the records lives on cached SSD levels.
  options.level0_capacity_blocks = 64;
  MemBlockDevice device(options.block_size);
  auto tree_or =
      LsmTree::Open(options, &device, CreatePolicy(PolicyKind::kChooseBest));
  LSMSSD_CHECK(tree_or.ok());
  LsmTree& tree = *tree_or.value();
  const std::string payload(options.payload_size, 'x');
  Random rng(11);
  constexpr Key kKeySpace = 200'000;
  for (int i = 0; i < 100'000; ++i) {
    LSMSSD_CHECK(tree.Put(rng.Uniform(kKeySpace) + 1, payload).ok());
  }
  for (int i = 0; i < 5'000; ++i) {  // Warm the cache.
    auto unused = tree.Get(rng.Uniform(kKeySpace) + 1);
    benchmark::DoNotOptimize(unused);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(rng.Uniform(kKeySpace) + 1));
  }
  const IoStats& stats = tree.device()->stats();
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits());
  state.counters["cache_misses"] = static_cast<double>(stats.cache_misses());
  state.counters["bloom_skips"] = static_cast<double>(stats.bloom_skips());
}
BENCHMARK(BM_TreeGetWarmCache);

/// A fresh, empty directory under the temp dir, unique to this process.
std::string FreshBenchDir(const std::string& tag) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("lsmssd_micro_" + tag + "_" +
                            std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void BM_DbScan50(benchmark::State& state) {
  // One short range scan through Db::NewIterator: Seek to a random key,
  // then 50 Next calls — the shape of a YCSB-E SCAN. The store has three
  // on-SSD levels plus ~800 records in the active memtable and the L0
  // buffer, so every step merges two ordered maps with three level
  // cursors. Geometry matches the repository benchmark (1 KiB blocks,
  // 4-byte keys, 40-byte payloads, K0 = 25, Γ = 10, 1 MiB cache, Bloom
  // filters); compaction runs inline and nothing writes while timing.
  DbOptions dbopts;
  Options& options = dbopts.options;
  options.block_size = 1024;
  options.key_size = 4;
  options.payload_size = 40;
  options.level0_capacity_blocks = 25;
  options.gamma = 10.0;
  options.delta = 0.07;
  options.cache_blocks = 1024;
  options.bloom_bits_per_key = 10;
  dbopts.wal_sync_mode = WalSyncMode::kNone;
  dbopts.checkpoint_wal_bytes = 0;
  const std::string dir = FreshBenchDir("scan");
  auto db_or = Db::Open(dbopts, dir);
  LSMSSD_CHECK(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  const std::string payload(options.payload_size, 'x');
  Random rng(13);
  constexpr Key kKeySpace = 1'000'000;
  for (int i = 0; i < 80'000; ++i) {
    LSMSSD_CHECK(db.Put(rng.Uniform(kKeySpace) + 1, payload).ok());
  }
  // Top the memory-resident records up to ~800 (a spill can only lower
  // the count, so this ends).
  auto in_memory = [&db] {
    return db.tree()->active_memtable_records() +
           db.tree()->l0_buffer_records();
  };
  while (in_memory() < 800) {
    LSMSSD_CHECK(db.Put(rng.Uniform(kKeySpace) + 1, payload).ok());
  }
  LSMSSD_CHECK_EQ(db.tree()->num_levels(), 4u);  // L0 + three on SSD.
  const size_t memory_records = in_memory();

  std::unique_ptr<Iterator> it = db.NewIterator();
  uint64_t records = 0;
  for (auto _ : state) {
    it->Seek(rng.Uniform(kKeySpace) + 1);
    for (int i = 0; i < 50 && it->Valid(); ++i) {
      benchmark::DoNotOptimize(it->value().data());
      ++records;
      it->Next();
    }
  }
  LSMSSD_CHECK(it->status().ok());
  it.reset();  // Releases the Db's read locks before Close.
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["memory_records"] = static_cast<double>(memory_records);
  db.Close();
  db_or.value().reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DbScan50);

void BM_WalWriterAppend(benchmark::State& state) {
  // One WalWriter::Append of a 40-byte Put (the repository benchmark's
  // payload): framing into the commit buffer, plus the one write per
  // 64 KiB it amortizes. No fsync; the file is truncated (untimed) every
  // 16 MiB.
  const std::string dir = FreshBenchDir("wal");
  auto writer_or = WalWriter::Open(dir + "/wal.log");
  LSMSSD_CHECK(writer_or.ok()) << writer_or.status().ToString();
  WalWriter& wal = *writer_or.value();
  Record record = Record::Put(1, std::string(40, 'x'));
  uint64_t truncated_at = 0;
  for (auto _ : state) {
    LSMSSD_CHECK(wal.Append(record).ok());
    ++record.key;
    if (wal.bytes_appended() - truncated_at >= (16u << 20)) {
      state.PauseTiming();
      LSMSSD_CHECK(wal.Truncate().ok());
      truncated_at = wal.bytes_appended();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  writer_or.value().reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalWriterAppend);

/// Writes an 8 MiB log of 40-byte Puts in batches of 64 (one batch per
/// sync round under kEveryN, N = 64) to `path`; returns the entry count.
size_t WriteReplayLog(const std::string& path) {
  auto writer_or = WalWriter::Open(path);
  LSMSSD_CHECK(writer_or.ok()) << writer_or.status().ToString();
  WalWriter& wal = *writer_or.value();
  Record record = Record::Put(1, std::string(40, 'x'));
  size_t entries = 0;
  while (wal.bytes_appended() < (8u << 20)) {
    LSMSSD_CHECK(wal.Append(record).ok());
    record.key = record.key * 2654435761u % 4'000'000'000u + 1;
    if (++entries % 64 == 0) LSMSSD_CHECK(wal.Sync().ok());
  }
  LSMSSD_CHECK(wal.Sync().ok());
  return entries;
}

void BM_WalReadAll(benchmark::State& state) {
  // WalReader::ReadAll of the replay log: the whole log decoded into one
  // vector of Records, each payload on the heap.
  const std::string dir = FreshBenchDir("walread");
  const std::string path = dir + "/wal.log";
  const size_t entries = WriteReplayLog(path);
  for (auto _ : state) {
    auto records = WalReader::ReadAll(path);
    LSMSSD_CHECK(records.ok() && records.value().size() == entries);
    benchmark::DoNotOptimize(records.value().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(entries));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(std::filesystem::file_size(path)));
  state.counters["peak_records"] = static_cast<double>(entries);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalReadAll)->Unit(benchmark::kMillisecond);

void BM_WalForEachBatch(benchmark::State& state) {
  // The replay half of recovery as Engine::Open runs it: the same log,
  // visited one decoded batch at a time (the batch buffer and its
  // payloads are reused), so at most one batch of Records is held.
  const std::string dir = FreshBenchDir("walvisit");
  const std::string path = dir + "/wal.log";
  const size_t entries = WriteReplayLog(path);
  size_t peak_records = 0;
  for (auto _ : state) {
    size_t visited = 0;
    Status st = WalReader::ForEachBatch(
        path, [&](size_t, const std::vector<Record>& batch) {
          visited += batch.size();
          peak_records = std::max(peak_records, batch.size());
          benchmark::DoNotOptimize(batch.data());
          return Status::OK();
        });
    LSMSSD_CHECK(st.ok() && visited == entries);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(entries));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(std::filesystem::file_size(path)));
  state.counters["peak_records"] = static_cast<double>(peak_records);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalForEachBatch)->Unit(benchmark::kMillisecond);

void BM_DbPutEveryN(benchmark::State& state) {
  // One Db::Put from one thread under group commit (kEveryN, N = 64):
  // the commit path alone — the WAL append, the memtable apply, and one
  // write + fsync per 64 Puts. Geometry as in BM_DbScan50; the 512
  // uniform keys stay under the memtable's K0 * B = 550 records, so no
  // Put seals a memtable or runs a compaction step.
  DbOptions dbopts;
  Options& options = dbopts.options;
  options.block_size = 1024;
  options.key_size = 4;
  options.payload_size = 40;
  options.level0_capacity_blocks = 25;
  options.gamma = 10.0;
  options.delta = 0.07;
  options.cache_blocks = 1024;
  options.bloom_bits_per_key = 10;
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 64;
  const std::string dir = FreshBenchDir("put");
  auto db_or = Db::Open(dbopts, dir);
  LSMSSD_CHECK(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  const std::string payload(options.payload_size, 'x');
  Random rng(17);
  for (auto _ : state) {
    LSMSSD_CHECK(db.Put(rng.Uniform(512) + 1, payload).ok());
  }
  state.SetItemsProcessed(state.iterations());
  LSMSSD_CHECK_EQ(db.Stats().memtables_sealed, 0u);
  db.Close();
  db_or.value().reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DbPutEveryN);

void BM_DbPutVlog(benchmark::State& state) {
  // BM_DbPutEveryN with key–value separation on: each Put also appends
  // its value to the vlog head (one write() per Put) and logs a 16-byte
  // pointer. Arg = value bytes (40: the repository benchmark's payload;
  // 1,015: the crossover bench's largest). Same 512 keys and N = 64; the
  // segment size is large enough that no Put rolls a segment or runs GC.
  DbOptions dbopts;
  Options& options = dbopts.options;
  options.block_size = 1024;
  options.key_size = 4;
  options.payload_size = static_cast<size_t>(state.range(0));
  options.level0_capacity_blocks = 25;
  options.gamma = 10.0;
  options.delta = 0.07;
  options.cache_blocks = 1024;
  options.bloom_bits_per_key = 10;
  options.vlog_value_threshold = 17;
  dbopts.wal_sync_mode = WalSyncMode::kEveryN;
  dbopts.wal_sync_every_n = 64;
  dbopts.vlog_segment_bytes = uint64_t{1} << 40;
  dbopts.vlog_gc_ratio = 0;
  const std::string dir = FreshBenchDir("putvlog");
  auto db_or = Db::Open(dbopts, dir);
  LSMSSD_CHECK(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();
  const std::string payload(options.payload_size, 'x');
  Random rng(19);
  for (auto _ : state) {
    LSMSSD_CHECK(db.Put(rng.Uniform(512) + 1, payload).ok());
  }
  state.SetItemsProcessed(state.iterations());
  LSMSSD_CHECK_EQ(db.Stats().memtables_sealed, 0u);
  db.Close();
  db_or.value().reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DbPutVlog)->Arg(40)->Arg(1015);

void BM_ChooseBestScan(benchmark::State& state) {
  // The paper's Section III-C CPU overhead: one simultaneous metadata scan
  // over source and target leaf directories.
  const Options options = MicroOptions();
  MemBlockDevice device(options.block_size);
  Level source(options, &device, 1);
  Level target(options, &device, 2);
  BuildLevel(options, &device, &source, state.range(0));
  BuildLevel(options, &device, &target, state.range(0) * 10);
  const size_t window = std::max<size_t>(1, state.range(0) / 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectChooseBestFromLevel(source, target, window));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 11);
}
BENCHMARK(BM_ChooseBestScan)->Arg(100)->Arg(1000)->Arg(4000);

void BM_LruCacheGetHit(benchmark::State& state) {
  LruCache cache(4096);
  for (BlockId id = 0; id < 4096; ++id) cache.Put(id, BlockData(4096, 1));
  Random rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(rng.Uniform(4096)));
  }
}
BENCHMARK(BM_LruCacheGetHit);

void BM_GoldenSectionSearch(benchmark::State& state) {
  for (auto _ : state) {
    auto result = GoldenSectionMinimize(11, [](size_t i) {
      const double d = static_cast<double>(i) - 4.0;
      return d * d;
    });
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GoldenSectionSearch);

}  // namespace
}  // namespace lsmssd

// BENCHMARK_MAIN(), plus a default JSON sink: unless the caller passed
// --benchmark_out themselves, results also land in BENCH_micro_ops.json so
// successive PRs can diff machine-readable numbers (console output is
// unchanged).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_ops.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
