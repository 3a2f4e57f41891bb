// Extension experiment: write scaling across LSM shards.
//
// The single-shard Db serializes every commit on one lock and funnels
// every sealed memtable through one bounded compaction queue: with
// several writers, the queue sits at the throttle depth and every
// modification pays the soft-backpressure sleep (then, at the hard cap,
// a full stall) — a *Db-wide* convoy, not a per-writer one. Hash
// partitioning the key space over N independent shards (each with its
// own memtable, queue, and compaction worker) divides the load per
// queue by N: the same aggregate write rate no longer holds any single
// queue at its throttle depth, so writers stop sleeping.
//
// This bench sweeps shards in {1, 2, 4, 8} with 4 concurrent writers on
// a queue-tight configuration (2-deep compaction queue, soft throttle
// from the first queued memtable, WAL sync off so fsync does not mask
// scheduling) and reports aggregate put throughput, per-Put latency
// percentiles, and the throttle/stall counters that explain the curve.
// Memory is not held constant: every shard runs its own memtable
// pipeline, so N shards may hold N times one shard's memory-resident
// records — the ceiling, N * (compaction_queue_depth + 2) * K0 * B
// records, is reported per row in the JSON.
//
// Results land on stdout (table) and in BENCH_shard_scaling.json; the
// headline figure is speedup_4v1 (aggregate throughput, 4 shards vs 1).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/experiment.h"
#include "src/db/db.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace lsmssd::bench {
namespace {

constexpr int kWriters = 4;

struct ShardRunResult {
  size_t shards = 0;
  uint64_t ops = 0;
  double seconds = 0;
  double puts_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t blocks_written = 0;
  uint64_t memtables_sealed = 0;
  uint64_t throttle_events = 0;
  uint64_t throttle_micros = 0;
  uint64_t stall_events = 0;
  uint64_t mem_ceiling_records = 0;  ///< N * (queue depth + 2) * K0 * B.
};

double PercentileUs(const std::vector<uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted_ns.size()));
  if (idx >= sorted_ns.size()) idx = sorted_ns.size() - 1;
  return static_cast<double>(sorted_ns[idx]) / 1000.0;
}

/// Queue-tight sharded Db: the default L0 (25 blocks, B=22) with a
/// 2-deep compaction queue and soft backpressure from the first queued
/// memtable — the regime where the Db-wide throttle is the bottleneck.
/// With one shard, a single queued memtable makes *every* writer sleep
/// until the worker drains it; with N shards each queue seals 1/N as
/// often and only ops routed to a draining shard pay. WAL syncs and
/// checkpoints stay out of the loop so fsync batching does not mask
/// compaction scheduling.
DbOptions ShardedBenchOptions(size_t shards) {
  DbOptions dbopts;
  dbopts.options = BenchOptions();
  dbopts.options.annihilate_delete_put = false;  // Db requires it off.
  dbopts.policy = PolicyKind::kChooseBest;
  dbopts.wal_sync_mode = WalSyncMode::kNone;
  dbopts.checkpoint_wal_bytes = 0;
  dbopts.background_checkpoint = false;  // No idle maintenance threads.
  dbopts.background_compaction = true;
  dbopts.compaction_queue_depth = 2;
  dbopts.compaction_slowdown_depth = 1;
  dbopts.shards = shards;
  return dbopts;
}

ShardRunResult MeasureShardCount(size_t shards, double dataset_mb,
                                 double window_mb, const std::string& dir) {
  std::filesystem::remove_all(dir);
  const DbOptions dbopts = ShardedBenchOptions(shards);
  const Options& options = dbopts.options;
  auto db_or = Db::Open(dbopts, dir);
  LSMSSD_CHECK(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();

  const std::string payload(options.payload_size, 'x');
  const uint64_t grow = RecordsForMb(options, dataset_mb);
  const Key key_space = static_cast<Key>(grow) * 4;  // Insert-heavy mix.
  {
    Random rng(17);
    for (uint64_t i = 0; i < grow; ++i) {
      LSMSSD_CHECK(db.Put(rng.Uniform(key_space) + 1, payload).ok());
    }
  }
  LSMSSD_CHECK(db.WaitForCompaction().ok());
  const DbStats before = db.Stats();

  const uint64_t per_writer = RecordsForMb(options, window_mb) / kWriters;
  std::vector<std::vector<uint64_t>> lat(kWriters);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  const auto w0 = std::chrono::steady_clock::now();
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(101 + static_cast<uint64_t>(w));
      auto& samples = lat[w];
      samples.reserve(per_writer);
      for (uint64_t i = 0; i < per_writer; ++i) {
        const Key key = rng.Uniform(key_space) + 1;
        const auto t0 = std::chrono::steady_clock::now();
        LSMSSD_CHECK(db.Put(key, payload).ok());
        const auto t1 = std::chrono::steady_clock::now();
        samples.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
    });
  }
  for (auto& t : writers) t.join();
  const auto w1 = std::chrono::steady_clock::now();
  // Queued work is excluded from the window on purpose: the amortized
  // merge cost per record is identical across shard counts (same policy,
  // same Γ), so the interesting difference is who waits for it.
  LSMSSD_CHECK(db.WaitForCompaction().ok());
  const DbStats after = db.Stats();

  std::vector<uint64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  ShardRunResult r;
  r.shards = shards;
  r.ops = all.size();
  r.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(w1 - w0)
          .count();
  r.puts_per_sec = r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0;
  r.p50_us = PercentileUs(all, 0.50);
  r.p99_us = PercentileUs(all, 0.99);
  r.blocks_written = after.io.block_writes() - before.io.block_writes();
  r.memtables_sealed = after.memtables_sealed - before.memtables_sealed;
  r.throttle_events = after.throttle_events - before.throttle_events;
  r.throttle_micros = after.throttle_micros - before.throttle_micros;
  r.stall_events = after.stall_events - before.stall_events;
  // Per shard: the active memtable, compaction_queue_depth sealed ones
  // and the L0 buffer, each at most K0 * B records.
  r.mem_ceiling_records = static_cast<uint64_t>(shards) *
                          (dbopts.compaction_queue_depth + 2) *
                          options.level0_capacity_blocks *
                          options.records_per_block();
  db.Close();
  std::filesystem::remove_all(dir);
  return r;
}

void Main() {
  const double scale = ScaleFromEnv();
  const Options options = BenchOptions();
  PrintHeader("Extension: shard write scaling",
              "aggregate 4-writer put throughput and tail latency vs "
              "shard count (ChooseBest, queue-tight, WAL sync off)",
              options);

  const double dataset_mb = 4.0 * scale;
  const double window_mb = 8.0 * scale;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lsmssd_shard_scaling_bench")
          .string();

  const size_t shard_counts[] = {1, 2, 4, 8};
  std::vector<ShardRunResult> results;
  for (size_t n : shard_counts) {
    results.push_back(MeasureShardCount(n, dataset_mb, window_mb, dir));
    std::cerr << "  [ext-shard] shards=" << n << " done ("
              << static_cast<uint64_t>(results.back().puts_per_sec)
              << " puts/s)\n";
  }

  const double base = results.front().puts_per_sec;
  TablePrinter table({"shards", "puts_per_sec", "speedup", "p50_us",
                      "p99_us", "throttles", "stalls", "mem_ceiling",
                      "blocks"});
  for (const ShardRunResult& r : results) {
    table.AddRowValues(r.shards, static_cast<uint64_t>(r.puts_per_sec),
                       base > 0 ? r.puts_per_sec / base : 0, r.p50_us,
                       r.p99_us, r.throttle_events, r.stall_events,
                       r.mem_ceiling_records, r.blocks_written);
  }
  table.Print(std::cout, "ext_shard_scaling");

  double speedup_4v1 = 0;
  for (const ShardRunResult& r : results) {
    if (r.shards == 4 && base > 0) speedup_4v1 = r.puts_per_sec / base;
  }
  std::cout << "\nshape check: one shard holds its only queue at the "
               "throttle depth, so most Puts pay the backpressure sleep; "
               "per-shard queues spread the same load until the sleeps "
               "(throttles column) vanish and p99 collapses. Blocks "
               "*fall* with shards: aggregate L0 capacity is N*K0, so "
               "more overwrites die in memory before reaching the "
               "device — the speedup is scheduling plus that extra "
               "absorption, never skipped merges (WaitForCompaction "
               "drains every queue before the stats snapshot). 4-shard "
               "speedup: "
            << speedup_4v1 << "x\n";

  std::string json = "{\n  \"bench\": \"ext_shard_scaling\",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": %g,\n  \"writers\": %d,\n"
                  "  \"host_cpus\": %u,\n  \"git\": \"%s\",\n",
                  scale, kWriters, HostCpus(), GitDescribe().c_str());
    json += buf;
  }
  json += "  \"sweep\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ShardRunResult& r = results[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"shards\": %zu, \"ops\": %llu, \"seconds\": %.3f, "
        "\"puts_per_sec\": %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f, "
        "\"blocks_written\": %llu, \"memtables_sealed\": %llu, "
        "\"throttle_events\": %llu, \"throttle_micros\": %llu, "
        "\"stall_events\": %llu, \"mem_ceiling_records\": %llu}%s\n",
        r.shards, static_cast<unsigned long long>(r.ops), r.seconds,
        r.puts_per_sec, r.p50_us, r.p99_us,
        static_cast<unsigned long long>(r.blocks_written),
        static_cast<unsigned long long>(r.memtables_sealed),
        static_cast<unsigned long long>(r.throttle_events),
        static_cast<unsigned long long>(r.throttle_micros),
        static_cast<unsigned long long>(r.stall_events),
        static_cast<unsigned long long>(r.mem_ceiling_records),
        i + 1 < results.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  \"speedup_4v1\": %.2f\n",
                  speedup_4v1);
    json += buf;
  }
  json += "}\n";

  const char* json_path = "BENCH_shard_scaling.json";
  std::ofstream out(json_path);
  out << json;
  out.close();
  std::cerr << "  [ext-shard] wrote " << json_path << "\n";
}

}  // namespace
}  // namespace lsmssd::bench

int main() { lsmssd::bench::Main(); }
