// Extension experiment: merge latency, two ways.
//
// Part 1 (paper §III motivation): per-merge write-cost distribution. The
// case for ChooseBest is not only the amortized cost but the *worst-case
// single merge*: Full (and unlucky RR) merges can rewrite the entire next
// level, stalling the index; every ChooseBest merge is capped by Theorem 2.
// We sample the write cost of each individual merge into the bottom level
// and report the distribution (mean / p50 / p99 / max).
//
// Part 2 (this repo's background-compaction pipeline): per-Put *latency*
// distribution, inline vs background, on a durable Db over a real
// FileBlockDevice with four concurrent writers. Both modes run the same
// compaction steps; inline mode runs them in the writer that seals the
// memtable while every other writer queues behind the commit lock, and
// background mode hands the sealed memtable to the compaction thread and
// returns. The block counts of the two modes are reported side by side
// (blocks_ratio = background / inline): under four writers the compaction
// thread falls behind and its levels starve, so the modes do not write
// the same blocks. IoStats syscall/batch counters show the vectored
// pwritev path underneath.
//
// Results land on stdout (tables) and in BENCH_merge_latency.json so future
// PRs can track the trajectory. The count-based shape checks gate the exit
// status: the binary exits 1 when one fails.

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

struct Distribution {
  double mean = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
  size_t merges = 0;
  // The costliest merge: input blocks it preserved (reused unwritten),
  // and the bottom level's size after it.
  uint64_t preserved_at_max = 0;
  uint64_t bottom_blocks_at_max = 0;
};

Distribution Summarize(std::vector<uint64_t> samples) {
  Distribution d;
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.merges = samples.size();
  uint64_t sum = 0;
  for (uint64_t v : samples) sum += v;
  d.mean = static_cast<double>(sum) / samples.size();
  d.p50 = samples[samples.size() / 2];
  d.p99 = samples[samples.size() * 99 / 100];
  d.max = samples.back();
  return d;
}

Distribution MeasureMergeCosts(const PolicySpec& policy, double dataset_mb,
                               double window_mb) {
  const Options options = BenchOptions();
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kUniform;
  Experiment exp(options, policy, spec);
  Status st = exp.PrepareSteadyState(dataset_mb);
  LSMSSD_CHECK(st.ok()) << st.ToString();

  const size_t bottom = exp.tree().num_levels() - 1;
  std::vector<uint64_t> samples;
  uint64_t prev_merges = exp.tree().stats().merges_into[bottom];
  uint64_t prev_cost = exp.tree().stats().BlocksWrittenForLevel(bottom);
  uint64_t prev_preserved = exp.tree().stats().blocks_preserved_into[bottom];
  uint64_t max_cost = 0;
  uint64_t preserved_at_max = 0;
  uint64_t bottom_blocks_at_max = 0;
  const uint64_t requests = RecordsForMb(options, window_mb);
  for (uint64_t i = 0; i < requests; ++i) {
    LSMSSD_CHECK(exp.driver().Run(1).ok());
    const LsmStats& s = exp.tree().stats();
    const uint64_t merges = s.merges_into[bottom];
    const uint64_t cost = s.BlocksWrittenForLevel(bottom);
    if (merges == prev_merges + 1) {
      const uint64_t merge_cost = cost - prev_cost;
      samples.push_back(merge_cost);
      if (merge_cost >= max_cost) {
        max_cost = merge_cost;
        preserved_at_max = s.blocks_preserved_into[bottom] - prev_preserved;
        bottom_blocks_at_max = exp.tree().level(bottom).size_blocks();
      }
    }
    prev_merges = merges;
    prev_cost = cost;
    prev_preserved = s.blocks_preserved_into[bottom];
  }
  Distribution d = Summarize(std::move(samples));
  d.preserved_at_max = preserved_at_max;
  d.bottom_blocks_at_max = bottom_blocks_at_max;
  return d;
}

// ---- Part 2: per-Put latency, inline vs background ----------------------

struct PutLatency {
  uint64_t ops = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
  uint64_t blocks_written = 0;   ///< Device writes over the window.
  uint64_t write_syscalls = 0;   ///< pwrite/pwritev issued for them.
  uint64_t batch_writes = 0;     ///< Multi-block WriteBlocks calls.
  uint64_t batched_blocks_written = 0;
  uint64_t memtables_sealed = 0;
  uint64_t stall_events = 0;
  uint64_t throttle_events = 0;
};

double PercentileUs(const std::vector<uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted_ns.size()));
  if (idx >= sorted_ns.size()) idx = sorted_ns.size() - 1;
  return static_cast<double>(sorted_ns[idx]) / 1000.0;
}

/// Merge-heavy Db configuration: a small L0 (4 blocks) seals the memtable
/// every ~90 Puts, so >1% of ops trigger a flush-or-cascade — enough that
/// the p99 captures who pays for merges. WAL syncs and checkpoints are
/// kept out of the loop (kNone, manual checkpoints only) so the tails
/// measure compaction scheduling, not fsync.
DbOptions MergeHeavyDbOptions(bool background) {
  DbOptions dbopts;
  dbopts.options = BenchOptions();
  dbopts.options.level0_capacity_blocks = 4;
  // Db refuses annihilate_delete_put (WAL replay re-applies history
  // tails); the workload here is Put-only anyway.
  dbopts.options.annihilate_delete_put = false;
  dbopts.policy = PolicyKind::kChooseBest;
  dbopts.wal_sync_mode = WalSyncMode::kNone;
  dbopts.checkpoint_wal_bytes = 0;
  dbopts.background_compaction = background;
  // A deep queue keeps hard stalls rare (worker catch-up bursts during
  // L1->L2 cascades): still only ~16 * K0 * B records of memory.
  dbopts.compaction_queue_depth = 16;
  dbopts.compaction_slowdown_depth = 0;  // Measure pure stalls, no throttle.
  return dbopts;
}

PutLatency MeasurePutLatency(bool background, double dataset_mb,
                             double window_mb, const std::string& dir) {
  std::filesystem::remove_all(dir);
  const DbOptions dbopts = MergeHeavyDbOptions(background);
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

  constexpr int kWriters = 4;
  const uint64_t per_writer = RecordsForMb(options, window_mb) / kWriters;
  std::vector<std::vector<uint64_t>> lat(kWriters);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
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
  // Drain queued work so each mode's block count covers all its work.
  LSMSSD_CHECK(db.WaitForCompaction().ok());
  const DbStats after = db.Stats();

  std::vector<uint64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  PutLatency r;
  r.ops = all.size();
  uint64_t sum = 0;
  for (uint64_t v : all) sum += v;
  r.mean_us = all.empty()
                  ? 0
                  : static_cast<double>(sum) / all.size() / 1000.0;
  r.p50_us = PercentileUs(all, 0.50);
  r.p95_us = PercentileUs(all, 0.95);
  r.p99_us = PercentileUs(all, 0.99);
  r.max_us = all.empty() ? 0 : static_cast<double>(all.back()) / 1000.0;
  r.blocks_written = after.io.block_writes() - before.io.block_writes();
  r.write_syscalls = after.io.write_syscalls() - before.io.write_syscalls();
  r.batch_writes = after.io.batch_writes() - before.io.batch_writes();
  r.batched_blocks_written =
      after.io.batched_blocks_written() - before.io.batched_blocks_written();
  r.memtables_sealed = after.memtables_sealed - before.memtables_sealed;
  r.stall_events = after.stall_events - before.stall_events;
  r.throttle_events = after.throttle_events - before.throttle_events;
  db.Close();
  std::filesystem::remove_all(dir);
  return r;
}

void AppendPutLatencyJson(std::string* out, const std::string& name,
                          const PutLatency& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "    \"%s\": {\"ops\": %llu, \"mean_us\": %.3f, \"p50_us\": %.3f, "
      "\"p95_us\": %.3f, \"p99_us\": %.3f, \"max_us\": %.3f, "
      "\"blocks_written\": %llu, \"write_syscalls\": %llu, "
      "\"batch_writes\": %llu, \"batched_blocks_written\": %llu, "
      "\"memtables_sealed\": %llu, \"stall_events\": %llu, "
      "\"throttle_events\": %llu}",
      name.c_str(), static_cast<unsigned long long>(r.ops), r.mean_us,
      r.p50_us, r.p95_us, r.p99_us, r.max_us,
      static_cast<unsigned long long>(r.blocks_written),
      static_cast<unsigned long long>(r.write_syscalls),
      static_cast<unsigned long long>(r.batch_writes),
      static_cast<unsigned long long>(r.batched_blocks_written),
      static_cast<unsigned long long>(r.memtables_sealed),
      static_cast<unsigned long long>(r.stall_events),
      static_cast<unsigned long long>(r.throttle_events));
  *out += buf;
}

int Main() {
  const double scale = ScaleFromEnv();
  const Options options = BenchOptions();
  PrintHeader("Extension: per-merge latency",
              "write-cost distribution of individual merges into the "
              "bottom level (Uniform 50/50)",
              options);

  const double dataset_mb = 1.5 * scale;
  const double window_mb = 8.0 * scale;

  std::string json = "{\n  \"bench\": \"ext_merge_latency\",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": %g,\n  \"host_cpus\": %u,\n"
                  "  \"git\": \"%s\",\n",
                  scale, HostCpus(), GitDescribe().c_str());
    json += buf;
  }
  json += "  \"per_merge_write_cost\": [\n";

  // Count-based shape checks, printed as they are judged; any failure
  // fails the run.
  bool shape_ok = true;
  const auto check = [&shape_ok](bool ok, const std::string& what) {
    std::cout << "shape check " << (ok ? "ok" : "FAILED") << ": " << what
              << "\n";
    shape_ok = shape_ok && ok;
  };

  TablePrinter table({"policy", "merges", "mean_blocks", "p50", "p99",
                      "max", "theorem2_cap"});
  const double cap = options.delta * (1.0 / options.gamma + 1.0) *
                     static_cast<double>(options.LevelCapacityBlocks(2));
  Distribution full;
  Distribution choose_best;
  bool first = true;
  for (const auto& policy : FourPreservingPolicies()) {
    if (policy.kind == PolicyKind::kMixed) continue;  // Learned elsewhere.
    const Distribution d =
        MeasureMergeCosts(policy, dataset_mb, window_mb);
    if (policy.kind == PolicyKind::kFull) full = d;
    if (policy.kind == PolicyKind::kChooseBest) choose_best = d;
    table.AddRowValues(policy.name, d.merges, d.mean, d.p50, d.p99, d.max,
                       policy.kind == PolicyKind::kChooseBest
                           ? internal_table::FormatCell(cap)
                           : std::string("-"));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s    {\"policy\": \"%s\", \"merges\": %zu, "
                  "\"mean_blocks\": %.2f, \"p50\": %llu, \"p99\": %llu, "
                  "\"max\": %llu}",
                  first ? "" : ",\n", policy.name.c_str(), d.merges, d.mean,
                  static_cast<unsigned long long>(d.p50),
                  static_cast<unsigned long long>(d.p99),
                  static_cast<unsigned long long>(d.max));
    json += buf;
    first = false;
    std::cerr << "  [ext-latency] " << policy.name << " done\n";
  }
  json += "\n  ],\n";
  table.Print(std::cout, "ext_merge_latency");
  std::cout << "\n";
  // Full's worst merge covers the whole bottom level: it writes every
  // block it does not preserve (within 1%, for the source-side repairs
  // the written count includes).
  check(full.merges > 0 &&
            static_cast<double>(full.max + full.preserved_at_max) >=
                0.99 * static_cast<double>(full.bottom_blocks_at_max),
        "Full's max merge (" + std::to_string(full.max) + " written + " +
            std::to_string(full.preserved_at_max) +
            " preserved blocks) covers the whole bottom level (" +
            std::to_string(full.bottom_blocks_at_max) + " blocks)");
  check(choose_best.merges > 0 && static_cast<double>(choose_best.max) <= cap,
        "ChooseBest's max merge (" + std::to_string(choose_best.max) +
            " blocks) stays under the Theorem 2 cap (" +
            internal_table::FormatCell(cap) + " blocks)");

  // ---- Part 2: per-Put stall latency, inline vs background ------------
  std::cout << "\nPer-Put latency, 4 concurrent writers on a durable Db "
               "(ChooseBest, small L0, WAL sync off):\n";
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lsmssd_merge_latency_bench")
          .string();
  const double db_dataset_mb = 0.5 * scale;
  const double db_window_mb = 2.0 * scale;
  const PutLatency inline_r =
      MeasurePutLatency(/*background=*/false, db_dataset_mb, db_window_mb,
                        dir);
  std::cerr << "  [ext-latency] inline compaction done\n";
  const PutLatency bg_r =
      MeasurePutLatency(/*background=*/true, db_dataset_mb, db_window_mb,
                        dir);
  std::cerr << "  [ext-latency] background compaction done\n";

  TablePrinter put_table({"mode", "ops", "mean_us", "p50_us", "p95_us",
                          "p99_us", "max_us", "blocks", "write_syscalls",
                          "stalls"});
  put_table.AddRowValues("inline", inline_r.ops, inline_r.mean_us,
                         inline_r.p50_us, inline_r.p95_us, inline_r.p99_us,
                         inline_r.max_us, inline_r.blocks_written,
                         inline_r.write_syscalls, inline_r.stall_events);
  put_table.AddRowValues("background", bg_r.ops, bg_r.mean_us, bg_r.p50_us,
                         bg_r.p95_us, bg_r.p99_us, bg_r.max_us,
                         bg_r.blocks_written, bg_r.write_syscalls,
                         bg_r.stall_events);
  put_table.Print(std::cout, "ext_put_latency");
  const double speedup =
      bg_r.p99_us > 0 ? inline_r.p99_us / bg_r.p99_us : 0;
  const double blocks_ratio =
      inline_r.blocks_written > 0
          ? static_cast<double>(bg_r.blocks_written) /
                static_cast<double>(inline_r.blocks_written)
          : 0;
  // A per-block path pays two writes per block (data + CRC sidecar);
  // vectored pwritev coalesces contiguous runs below that.
  std::cout << "\n";
  for (const PutLatency* r : {&inline_r, &bg_r}) {
    check(r->blocks_written > 0 && r->write_syscalls < 2 * r->blocks_written,
          std::string(r == &inline_r ? "inline" : "background") +
              " write_syscalls (" + std::to_string(r->write_syscalls) +
              ") under 2x blocks (" + std::to_string(r->blocks_written) + ")");
  }
  std::cout << "report only: p99 speedup (inline / background) " << speedup
            << "x; blocks ratio (background / inline) " << blocks_ratio
            << " — background mode writes more blocks until the "
               "level-capacity starvation fix (ROADMAP item 1) lands\n";

  json += "  \"put_latency\": {\n";
  AppendPutLatencyJson(&json, "inline", inline_r);
  json += ",\n";
  AppendPutLatencyJson(&json, "background", bg_r);
  json += ",\n";
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "    \"p99_speedup\": %.2f,\n    \"blocks_ratio\": %.3f\n",
                  speedup, blocks_ratio);
    json += buf;
  }
  json += "  },\n";
  json += std::string("  \"shape_checks_passed\": ") +
          (shape_ok ? "true" : "false") + "\n}\n";

  const char* json_path = "BENCH_merge_latency.json";
  std::ofstream out(json_path);
  out << json;
  out.close();
  std::cerr << "  [ext-latency] wrote " << json_path << "\n";
  if (!shape_ok) {
    std::cerr << "ext_merge_latency: a shape check failed\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lsmssd::bench

int main() { return lsmssd::bench::Main(); }
