// Extension experiment: key–value separation crossover (DESIGN.md §11).
//
// An LSM merge rewrites every record it moves, so the write cost per MB
// of user data scales with the full payload size — at one record per
// block (1015-byte payloads on 1 KiB blocks) every level rewrite copies
// the whole dataset's bytes. With the value log on, the tree stores a
// fixed 16-byte pointer and merges move pointers only; the payload is
// written once to the vlog (plus GC rewrites for segments that still
// hold live values). Separation is not free at small payloads: the
// pointer plus the 17-byte vlog entry header can exceed the payload
// itself, and every read pays an extra hop — hence a crossover payload
// size below which inline storage wins.
//
// This bench replays Figure 9's payload sweep {15, 40, 105, 250, 1015}
// through the full Db (WAL + tree + vlog) in both modes and reports the
// end-to-end write cost: device block bytes + WAL bytes + vlog bytes
// (including one full GC pass) per byte of user data. The headline
// figures are the crossover payload and the cost ratio at 1015 B, gated
// >= 2x by scripts/check_vlog_crossover.sh.
//
// Results land on stdout (table) and in BENCH_vlog_crossover.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness/experiment.h"
#include "src/db/db.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace lsmssd::bench {
namespace {

/// Any payload at least this large goes to the vlog in separated mode.
/// 17 is the smallest legal threshold (it must exceed the 16-byte
/// pointer), so the whole fig09 sweep except 15 B takes the vlog path —
/// the 15 B point shows the regime where separation cannot engage.
constexpr uint64_t kVlogThreshold = 17;

struct ModeResult {
  uint64_t ops = 0;
  double seconds = 0;
  double puts_per_sec = 0;
  uint64_t device_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t vlog_bytes = 0;
  uint64_t gc_rewrites = 0;
  double write_cost = 0;  ///< Written bytes per byte of user data.
};

DbOptions CrossoverOptions(size_t payload, bool separated) {
  DbOptions dbopts;
  dbopts.options = BenchOptions();
  dbopts.options.payload_size = payload;
  dbopts.options.annihilate_delete_put = false;  // Db requires it off.
  if (separated) dbopts.options.vlog_value_threshold = kVlogThreshold;
  dbopts.policy = PolicyKind::kChooseBest;
  // WAL fsyncs and checkpoints stay out of the measured loop so the
  // comparison isolates bytes written, not sync scheduling; the final
  // GC + checkpoint runs inside the measured window for both modes.
  dbopts.wal_sync_mode = WalSyncMode::kNone;
  dbopts.checkpoint_wal_bytes = 0;
  dbopts.background_checkpoint = false;
  return dbopts;
}

// Both modes replay the identical op sequence: `grow` and `window` are
// counted against the *logical* record size (key + full payload), never
// the stored size — in vlog mode record_size() shrinks to the pointer
// width and would triple the op count for the same "MB".
ModeResult MeasureMode(size_t payload, bool separated, uint64_t grow,
                       uint64_t window, const std::string& dir) {
  std::filesystem::remove_all(dir);
  const DbOptions dbopts = CrossoverOptions(payload, separated);
  const Options& options = dbopts.options;
  auto db_or = Db::Open(dbopts, dir);
  LSMSSD_CHECK(db_or.ok()) << db_or.status().ToString();
  Db& db = *db_or.value();

  const std::string value(options.payload_size, 'x');
  const Key key_space = static_cast<Key>(grow) * 4;
  {
    Random rng(17);
    for (uint64_t i = 0; i < grow; ++i) {
      LSMSSD_CHECK(db.Put(rng.Uniform(key_space) + 1, value).ok());
    }
  }
  const DbStats before = db.Stats();

  Random rng(101);
  const auto w0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < window; ++i) {
    LSMSSD_CHECK(db.Put(rng.Uniform(key_space) + 1, value).ok());
  }
  // End-to-end accounting: the separated mode must pay for reclaiming
  // its dead vlog ranges, the inline mode for the equivalent checkpoint.
  LSMSSD_CHECK(db.CompactVlog().ok());
  LSMSSD_CHECK(db.Checkpoint().ok());
  const auto w1 = std::chrono::steady_clock::now();
  const DbStats after = db.Stats();

  ModeResult r;
  r.ops = window;
  r.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(w1 - w0)
          .count();
  r.puts_per_sec = r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0;
  r.device_bytes = (after.io.block_writes() - before.io.block_writes()) *
                   options.block_size;
  r.wal_bytes = after.wal_bytes_appended - before.wal_bytes_appended;
  r.vlog_bytes = after.vlog_bytes_appended - before.vlog_bytes_appended;
  r.gc_rewrites = after.vlog_gc_rewrites - before.vlog_gc_rewrites;
  const double user_bytes =
      static_cast<double>(window) *
      static_cast<double>(options.key_size + options.payload_size);
  r.write_cost = static_cast<double>(r.device_bytes + r.wal_bytes +
                                     r.vlog_bytes) /
                 user_bytes;
  db.Close();
  std::filesystem::remove_all(dir);
  return r;
}

void Main() {
  const double scale = ScaleFromEnv();
  const Options base = BenchOptions();
  PrintHeader("Extension: vlog crossover",
              "end-to-end write cost (device + WAL + vlog bytes per user "
              "byte) vs payload size, inline vs key-value separated "
              "(fig09 sweep through the full Db)",
              base);

  const double dataset_mb = 1.5 * scale;
  const double window_mb = 2.0 * scale;
  const std::vector<size_t> payloads = {15, 40, 105, 250, 1015};
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lsmssd_vlog_crossover_bench")
          .string();

  struct Row {
    size_t payload;
    ModeResult inline_r, vlog_r;
    double ratio;  ///< inline write cost / separated write cost.
  };
  std::vector<Row> rows;
  for (size_t payload : payloads) {
    // Op counts from the inline (logical) record size, shared by both
    // modes so they replay the same sequence.
    Options logical = base;
    logical.payload_size = payload;
    const uint64_t grow = RecordsForMb(logical, dataset_mb);
    const uint64_t window = RecordsForMb(logical, window_mb);
    Row row;
    row.payload = payload;
    row.inline_r = MeasureMode(payload, /*separated=*/false, grow, window, dir);
    row.vlog_r = MeasureMode(payload, /*separated=*/true, grow, window, dir);
    row.ratio = row.vlog_r.write_cost > 0
                    ? row.inline_r.write_cost / row.vlog_r.write_cost
                    : 0;
    rows.push_back(row);
    std::cerr << "  [ext-vlog] payload=" << payload << " done (inline "
              << row.inline_r.write_cost << "x vs vlog "
              << row.vlog_r.write_cost << "x user bytes)\n";
  }

  TablePrinter table({"payload_bytes", "inline_cost", "vlog_cost",
                      "inline_over_vlog", "vlog_gc_rewrites",
                      "inline_puts_s", "vlog_puts_s"});
  for (const Row& r : rows) {
    table.AddRowValues(r.payload, r.inline_r.write_cost, r.vlog_r.write_cost,
                       r.ratio, r.vlog_r.gc_rewrites,
                       static_cast<uint64_t>(r.inline_r.puts_per_sec),
                       static_cast<uint64_t>(r.vlog_r.puts_per_sec));
  }
  table.Print(std::cout, "ext_vlog_crossover");

  // The crossover: smallest swept payload where separation wins.
  size_t crossover = 0;
  for (const Row& r : rows) {
    if (r.ratio > 1.0) {
      crossover = r.payload;
      break;
    }
  }
  double win_1015 = 0;
  for (const Row& r : rows) {
    if (r.payload == 1015) win_1015 = r.ratio;
  }
  std::cout << "\nshape check: below the threshold the vlog cannot engage "
               "(15 B < 17 B) and the two modes coincide; once payloads "
               "dwarf the 16-byte pointer, merges move pointers instead "
               "of payloads and the inline/vlog cost ratio grows toward "
               "the records-per-block collapse at 1015 B. Crossover: "
            << crossover << " B; 1015 B win: " << win_1015 << "x\n";

  std::string json = "{\n  \"bench\": \"ext_vlog_crossover\",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": %g,\n  \"host_cpus\": %u,\n"
                  "  \"git\": \"%s\",\n  \"vlog_threshold\": %llu,\n",
                  scale, HostCpus(), GitDescribe().c_str(),
                  static_cast<unsigned long long>(kVlogThreshold));
    json += buf;
  }
  json += "  \"sweep\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    auto mode_json = [](const ModeResult& m) {
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "{\"ops\": %llu, \"seconds\": %.3f, \"puts_per_sec\": %.1f, "
          "\"device_bytes\": %llu, \"wal_bytes\": %llu, "
          "\"vlog_bytes\": %llu, \"gc_rewrites\": %llu, "
          "\"write_cost\": %.3f}",
          static_cast<unsigned long long>(m.ops), m.seconds, m.puts_per_sec,
          static_cast<unsigned long long>(m.device_bytes),
          static_cast<unsigned long long>(m.wal_bytes),
          static_cast<unsigned long long>(m.vlog_bytes),
          static_cast<unsigned long long>(m.gc_rewrites), m.write_cost);
      return std::string(buf);
    };
    char head[64];
    std::snprintf(head, sizeof(head), "    {\"payload_bytes\": %zu,\n",
                  r.payload);
    json += head;
    json += "     \"inline\": " + mode_json(r.inline_r) + ",\n";
    json += "     \"vlog\": " + mode_json(r.vlog_r) + ",\n";
    char tail[64];
    std::snprintf(tail, sizeof(tail), "     \"cost_ratio\": %.3f}%s\n",
                  r.ratio, i + 1 < rows.size() ? "," : "");
    json += tail;
  }
  json += "  ],\n";
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  \"crossover_payload_bytes\": %zu,\n"
                  "  \"win_1015\": %.2f\n",
                  crossover, win_1015);
    json += buf;
  }
  json += "}\n";

  const char* json_path = "BENCH_vlog_crossover.json";
  std::ofstream out(json_path);
  out << json;
  out.close();
  std::cerr << "  [ext-vlog] wrote " << json_path << "\n";
}

}  // namespace
}  // namespace lsmssd::bench

int main() { lsmssd::bench::Main(); }
