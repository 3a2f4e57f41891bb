// Extension experiment: YCSB-style serving workloads over the network
// protocol.
//
// Every other bench drives the engine in-process; this one measures the
// full request path a client sees — frame encode, TCP, epoll dispatch,
// worker execution against the Db, response flush — under the YCSB core
// mixes (A 50/50 read/update, B 95/5, C read-only, E scan/insert,
// F read/RMW) with zipfian-skewed record choice. It is deliberately a
// *pure protocol client*: the only store API it compiles against is
// src/net/client.h, so it cannot cheat around the wire format.
//
// By default it spawns an in-process server (bench/harness/
// embedded_server.h, a pimpl that keeps engine types out of this
// binary) configured for sustained load: background compaction, a 1 MB
// checkpoint threshold (so checkpoints fire continuously), and a 25 ms
// online-scrub cadence — the YCSB phases and the soak window run with
// all three maintenance activities concurrently active. The epilogue
// asserts the store came out clean: zero scrub corruptions, zero
// quarantined blocks, and zero leaked device blocks.
//
// With --connect=HOST:PORT it instead drives an external
// `lsmssd_cli serve` (the CI smoke job does this under ASan/UBSan).
//
// Results land on stdout (table) and in BENCH_server_ycsb.json:
// per-workload per-opcode p50/p95/p99 plus a windowed latency-over-time
// series (250 ms windows) showing how checkpoint and compaction
// activity moves the tail.
//
//   --workloads=abcef  --records=N  --ops=N  --threads=T
//   --soak-seconds=S (0 skips the soak window)  --shards=N
//   --connect=HOST:PORT  --json=PATH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/embedded_server.h"
#include "bench/harness/experiment.h"
#include "src/net/client.h"
#include "src/util/flags.h"
#include "src/util/histogram.h"
#include "src/util/logging.h"
#include "src/util/table_printer.h"
#include "src/workload/ycsb.h"

namespace lsmssd::bench {
namespace {

using net::Client;
using net::ClientOptions;
using net::ScanItem;

constexpr size_t kNumOps = 5;  // YcsbRequest::Op cardinality.
constexpr const char* kOpNames[kNumOps] = {"read", "update", "insert",
                                           "scan", "rmw"};
constexpr uint64_t kWindowMs = 250;

double Scale() {
  const char* scale = std::getenv("LSMSSD_SCALE");
  if (scale == nullptr) return 1.0;
  const double v = std::atof(scale);
  return v > 0 ? v : 1.0;
}

struct PhaseResult {
  char workload = '?';
  uint64_t ops = 0;
  uint64_t errors = 0;
  double seconds = 0;
  LatencyHistogram per_op[kNumOps];
  /// Latency-over-time: all-opcode histogram per kWindowMs window.
  std::vector<LatencyHistogram> windows;
};

struct ThreadAccum {
  uint64_t ops = 0;
  uint64_t errors = 0;
  LatencyHistogram per_op[kNumOps];
  std::vector<LatencyHistogram> windows;
};

std::unique_ptr<Client> MustConnect(const std::string& host, uint16_t port) {
  ClientOptions copts;
  copts.host = host;
  copts.port = port;
  auto client_or = Client::Connect(copts);
  LSMSSD_CHECK(client_or.ok()) << "connect " << host << ":" << port
                               << " failed: "
                               << client_or.status().ToString();
  return std::move(client_or).value();
}

/// Loads records [0, records) with `threads` concurrent connections.
void LoadRecords(const std::string& host, uint16_t port, uint64_t records,
                 size_t threads, const std::string& value,
                 const YcsbConfig& cfg) {
  const YcsbWorkload keyspace(cfg);  // Only KeyForIndex is used.
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> loaders;
  loaders.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    loaders.emplace_back([&, t] {
      auto client = MustConnect(host, port);
      const uint64_t lo = records * t / threads;
      const uint64_t hi = records * (t + 1) / threads;
      for (uint64_t i = lo; i < hi; ++i) {
        if (!client->Put(keyspace.KeyForIndex(i), value).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : loaders) t.join();
  LSMSSD_CHECK(failures.load() == 0)
      << failures.load() << " load puts failed";
}

/// Runs one YCSB phase: `threads` connections, each with its own
/// deterministic request stream. Ops mode (`soak_seconds` == 0) splits
/// `ops` across the threads; soak mode runs until the deadline.
PhaseResult RunPhase(const std::string& host, uint16_t port, char workload,
                     uint64_t records, uint64_t ops, size_t threads,
                     double soak_seconds, uint64_t seed_base,
                     const std::string& value) {
  std::vector<ThreadAccum> accums(threads);
  std::vector<std::thread> runners;
  runners.reserve(threads);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(soak_seconds));
  for (size_t t = 0; t < threads; ++t) {
    runners.emplace_back([&, t] {
      ThreadAccum& acc = accums[t];
      auto client = MustConnect(host, port);
      YcsbConfig cfg;
      cfg.workload = workload;
      cfg.initial_records = records;
      cfg.seed = seed_base + t;
      YcsbWorkload wl(cfg);
      const uint64_t share =
          soak_seconds > 0 ? 0 : ops / threads + (t < ops % threads ? 1 : 0);
      for (uint64_t i = 0;; ++i) {
        if (soak_seconds > 0) {
          if ((i & 63) == 0 &&
              std::chrono::steady_clock::now() >= deadline) {
            break;
          }
        } else if (i >= share) {
          break;
        }
        const YcsbRequest req = wl.Next();
        const auto t0 = std::chrono::steady_clock::now();
        bool ok = false;
        switch (req.op) {
          case YcsbRequest::Op::kRead:
            // NotFound counts as an error: every readable index was
            // loaded, so a miss means the store lost an acked write.
            ok = client->Get(req.key).ok();
            break;
          case YcsbRequest::Op::kUpdate:
          case YcsbRequest::Op::kInsert:
            ok = client->Put(req.key, value).ok();
            break;
          case YcsbRequest::Op::kScan: {
            std::vector<ScanItem> items;
            ok = client
                     ->Scan(req.key, wl.config().key_max, req.scan_len,
                            &items)
                     .ok();
            break;
          }
          case YcsbRequest::Op::kReadModifyWrite: {
            auto got = client->Get(req.key);
            ok = got.ok() && client->Put(req.key, value).ok();
            break;
          }
        }
        const auto t1 = std::chrono::steady_clock::now();
        const uint64_t us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count());
        acc.per_op[static_cast<size_t>(req.op)].Add(us);
        const uint64_t window = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(t0 - start)
                .count() /
            kWindowMs);
        if (acc.windows.size() <= window) acc.windows.resize(window + 1);
        acc.windows[window].Add(us);
        ++acc.ops;
        if (!ok) ++acc.errors;
      }
    });
  }
  for (auto& t : runners) t.join();
  const auto end = std::chrono::steady_clock::now();

  PhaseResult r;
  r.workload = workload;
  r.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  for (const ThreadAccum& acc : accums) {
    r.ops += acc.ops;
    r.errors += acc.errors;
    for (size_t op = 0; op < kNumOps; ++op) r.per_op[op].Merge(acc.per_op[op]);
    if (r.windows.size() < acc.windows.size()) {
      r.windows.resize(acc.windows.size());
    }
    for (size_t w = 0; w < acc.windows.size(); ++w) {
      r.windows[w].Merge(acc.windows[w]);
    }
  }
  return r;
}

std::string PhaseJson(const PhaseResult& r, const std::string& mix) {
  std::string json = "    {";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"workload\": \"%c\", \"mix\": \"%s\", \"ops\": %llu, "
                "\"errors\": %llu, \"seconds\": %.3f, \"ops_per_sec\": %.1f,\n",
                r.workload, mix.c_str(),
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.errors), r.seconds,
                r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0);
  json += buf;
  json += "     \"ops_by_type\": [";
  bool first = true;
  for (size_t op = 0; op < kNumOps; ++op) {
    const LatencyHistogram& h = r.per_op[op];
    if (h.count() == 0) continue;
    if (!first) json += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"op\": \"%s\", \"count\": %llu, \"p50_us\": %llu, "
                  "\"p95_us\": %llu, \"p99_us\": %llu, \"max_us\": %llu}",
                  kOpNames[op], static_cast<unsigned long long>(h.count()),
                  static_cast<unsigned long long>(h.Percentile(50)),
                  static_cast<unsigned long long>(h.Percentile(95)),
                  static_cast<unsigned long long>(h.Percentile(99)),
                  static_cast<unsigned long long>(h.max_value()));
    json += buf;
  }
  json += "],\n     \"windows\": [";
  for (size_t w = 0; w < r.windows.size(); ++w) {
    const LatencyHistogram& h = r.windows[w];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"t_ms\": %llu, \"count\": %llu, \"p50_us\": %llu, "
                  "\"p99_us\": %llu}",
                  w == 0 ? "" : ", ",
                  static_cast<unsigned long long>(w * kWindowMs),
                  static_cast<unsigned long long>(h.count()),
                  static_cast<unsigned long long>(h.Percentile(50)),
                  static_cast<unsigned long long>(h.Percentile(99)));
    json += buf;
  }
  json += "]}";
  return json;
}

int Main(int argc, char** argv) {
  auto flags_or = ParseFlagArgs(argc, argv, 1);
  LSMSSD_CHECK(flags_or.ok()) << flags_or.status().ToString();
  const FlagMap& flags = *flags_or;
  if (Status st = CheckKnownFlags(
          flags, {"connect", "workloads", "records", "ops", "threads",
                  "soak-seconds", "shards", "json"});
      !st.ok()) {
    std::cerr << st.message() << "\n";
    return 2;
  }

  const double scale = Scale();
  const uint64_t records =
      FlagUint(flags, "records",
               std::max<uint64_t>(2000, static_cast<uint64_t>(20000 * scale)))
          .value();
  const uint64_t ops =
      FlagUint(flags, "ops",
               std::max<uint64_t>(2000, static_cast<uint64_t>(15000 * scale)))
          .value();
  const size_t threads =
      static_cast<size_t>(FlagUint(flags, "threads", 4).value());
  const double soak_seconds =
      FlagDouble(flags, "soak-seconds", 3.0 * scale).value();
  const size_t shards =
      static_cast<size_t>(FlagUint(flags, "shards", 1).value());
  const std::string workloads = FlagOr(flags, "workloads", "abcef");
  const std::string json_path =
      FlagOr(flags, "json", "BENCH_server_ycsb.json");
  LSMSSD_CHECK(threads > 0) << "--threads must be >= 1";

  std::cout << "== Extension: YCSB over the network protocol ==\n"
            << "   " << threads << " client connections, " << records
            << " records, " << ops << " ops per workload, soak "
            << soak_seconds << "s (LSMSSD_SCALE=" << scale << ")\n\n";

  // Target server: external (--connect) or embedded-with-maintenance.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::unique_ptr<EmbeddedServer> embedded;
  if (flags.contains("connect")) {
    const std::string target = flags.at("connect");
    const size_t colon = target.rfind(':');
    LSMSSD_CHECK(colon != std::string::npos)
        << "--connect expects HOST:PORT, got " << target;
    host = target.substr(0, colon);
    port = static_cast<uint16_t>(
        std::strtoul(target.c_str() + colon + 1, nullptr, 10));
  } else {
    EmbeddedServerOptions eopts;
    eopts.dir = (std::filesystem::temp_directory_path() /
                 "lsmssd_server_ycsb_bench")
                    .string();
    eopts.shards = shards;
    eopts.background_compaction = true;
    eopts.checkpoint_wal_mb = 1;   // Checkpoints fire throughout the run.
    eopts.scrub_interval_ms = 25;  // Online scrub walks blocks all along.
    auto embedded_or = EmbeddedServer::Start(eopts);
    LSMSSD_CHECK(embedded_or.ok())
        << "embedded server: " << embedded_or.status().ToString();
    embedded = std::move(embedded_or).value();
    port = embedded->port();
  }

  // The store dictates the payload size; learn it over the wire.
  std::string value;
  {
    auto probe = MustConnect(host, port);
    auto stats_or = probe->Stats();
    LSMSSD_CHECK(stats_or.ok()) << stats_or.status().ToString();
    value.assign(stats_or->payload_size, 'y');
  }

  YcsbConfig load_cfg;
  load_cfg.initial_records = records;
  const auto load0 = std::chrono::steady_clock::now();
  LoadRecords(host, port, records, threads, value, load_cfg);
  const double load_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - load0)
          .count();
  std::cerr << "  [ycsb] loaded " << records << " records in "
            << load_seconds << "s\n";

  std::vector<PhaseResult> results;
  uint64_t seed_base = 1000;
  for (char w : workloads) {
    char normalized = 0;
    LSMSSD_CHECK(
        YcsbWorkload::ParseWorkloadName(std::string_view(&w, 1), &normalized))
        << "--workloads must draw from abcef, got '" << w << "'";
    results.push_back(RunPhase(host, port, normalized, records, ops, threads,
                               0, seed_base, value));
    seed_base += 1000;
    std::cerr << "  [ycsb] workload " << normalized << ": "
              << static_cast<uint64_t>(
                     results.back().seconds > 0
                         ? static_cast<double>(results.back().ops) /
                               results.back().seconds
                         : 0)
              << " ops/s, " << results.back().errors << " errors\n";
  }

  // Soak: sustained mixed load (workload A) against the same store while
  // scrub, background checkpoints, and compaction all stay active; the
  // windowed series shows what maintenance does to the tail.
  PhaseResult soak;
  if (soak_seconds > 0) {
    soak = RunPhase(host, port, 'a', records, 0, threads, soak_seconds,
                    seed_base, value);
    std::cerr << "  [ycsb] soak: " << soak.ops << " ops over "
              << soak.seconds << "s, " << soak.errors << " errors\n";
  }

  TablePrinter table({"workload", "ops", "ops_per_sec", "errors", "read_p99",
                      "write_p99", "scan_p99"});
  for (const PhaseResult& r : results) {
    const uint64_t write_p99 =
        std::max(r.per_op[1].Percentile(99), r.per_op[2].Percentile(99));
    table.AddRowValues(
        std::string(1, r.workload), r.ops,
        static_cast<uint64_t>(
            r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0),
        r.errors, r.per_op[0].Percentile(99), write_p99,
        r.per_op[3].Percentile(99));
  }
  table.Print(std::cout, "ext_server_ycsb");

  uint64_t total_errors = soak.errors;
  for (const PhaseResult& r : results) total_errors += r.errors;

  // Integrity epilogue: embedded mode stops the server and audits the
  // store; connect mode audits what the STATS opcode exposes.
  bool clean = true;
  std::string integrity_json;
  if (embedded) {
    auto report_or = embedded->Stop();
    LSMSSD_CHECK(report_or.ok()) << report_or.status().ToString();
    const EmbeddedServer::Report& rep = *report_or;
    clean = rep.scrub_corruptions == 0 && rep.quarantined_blocks == 0 &&
            rep.leak_check_ok && rep.connections_dropped_malformed == 0;
    const bool maintenance_ran =
        rep.scrub_blocks_verified > 0 && rep.checkpoints >= 2 &&
        rep.memtables_sealed > 0;
    std::cout << "\nintegrity: scrub_verified=" << rep.scrub_blocks_verified
              << " scrub_corruptions=" << rep.scrub_corruptions
              << " quarantined=" << rep.quarantined_blocks
              << " checkpoints=" << rep.checkpoints
              << " memtables_sealed=" << rep.memtables_sealed
              << " live_blocks=" << rep.live_blocks << "/"
              << rep.manifest_leaves << " leak_check="
              << (rep.leak_check_ok ? "ok" : "LEAK") << "\n";
    if (!maintenance_ran) {
      std::cout << "warning: maintenance barely ran (short scale?); the "
                   "soak claim needs scrub+checkpoint+compaction active\n";
    }
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  \"integrity\": {\"scrub_blocks_verified\": %llu, "
        "\"scrub_corruptions\": %llu, \"quarantined_blocks\": %llu, "
        "\"checkpoints\": %llu, \"memtables_sealed\": %llu, "
        "\"live_blocks\": %llu, \"manifest_leaves\": %llu, "
        "\"leak_check_ok\": %s, \"frames_processed\": %llu, "
        "\"frames_inline\": %llu, "
        "\"connections_dropped_malformed\": %llu},\n",
        static_cast<unsigned long long>(rep.scrub_blocks_verified),
        static_cast<unsigned long long>(rep.scrub_corruptions),
        static_cast<unsigned long long>(rep.quarantined_blocks),
        static_cast<unsigned long long>(rep.checkpoints),
        static_cast<unsigned long long>(rep.memtables_sealed),
        static_cast<unsigned long long>(rep.live_blocks),
        static_cast<unsigned long long>(rep.manifest_leaves),
        rep.leak_check_ok ? "true" : "false",
        static_cast<unsigned long long>(rep.frames_processed),
        static_cast<unsigned long long>(rep.frames_inline),
        static_cast<unsigned long long>(rep.connections_dropped_malformed));
    integrity_json = buf;
  } else {
    auto probe = MustConnect(host, port);
    auto stats_or = probe->Stats();
    LSMSSD_CHECK(stats_or.ok()) << stats_or.status().ToString();
    clean = stats_or->quarantined_blocks == 0 &&
            stats_or->scrub_corruptions == 0;
    std::cout << "\nintegrity (remote): quarantined="
              << stats_or->quarantined_blocks
              << " scrub_corruptions=" << stats_or->scrub_corruptions
              << "\n";
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "  \"integrity\": {\"quarantined_blocks\": %llu, "
        "\"scrub_corruptions\": %llu, \"remote\": true},\n",
        static_cast<unsigned long long>(stats_or->quarantined_blocks),
        static_cast<unsigned long long>(stats_or->scrub_corruptions));
    integrity_json = buf;
  }

  std::string json = "{\n  \"bench\": \"server_ycsb\",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": %g,\n  \"threads\": %zu,\n"
                  "  \"host_cpus\": %u,\n  \"git\": \"%s\",\n"
                  "  \"records\": %llu,\n  \"ops_per_workload\": %llu,\n"
                  "  \"window_ms\": %llu,\n  \"load_seconds\": %.3f,\n",
                  scale, threads, HostCpus(), GitDescribe().c_str(),
                  static_cast<unsigned long long>(records),
                  static_cast<unsigned long long>(ops),
                  static_cast<unsigned long long>(kWindowMs), load_seconds);
    json += buf;
  }
  json += "  \"workloads\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    json += PhaseJson(results[i], YcsbWorkload::MixString(results[i].workload));
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  if (soak_seconds > 0) {
    json += "  \"soak\":\n" + PhaseJson(soak, "sustained A + maintenance") +
            ",\n";
  }
  json += integrity_json;
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  \"total_errors\": %llu\n",
                  static_cast<unsigned long long>(total_errors));
    json += buf;
  }
  json += "}\n";
  std::ofstream out(json_path);
  out << json;
  out.close();
  std::cerr << "  [ycsb] wrote " << json_path << "\n";

  if (total_errors > 0 || !clean) {
    std::cerr << "FAILED: " << total_errors << " request errors, store "
              << (clean ? "clean" : "NOT clean") << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lsmssd::bench

int main(int argc, char** argv) {
  return lsmssd::bench::Main(argc, argv);
}
