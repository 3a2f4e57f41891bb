// lsmssd_cli — command-line driver for the library.
//
//   lsmssd_cli run   [--workload=uniform|normal|tpc] [--policy=ChooseBest]
//                    [--size-mb=1.5] [--requests-mb=2] [--preserve=1]
//                    [--bloom=0] [--cache-blocks=0] [--trace-in=FILE]
//       Grow an index to the target size, reach the steady state, run a
//       measurement window, and print the paper's metrics.
//
//   lsmssd_cli run --db-path=DIR [--workload=...] [--n=50000]
//                  [--policy=ChooseBest] [--bloom=0] [--cache-blocks=0]
//                  [--sync=always|everyn|none] [--sync-n=64]
//                  [--checkpoint-wal-mb=8] [--threads=1]
//                  [--background-compaction] [--shards=1]
//                  [--scrub-interval-ms=0] [--max-device-blocks=0]
//       Persistent mode: open (or crash-recover) the Db at DIR, apply n
//       workload requests through the WAL, checkpoint on exit, and print
//       the Db stats. Re-running continues where the last run stopped.
//       --threads=T splits the n requests over T concurrent writers
//       (each with its own workload stream seeded seed+t), exercising
//       the Db's group commit and background checkpointing.
//       --background-compaction moves flushes and merges off the write
//       path onto a compaction thread (default off: the writer that
//       seals a full memtable runs the same steps itself); the stats
//       line then reports queue depth, throttle/stall counts, and the
//       stall-latency histogram.
//       --shards=N hash-partitions keys over N independent LSM shards
//       (each with its own WAL, device file, and compaction thread); the
//       layout is recorded in DIR/SHARDS, so later runs may omit the
//       flag. The stats line then adds the shard count, and every
//       counter (stall fields included) is aggregated across the shards.
//
//   lsmssd_cli serve --db-path=DIR [--host=127.0.0.1] [--port=0]
//                    [--workers=4] [--drain-timeout-ms=5000]
//                    [--max-pending-frames=4096]
//                    [Db flags as for run --db-path]
//       Open the Db and serve it over the versioned binary protocol
//       (src/net/wire.h) until SIGINT/SIGTERM. Prints
//       "listening on HOST:PORT" once the socket is bound (--port=0
//       picks an ephemeral port — parse that line to find it). On
//       SIGTERM/SIGINT the server *drains*: it stops accepting, answers
//       every in-flight frame (stragglers get kShuttingDown), flushes,
//       and only then falls back to cutting connections at the
//       --drain-timeout-ms deadline; the Db checkpoints and the stats
//       (including quarantined_blocks) are printed.
//       --max-pending-frames caps decoded-but-unexecuted requests across
//       all connections; excess requests are answered kOverloaded with a
//       retry-after hint instead of queueing without bound.
//
//   lsmssd_cli ping --port=P [--host=127.0.0.1] [--timeout-ms=1000]
//                   [--attempts=1]
//       Health check: one PING round trip (exit 0 = server answered).
//       --attempts>1 retries with exponential backoff — the readiness
//       poll `scripts/server_smoke.sh` uses instead of sleeping.
//
//   lsmssd_cli trace [--workload=...] [--n=100000] --out=FILE
//       Capture a deterministic workload trace for replay.
//
//   lsmssd_cli manifest --dump=FILE
//       Print a summary of a saved manifest.
//
//   lsmssd_cli scrub --db-path=DIR
//       Offline integrity check: verify the checksum of every block the
//       manifest references without opening the Db. A sharded root
//       (DIR/SHARDS present) is walked shard by shard with a per-shard
//       damage report. Exits 0 when clean, 1 when any block is corrupt
//       or unreadable.
//
// Flag parsing, validation, and DbOptions construction are shared with
// every other tool through src/db/db_flags.h — a bad flag fails with
// usage before anything touches the filesystem.

#include <csignal>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/experiment.h"
#include "src/db/db.h"
#include "src/db/db_flags.h"
#include "src/lsm/manifest.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/storage/file_block_device.h"
#include "src/workload/trace.h"

namespace lsmssd::bench {
namespace {

using Flags = FlagMap;

/// Prints a flag error plus the usage pointer; returns exit code 2.
/// Called before any directory is created, so a typo never leaves
/// state behind.
int FailUsage(const Status& status) {
  std::cerr << status.message() << "\n"
            << "usage: lsmssd_cli run|serve|ping|trace|manifest|scrub "
               "[--flag=value ...] (see source header for flags)\n";
  return 2;
}

StatusOr<WorkloadSpec> SpecFromFlags(const Flags& flags) {
  WorkloadSpec spec;
  const std::string name = FlagOr(flags, "workload", "uniform");
  if (name == "uniform") {
    spec.kind = WorkloadKind::kUniform;
  } else if (name == "normal") {
    spec.kind = WorkloadKind::kNormal;
  } else if (name == "tpc") {
    spec.kind = WorkloadKind::kTpc;
  } else {
    return Status::InvalidArgument("unknown workload: " + name +
                                   " (use uniform|normal|tpc)");
  }
  LSMSSD_ASSIGN_OR_RETURN(spec.seed, FlagUint(flags, "seed", 1));
  LSMSSD_ASSIGN_OR_RETURN(spec.sigma_fraction,
                          FlagDouble(flags, "sigma", 0.005));
  return spec;
}

int CmdRun(const Flags& flags) {
  if (Status st = CheckKnownFlags(
          flags, {"workload", "seed", "sigma", "policy", "preserve", "bloom",
                  "cache-blocks", "size-mb", "requests-mb", "trace-in"});
      !st.ok()) {
    return FailUsage(st);
  }
  PolicyKind kind;
  const std::string policy_name = FlagOr(flags, "policy", "ChooseBest");
  if (!ParsePolicyKind(policy_name, &kind)) {
    return FailUsage(Status::InvalidArgument(
        "unknown policy: " + policy_name +
        " (use Full|RR|ChooseBest|Mixed|TestMixed|PartitionedCB)"));
  }
  Options options = BenchOptions();
  auto bloom_or = FlagUint(flags, "bloom", 0);
  if (!bloom_or.ok()) return FailUsage(bloom_or.status());
  options.bloom_bits_per_key = *bloom_or;
  // Buffer cache in blocks (0 = off). Caching never changes write counts;
  // hits/misses show up in the device stats line.
  auto cache_or = FlagUint(flags, "cache-blocks", 0);
  if (!cache_or.ok()) return FailUsage(cache_or.status());
  options.cache_blocks = *cache_or;
  PolicySpec policy{policy_name, kind,
                    FlagOr(flags, "preserve", "1") != "0"};

  auto size_or = FlagDouble(flags, "size-mb", 1.5);
  if (!size_or.ok()) return FailUsage(size_or.status());
  auto window_or = FlagDouble(flags, "requests-mb", 2);
  if (!window_or.ok()) return FailUsage(window_or.status());
  const double size_mb = *size_or;
  const double window_mb = *window_or;

  auto spec_or = SpecFromFlags(flags);
  if (!spec_or.ok()) return FailUsage(spec_or.status());
  Experiment exp(options, policy, *spec_or);

  // Optional trace replay instead of the generator.
  std::unique_ptr<TraceWorkload> trace_workload;
  std::unique_ptr<WorkloadDriver> trace_driver;
  if (flags.contains("trace-in")) {
    auto trace = LoadTraceFromFile(flags.at("trace-in"));
    if (!trace.ok()) {
      std::cerr << "trace load failed: " << trace.status().ToString()
                << "\n";
      return 1;
    }
    trace_workload = std::make_unique<TraceWorkload>(std::move(*trace));
    trace_driver = std::make_unique<WorkloadDriver>(&exp.tree(),
                                                    trace_workload.get());
    Status st = trace_driver->Run(trace_workload->remaining());
    if (!st.ok()) {
      std::cerr << "replay failed: " << st.ToString() << "\n";
      return 1;
    }
  } else {
    Status st = exp.PrepareSteadyState(size_mb);
    if (!st.ok()) {
      std::cerr << "prepare failed: " << st.ToString() << "\n";
      return 1;
    }
    auto metrics = exp.Measure(window_mb);
    if (!metrics.ok()) {
      std::cerr << "measure failed: " << metrics.status().ToString() << "\n";
      return 1;
    }
    std::cout << "steady-state window (" << window_mb << " MB of requests):\n"
              << "  blocks written per MB : " << metrics->BlocksPerMb()
              << "\n"
              << "  seconds per MB        : " << metrics->SecondsPerMb()
              << "\n";
    if (policy.kind == PolicyKind::kMixed) {
      std::cout << "  learned parameters    : "
                << exp.learned_params().ToString() << "\n";
    }
  }

  LsmTree& tree = exp.tree();
  std::cout << "\nindex: " << tree.num_levels() << " levels, "
            << tree.TotalRecords() << " records, "
            << tree.ApproximateDataBytes() / (1024.0 * 1024.0) << " MB\n";
  for (size_t i = 1; i < tree.num_levels(); ++i) {
    std::cout << "  L" << i << ": " << tree.level(i).size_blocks() << "/"
              << tree.LevelCapacityBlocks(i) << " blocks, waste "
              << tree.level(i).waste_factor() << "\n";
  }
  std::cout << "device: " << exp.device().stats().ToString() << "\n";
  std::cout << "\nper-level merge stats:\n" << tree.stats().ToString();
  return 0;
}

/// Prints the per-shard index summary and the stats line (shared by the
/// run and serve epilogues).
void PrintDbSummary(Db& db) {
  // One index summary per engine; only a sharded Db labels them.
  for (size_t s = 0; s < db.shard_count(); ++s) {
    const LsmTree& tree = *db.shard(s)->tree();
    std::cout << "\nindex";
    if (db.shard_count() > 1) std::cout << " (shard " << s << ")";
    std::cout << ": " << tree.num_levels() << " levels, "
              << tree.TotalRecords() << " records, "
              << tree.ApproximateDataBytes() / (1024.0 * 1024.0) << " MB\n";
    for (size_t i = 1; i < tree.num_levels(); ++i) {
      std::cout << "  L" << i << ": " << tree.level(i).size_blocks() << "/"
                << tree.LevelCapacityBlocks(i) << " blocks, waste "
                << tree.level(i).waste_factor() << "\n";
    }
  }
  std::cout << "\n" << db.Stats().ToString();
}

// Persistent mode: the workload runs against a crash-safe Db directory
// instead of a fresh in-memory device. Every request goes through the
// WAL; the run ends with a checkpoint so the next invocation restores
// from the manifest alone.
int CmdRunDb(const Flags& flags) {
  std::vector<std::string_view> known = {"db-path", "workload", "seed",
                                         "sigma",   "n",        "threads"};
  AppendDbFlagNames(&known);
  if (Status st = CheckKnownFlags(flags, known); !st.ok()) {
    return FailUsage(st);
  }
  auto dbopts_or = DbOptionsFromFlags(flags, BenchOptions());
  if (!dbopts_or.ok()) return FailUsage(dbopts_or.status());
  auto n_or = FlagUint(flags, "n", 50000);
  if (!n_or.ok()) return FailUsage(n_or.status());
  auto threads_or = FlagUint(flags, "threads", 1);
  if (!threads_or.ok()) return FailUsage(threads_or.status());
  if (*threads_or == 0) {
    return FailUsage(Status::InvalidArgument("--threads must be >= 1"));
  }
  auto base_spec_or = SpecFromFlags(flags);
  if (!base_spec_or.ok()) return FailUsage(base_spec_or.status());
  const uint64_t n = *n_or;
  const uint64_t threads = *threads_or;

  auto db_or = Db::Open(*dbopts_or, flags.at("db-path"));
  if (!db_or.ok()) {
    std::cerr << "open failed: " << db_or.status().ToString() << "\n";
    return 1;
  }
  Db& db = *db_or.value();
  {
    const DbStats s = db.Stats();
    std::cout << "opened " << db.dir() << ": restored "
              << s.recovery_manifest_blocks << " manifest blocks, replayed "
              << s.recovery_wal_entries_replayed << " WAL entries\n";
  }

  if (threads == 1) {
    // Single stream: byte-identical to the historical sequential path.
    auto workload = MakeWorkload(*base_spec_or);
    for (uint64_t i = 0; i < n; ++i) {
      const WorkloadRequest req = workload->Next();
      Status st = req.kind == WorkloadRequest::Kind::kDelete
                      ? db.Delete(req.key)
                      : db.Put(req.key, MakePayload(db.options(), req.key));
      if (!st.ok()) {
        std::cerr << "request " << i << " failed: " << st.ToString() << "\n";
        return 1;
      }
    }
  } else {
    // T concurrent writers, each with its own generator (seed+t) and an
    // even share of the n requests; group commit batches their syncs and
    // the maintenance thread absorbs the checkpoints.
    const WorkloadSpec base_spec = *base_spec_or;
    std::atomic<bool> ok{true};
    std::vector<std::thread> workers;
    for (uint64_t t = 0; t < threads; ++t) {
      workers.emplace_back([&db, &ok, base_spec, n, threads, t] {
        WorkloadSpec spec = base_spec;
        spec.seed += t;
        auto workload = MakeWorkload(spec);
        const uint64_t share = n / threads + (t < n % threads ? 1 : 0);
        for (uint64_t i = 0; i < share; ++i) {
          const WorkloadRequest req = workload->Next();
          Status st =
              req.kind == WorkloadRequest::Kind::kDelete
                  ? db.Delete(req.key)
                  : db.Put(req.key, MakePayload(db.options(), req.key));
          if (!st.ok()) {
            std::cerr << "writer " << t << " request " << i
                      << " failed: " << st.ToString() << "\n";
            ok.store(false);
            return;
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    if (!ok.load()) return 1;
  }
  // Drain the compaction queue before the final checkpoint: a busy
  // compaction thread may still hold sealed memtables, and the one-shot
  // run contract is queue_depth=0 in the exit stats.
  if (Status st = db.WaitForCompaction(); !st.ok()) {
    std::cerr << "compaction drain failed: " << st.ToString() << "\n";
    return 1;
  }
  if (Status st = db.Checkpoint(); !st.ok()) {
    std::cerr << "final checkpoint failed: " << st.ToString() << "\n";
    return 1;
  }

  std::cout << "applied " << n << " requests\n";
  PrintDbSummary(db);
  return 0;
}

std::atomic<int> g_stop_signal{0};

void HandleStopSignal(int sig) { g_stop_signal.store(sig); }

// Serve the Db over the versioned binary protocol until SIGINT/SIGTERM.
int CmdServe(const Flags& flags) {
  std::vector<std::string_view> known = {"db-path", "host", "port", "workers",
                                         "drain-timeout-ms",
                                         "max-pending-frames"};
  AppendDbFlagNames(&known);
  if (Status st = CheckKnownFlags(flags, known); !st.ok()) {
    return FailUsage(st);
  }
  if (!flags.contains("db-path")) {
    return FailUsage(
        Status::InvalidArgument("serve requires --db-path=DIR"));
  }
  auto dbopts_or = DbOptionsFromFlags(flags, BenchOptions());
  if (!dbopts_or.ok()) return FailUsage(dbopts_or.status());
  auto port_or = FlagUint(flags, "port", 0);
  if (!port_or.ok()) return FailUsage(port_or.status());
  if (*port_or > 65535) {
    return FailUsage(Status::InvalidArgument("--port must be <= 65535"));
  }
  auto workers_or = FlagUint(flags, "workers", 4);
  if (!workers_or.ok()) return FailUsage(workers_or.status());
  if (*workers_or == 0) {
    return FailUsage(Status::InvalidArgument("--workers must be >= 1"));
  }
  auto drain_ms_or = FlagUint(flags, "drain-timeout-ms", 5000);
  if (!drain_ms_or.ok()) return FailUsage(drain_ms_or.status());
  auto max_pending_or = FlagUint(flags, "max-pending-frames", 4096);
  if (!max_pending_or.ok()) return FailUsage(max_pending_or.status());

  auto db_or = Db::Open(*dbopts_or, flags.at("db-path"));
  if (!db_or.ok()) {
    std::cerr << "open failed: " << db_or.status().ToString() << "\n";
    return 1;
  }
  Db& db = *db_or.value();
  {
    const DbStats s = db.Stats();
    std::cout << "opened " << db.dir() << ": restored "
              << s.recovery_manifest_blocks << " manifest blocks, replayed "
              << s.recovery_wal_entries_replayed << " WAL entries\n";
  }

  net::ServerOptions sopts;
  sopts.host = FlagOr(flags, "host", "127.0.0.1");
  sopts.port = static_cast<uint16_t>(*port_or);
  sopts.workers = static_cast<size_t>(*workers_or);
  sopts.max_pending_frames = static_cast<size_t>(*max_pending_or);
  auto server_or = net::Server::Start(sopts, &db);
  if (!server_or.ok()) {
    std::cerr << "server start failed: " << server_or.status().ToString()
              << "\n";
    return 1;
  }
  net::Server& server = **server_or;
  // Scripted callers (the CI smoke job, the bench in spawn mode) parse
  // this exact line for the resolved port; keep it first and flushed.
  std::cout << "listening on " << sopts.host << ":" << server.port()
            << std::endl;

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleStopSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (g_stop_signal.load() == 0 && !db.failed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int sig = g_stop_signal.load();
  std::cout << (sig != 0 ? (sig == SIGINT ? "SIGINT" : "SIGTERM")
                         : "db failure")
            << ": shutting down\n";

  const bool drained =
      server.Drain(static_cast<int>(std::min<uint64_t>(*drain_ms_or, 1u << 30)));
  const net::ServerCounters counters = server.counters();
  std::cout << "drain " << (drained ? "clean" : "timed out") << " ("
            << counters.frames_rejected_shutdown
            << " frames rejected kShuttingDown)\n";
  if (Status st = db.Checkpoint(); !st.ok()) {
    std::cerr << "final checkpoint failed: " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "served " << counters.frames_processed << " frames ("
            << counters.frames_inline << " on the event loop) over "
            << counters.connections_accepted << " connections ("
            << counters.connections_dropped_malformed
            << " dropped malformed, " << counters.unsupported_version_frames
            << " unsupported-version, " << counters.frames_shed_overload
            << " shed overloaded)\n";
  std::cout << "quarantined_blocks " << db.Stats().quarantined_blocks.size()
            << "\n";
  PrintDbSummary(db);
  return db.failed() ? 1 : 0;
}

// One PING round trip, with optional retry/backoff — the scriptable
// readiness probe (a server that answers PING is accepting and serving).
int CmdPing(const Flags& flags) {
  if (Status st = CheckKnownFlags(flags,
                                  {"host", "port", "timeout-ms", "attempts"});
      !st.ok()) {
    return FailUsage(st);
  }
  auto port_or = FlagUint(flags, "port", 0);
  if (!port_or.ok()) return FailUsage(port_or.status());
  if (*port_or == 0 || *port_or > 65535) {
    return FailUsage(Status::InvalidArgument("ping requires --port=1..65535"));
  }
  auto timeout_or = FlagUint(flags, "timeout-ms", 1000);
  if (!timeout_or.ok()) return FailUsage(timeout_or.status());
  auto attempts_or = FlagUint(flags, "attempts", 1);
  if (!attempts_or.ok()) return FailUsage(attempts_or.status());
  if (*attempts_or == 0) {
    return FailUsage(Status::InvalidArgument("--attempts must be >= 1"));
  }

  net::ClientOptions copts;
  copts.host = FlagOr(flags, "host", "127.0.0.1");
  copts.port = static_cast<uint16_t>(*port_or);
  copts.connect_timeout_ms = static_cast<int>(*timeout_or);
  copts.io_timeout_ms = static_cast<int>(*timeout_or);
  copts.retry.max_attempts = static_cast<int>(*attempts_or);
  copts.retry.initial_backoff_ms = 50;
  copts.retry.max_backoff_ms = 500;

  // Connect() itself is outside the client's retry loop (there is no
  // client yet), so the probe retries the dial here with the same
  // budget — connection refused just means "not listening yet".
  const auto start = std::chrono::steady_clock::now();
  Status last = Status::OK();
  for (uint64_t attempt = 1; attempt <= *attempts_or; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<uint64_t>(50 * attempt, 500)));
    }
    auto client_or = net::Client::Connect(copts);
    if (!client_or.ok()) {
      last = client_or.status();
      continue;
    }
    last = (*client_or)->Ping();
    if (last.ok()) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
      std::cout << "pong from " << copts.host << ":" << copts.port << " in "
                << elapsed.count() << "ms (attempt " << attempt << ")\n";
      return 0;
    }
  }
  std::cerr << "ping failed: " << last.ToString() << "\n";
  return 1;
}

int CmdTrace(const Flags& flags) {
  if (Status st = CheckKnownFlags(flags,
                                  {"workload", "seed", "sigma", "n", "out"});
      !st.ok()) {
    return FailUsage(st);
  }
  if (!flags.contains("out")) {
    return FailUsage(Status::InvalidArgument("trace requires --out=FILE"));
  }
  auto n_or = FlagUint(flags, "n", 100000);
  if (!n_or.ok()) return FailUsage(n_or.status());
  auto spec_or = SpecFromFlags(flags);
  if (!spec_or.ok()) return FailUsage(spec_or.status());
  auto workload = MakeWorkload(*spec_or);
  const auto trace = CaptureTrace(workload.get(), *n_or);
  Status st = SaveTraceToFile(trace, flags.at("out"));
  if (!st.ok()) {
    std::cerr << "save failed: " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "captured " << trace.size() << " requests to "
            << flags.at("out") << "\n";
  return 0;
}

int CmdManifest(const Flags& flags) {
  if (Status st = CheckKnownFlags(flags, {"dump"}); !st.ok()) {
    return FailUsage(st);
  }
  if (!flags.contains("dump")) {
    return FailUsage(Status::InvalidArgument("manifest requires --dump=FILE"));
  }
  auto manifest = LoadManifestFromFile(flags.at("dump"));
  if (!manifest.ok()) {
    std::cerr << "load failed: " << manifest.status().ToString() << "\n";
    return 1;
  }
  const Manifest& m = manifest.value();
  std::cout << "manifest: block_size=" << m.options.block_size
            << " payload=" << m.options.payload_size
            << " Gamma=" << m.options.gamma << " K0="
            << m.options.level0_capacity_blocks << "\n"
            << "memtable: " << m.memtable_records.size() << " records\n";
  for (size_t i = 0; i < m.levels.size(); ++i) {
    uint64_t records = 0;
    for (const auto& leaf : m.levels[i]) records += leaf.count;
    std::cout << "L" << i + 1 << ": " << m.levels[i].size() << " leaves, "
              << records << " records";
    if (!m.levels[i].empty()) {
      std::cout << ", keys [" << m.levels[i].front().min_key << ", "
                << m.levels[i].back().max_key << "]";
    }
    std::cout << "\n";
  }
  return 0;
}

/// Verifies every manifest-live block of the single-shard Db directory
/// `dir`. `label` prefixes the report line ("" for an unsharded root).
/// Returns the corrupt-block count, or -1 when the directory itself is
/// unreadable.
int64_t ScrubOneDir(const std::string& dir, const std::string& label) {
  auto manifest_or = LoadManifestFromFile(Db::ManifestPath(dir));
  if (!manifest_or.ok()) {
    std::cerr << label << "manifest load failed: "
              << manifest_or.status().ToString() << "\n";
    return -1;
  }
  const Manifest& m = manifest_or.value();
  std::vector<BlockId> live;
  for (const auto& level : m.levels) {
    for (const auto& leaf : level) live.push_back(leaf.block);
  }
  FileBlockDevice::FileOptions fopts;
  fopts.block_size = m.options.block_size;
  fopts.remove_on_close = false;
  fopts.truncate = false;
  auto device_or = FileBlockDevice::Open(Db::DevicePath(dir), fopts);
  if (!device_or.ok()) {
    std::cerr << label << "device open failed: "
              << device_or.status().ToString() << "\n";
    return -1;
  }
  FileBlockDevice* device = device_or.value().get();
  if (Status st = device->RestoreLive(live); !st.ok()) {
    std::cerr << label << "restore failed: " << st.ToString() << "\n";
    return -1;
  }
  std::sort(live.begin(), live.end());
  uint64_t clean = 0;
  uint64_t corrupt = 0;
  for (BlockId id : live) {
    Status st = device->VerifyBlock(id);
    if (st.ok()) {
      ++clean;
    } else {
      ++corrupt;
      std::cerr << label << "block " << id << ": " << st.ToString() << "\n";
    }
  }
  std::cout << label << "scrub: " << clean << " clean, " << corrupt
            << " corrupt of " << live.size() << " manifest blocks\n";
  return static_cast<int64_t>(corrupt);
}

int CmdScrub(const Flags& flags) {
  if (Status st = CheckKnownFlags(flags, {"db-path"}); !st.ok()) {
    return FailUsage(st);
  }
  if (!flags.contains("db-path")) {
    return FailUsage(Status::InvalidArgument("scrub requires --db-path=DIR"));
  }
  const std::string dir = flags.at("db-path");

  // A sharded root carries a SHARDS layout file; walk every shard and
  // report damage per shard so the operator knows which device file to
  // restore. Any unreadable shard fails the whole scrub.
  auto layout_or = Db::ReadShardLayout(dir);
  if (layout_or.ok()) {
    const size_t n = layout_or.value();
    std::cout << "sharded root: " << n << " shards\n";
    uint64_t corrupt_total = 0;
    bool failed = false;
    for (size_t s = 0; s < n; ++s) {
      const int64_t corrupt = ScrubOneDir(
          Db::ShardDirPath(dir, s), "shard " + std::to_string(s) + ": ");
      if (corrupt < 0) {
        failed = true;
      } else {
        corrupt_total += static_cast<uint64_t>(corrupt);
      }
    }
    std::cout << "total: " << corrupt_total << " corrupt across " << n
              << " shards\n";
    return (failed || corrupt_total > 0) ? 1 : 0;
  }
  if (!layout_or.status().IsNotFound()) {
    // A SHARDS file exists but cannot be trusted (torn or tampered).
    std::cerr << "shard layout: " << layout_or.status().ToString() << "\n";
    return 1;
  }

  const int64_t corrupt = ScrubOneDir(dir, "");
  return corrupt == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: lsmssd_cli run|serve|ping|trace|manifest|scrub "
                 "[--flag=value ...]\n";
    return 2;
  }
  const std::string command = argv[1];
  auto flags_or = ParseFlagArgs(argc, argv, 2);
  if (!flags_or.ok()) return FailUsage(flags_or.status());
  const Flags& flags = *flags_or;
  if (command == "run") {
    return flags.contains("db-path") ? CmdRunDb(flags) : CmdRun(flags);
  }
  if (command == "serve") return CmdServe(flags);
  if (command == "ping") return CmdPing(flags);
  if (command == "trace") return CmdTrace(flags);
  if (command == "manifest") return CmdManifest(flags);
  if (command == "scrub") return CmdScrub(flags);
  std::cerr << "unknown command: " << command << "\n";
  return 2;
}

}  // namespace
}  // namespace lsmssd::bench

int main(int argc, char** argv) { return lsmssd::bench::Main(argc, argv); }
