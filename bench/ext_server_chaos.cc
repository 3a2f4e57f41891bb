// Extension experiment: chaos soak of the serving path.
//
// The YCSB server bench measures the request path when everything works;
// this one measures whether the *robustness* machinery keeps its
// promises when nothing does. Three phases, each with a hard oracle:
//
//  1. Overload burst — a small worker pool with a tiny pending-frame cap
//     is blasted by pipelined raw connections. Every frame must be
//     answered (OK or kOverloaded with a retry-after hint), the server
//     must shed rather than queue, and a well-behaved retrying client
//     running through the same storm must finish with zero errors.
//
//  2. Fault soak — YCSB-A-shaped load where every client socket runs
//     through a SocketFaultInjector (periodic resets, mid-frame
//     truncations, EINTR/EAGAIN, short I/O), the shared FaultInjector
//     clock is armed into coordinated reset storms, and the server is
//     abruptly killed and restarted mid-soak (--kills times, same dir,
//     same port — recovery from WAL + checkpoint). Clients ride through
//     on retry/reconnect with per-request sequence tokens; the WAL runs
//     in sync-always mode so an acked write is durable by definition.
//
//  3. Verification — a clean, fault-free client reads every record back.
//     Each thread owns the key indices congruent to its id, writes
//     self-describing stamped values ("C<index>:<version>;…"), and
//     tracks the last acked and last issued version per index. The store
//     must hold, for every index, a version v with acked <= v <= issued
//     (v < acked is a lost acked write; v > issued is fabrication), and
//     the stamp's index must match the key. Zero tolerance.
//
// The epilogue drains the server gracefully and requires the usual
// integrity report: zero scrub corruptions, zero quarantined blocks,
// zero leaked device blocks — chaos is not an excuse for a dirty store.
//
// Results land on stdout and in BENCH_server_chaos.json.
//
//   --records=N  --threads=T  --soak-seconds=S  --kills=K
//   --burst-conns=N  --burst-frames=N  --json=PATH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/embedded_server.h"
#include "bench/harness/experiment.h"
#include "src/net/client.h"
#include "src/net/fault_socket.h"
#include "src/storage/fault_injection.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

namespace lsmssd::bench {
namespace {

using net::Client;
using net::ClientOptions;
using net::Frame;
using net::Opcode;
using net::SocketFaultConfig;
using net::SocketFaultInjector;

double Scale() {
  const char* scale = std::getenv("LSMSSD_SCALE");
  if (scale == nullptr) return 1.0;
  const double v = std::atof(scale);
  return v > 0 ? v : 1.0;
}

Key KeyForIndex(uint64_t index) { return static_cast<Key>(index + 1); }

/// Self-describing value: "C<index>:<version>;" padded to the store's
/// fixed payload width. The stamp is the oracle — any byte the store
/// loses or misdirects shows up as a parse failure or an index mismatch.
std::string Stamp(uint64_t index, uint64_t version, size_t payload_size) {
  std::string v = "C" + std::to_string(index) + ":" +
                  std::to_string(version) + ";";
  LSMSSD_CHECK(v.size() <= payload_size)
      << "payload width " << payload_size << " too small for stamps";
  v.resize(payload_size, 'x');
  return v;
}

bool ParseStamp(std::string_view value, uint64_t* index, uint64_t* version) {
  if (value.empty() || value[0] != 'C') return false;
  size_t pos = 1;
  auto digits = [&](uint64_t* out) {
    bool any = false;
    *out = 0;
    while (pos < value.size() && value[pos] >= '0' && value[pos] <= '9') {
      *out = *out * 10 + static_cast<uint64_t>(value[pos] - '0');
      ++pos;
      any = true;
    }
    return any;
  };
  if (!digits(index)) return false;
  if (pos >= value.size() || value[pos] != ':') return false;
  ++pos;
  if (!digits(version)) return false;
  return pos < value.size() && value[pos] == ';';
}

uint64_t ElapsedMs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// ---------------------------------------------------------------------------
// Phase 1: overload burst.
// ---------------------------------------------------------------------------

struct OverloadResult {
  uint64_t frames_sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;           ///< kOverloaded replies.
  uint64_t backpressure = 0;   ///< ResourceExhausted (engine stall).
  uint64_t other_errors = 0;
  uint64_t hint_parsed = 0;    ///< Shed replies with a retry_after_ms hint.
  uint32_t hint_ms = 0;        ///< Last parsed hint value.
  uint64_t retry_client_ops = 0;
  uint64_t retry_client_errors = 0;
  uint64_t retry_client_overloaded = 0;  ///< Rejections it retried through.
  uint64_t server_shed_counter = 0;
  double seconds = 0;
};

OverloadResult RunOverloadPhase(size_t burst_conns, uint64_t burst_frames) {
  EmbeddedServerOptions eopts;
  eopts.dir = (std::filesystem::temp_directory_path() /
               "lsmssd_server_chaos_overload")
                  .string();
  eopts.server_workers = 1;        // One slow executor...
  eopts.wal_sync_always = true;    // ...made slower: every put fsyncs.
  eopts.max_pending_frames = 16;   // ...behind a tiny pending-work cap.
  eopts.overload_retry_after_ms = 5;
  auto embedded_or = EmbeddedServer::Start(eopts);
  LSMSSD_CHECK(embedded_or.ok())
      << "overload server: " << embedded_or.status().ToString();
  auto embedded = std::move(embedded_or).value();
  const uint16_t port = embedded->port();

  size_t payload_size = 0;
  {
    ClientOptions copts;
    copts.port = port;
    auto probe_or = Client::Connect(copts);
    LSMSSD_CHECK(probe_or.ok()) << probe_or.status().ToString();
    auto stats_or = (*probe_or)->Stats();
    LSMSSD_CHECK(stats_or.ok()) << stats_or.status().ToString();
    payload_size = stats_or->payload_size;
  }
  const std::string value(payload_size, 'b');

  OverloadResult r;
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<uint64_t> ok{0}, shed{0}, backpressure{0}, other{0};
  std::atomic<uint64_t> hints{0};
  std::atomic<uint32_t> hint_ms{0};

  // Raw pipelined blasters: send the whole burst, then read every reply.
  // The oracle is conservation — exactly one response per request frame,
  // in order, even for the frames the server refused to execute.
  std::vector<std::thread> blasters;
  for (size_t c = 0; c < burst_conns; ++c) {
    blasters.emplace_back([&, c] {
      ClientOptions copts;
      copts.port = port;
      auto client_or = Client::Connect(copts);
      LSMSSD_CHECK(client_or.ok()) << client_or.status().ToString();
      auto client = std::move(client_or).value();
      for (uint64_t i = 0; i < burst_frames; ++i) {
        const Key key = KeyForIndex(c * burst_frames + i);
        Status st = client->SendRaw(static_cast<uint8_t>(Opcode::kPut),
                                    net::EncodePutRequest(key, value));
        LSMSSD_CHECK(st.ok()) << "burst send: " << st.ToString();
      }
      for (uint64_t i = 0; i < burst_frames; ++i) {
        Frame frame;
        Status st = client->ReceiveResponse(&frame);
        LSMSSD_CHECK(st.ok()) << "burst recv: " << st.ToString();
        std::string_view body;
        Status decoded = net::DecodeResponseStatus(frame.payload, &body);
        if (decoded.ok()) {
          ok.fetch_add(1);
        } else if (decoded.IsUnavailable()) {
          shed.fetch_add(1);
          uint32_t ms = 0;
          if (net::ParseRetryAfterMs(decoded.message(), &ms)) {
            hints.fetch_add(1);
            hint_ms.store(ms);
          }
        } else if (decoded.IsResourceExhausted()) {
          backpressure.fetch_add(1);
        } else {
          other.fetch_add(1);
          std::cerr << "  [chaos] unexpected burst reply: "
                    << decoded.ToString() << "\n";
        }
      }
    });
  }

  // A polite client lives through the same storm: bounded retries with
  // the server's retry-after hint as the backoff floor. It must finish
  // with zero errors — overload is survivable, not fatal.
  std::thread polite([&] {
    ClientOptions copts;
    copts.port = port;
    copts.retry.max_attempts = 64;
    copts.retry.initial_backoff_ms = 2;
    copts.retry.max_backoff_ms = 50;
    auto client_or = Client::Connect(copts);
    LSMSSD_CHECK(client_or.ok()) << client_or.status().ToString();
    auto client = std::move(client_or).value();
    const uint64_t polite_base = burst_conns * burst_frames + 1000;
    for (uint64_t i = 0; i < 20; ++i) {
      ++r.retry_client_ops;
      if (!client->Put(KeyForIndex(polite_base + i), value).ok()) {
        ++r.retry_client_errors;
      }
    }
    r.retry_client_overloaded = client->stats().overloaded_replies;
  });

  for (auto& t : blasters) t.join();
  polite.join();

  r.frames_sent = burst_conns * burst_frames;
  r.ok = ok.load();
  r.shed = shed.load();
  r.backpressure = backpressure.load();
  r.other_errors = other.load();
  r.hint_parsed = hints.load();
  r.hint_ms = hint_ms.load();
  r.seconds = static_cast<double>(ElapsedMs(t0)) / 1000.0;

  // The server's own shed counter travels in the STATS response; it must
  // agree with what the clients saw (the polite client's retried
  // rejections count too).
  {
    ClientOptions copts;
    copts.port = port;
    auto probe_or = Client::Connect(copts);
    LSMSSD_CHECK(probe_or.ok()) << probe_or.status().ToString();
    auto stats_or = (*probe_or)->Stats();
    LSMSSD_CHECK(stats_or.ok()) << stats_or.status().ToString();
    r.server_shed_counter = stats_or->frames_shed_overload;
  }
  auto report_or = embedded->Stop();
  LSMSSD_CHECK(report_or.ok()) << report_or.status().ToString();
  return r;
}

// ---------------------------------------------------------------------------
// Phase 2: fault soak with kill/restart.
// ---------------------------------------------------------------------------

struct SoakThreadAccum {
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allowed_errors = 0;   ///< Unavailable/TimedOut/ResourceExhausted.
  uint64_t hard_errors = 0;      ///< Anything else (except violations).
  uint64_t violations = 0;       ///< Lost/garbled data observed online.
  uint64_t max_op_ms = 0;
  net::ClientStats client;
  SocketFaultInjector::Counters injected;
};

struct SoakResult {
  SoakThreadAccum total;
  uint64_t kills = 0;
  uint64_t restarts = 0;
  uint64_t max_restart_ms = 0;
  uint64_t storms = 0;
  double seconds = 0;
};

SoakResult RunSoakPhase(uint64_t records, size_t threads, double soak_seconds,
                        uint64_t kills, size_t payload_size,
                        const std::string& host, uint16_t port,
                        std::unique_ptr<EmbeddedServer>* server,
                        const EmbeddedServerOptions& base_opts,
                        std::vector<uint64_t>* issued,
                        std::vector<uint64_t>* acked) {
  FaultInjector storm_clock;
  std::vector<SoakThreadAccum> accums(threads);
  std::vector<std::thread> runners;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(soak_seconds));

  for (size_t t = 0; t < threads; ++t) {
    runners.emplace_back([&, t] {
      SoakThreadAccum& acc = accums[t];
      SocketFaultConfig fcfg;
      fcfg.eintr_every = 17 + t;
      fcfg.eagain_every = 29 + t;
      fcfg.short_every = 41 + t;
      fcfg.short_bytes = 5;
      fcfg.truncate_every = 101 + 5 * t;
      fcfg.reset_every = 139 + 5 * t;
      SocketFaultInjector injector(&storm_clock, fcfg);

      ClientOptions copts;
      copts.host = host;
      copts.port = port;
      copts.connect_timeout_ms = 2000;
      copts.io_timeout_ms = 4000;
      copts.fault_injector = &injector;
      copts.retry.max_attempts = 10;
      copts.retry.initial_backoff_ms = 2;
      copts.retry.max_backoff_ms = 100;
      copts.retry.retry_writes = true;  // Stamped blind puts: idempotent.
      copts.retry.seed = 777 + t;
      auto client_or = Client::Connect(copts);
      LSMSSD_CHECK(client_or.ok()) << client_or.status().ToString();
      auto client = std::move(client_or).value();

      std::mt19937_64 rng(4242 + t);
      const uint64_t own_count = records / threads + (t < records % threads);
      for (uint64_t i = 0;; ++i) {
        if ((i & 15) == 0 && std::chrono::steady_clock::now() >= deadline) {
          break;
        }
        const auto op0 = std::chrono::steady_clock::now();
        Status st;
        if (rng() % 100 < 50 || own_count == 0) {
          // Read any index; the stamp must parse and name that index.
          const uint64_t idx = rng() % records;
          auto got = client->Get(KeyForIndex(idx));
          ++acc.reads;
          st = got.ok() ? Status::OK() : got.status();
          if (got.ok()) {
            uint64_t pidx = 0, pver = 0;
            if (got->size() != payload_size ||
                !ParseStamp(*got, &pidx, &pver) || pidx != idx) {
              ++acc.violations;
              std::cerr << "  [chaos] VIOLATION: bad stamp for index " << idx
                        << "\n";
            }
          } else if (got.status().IsNotFound()) {
            // Every index was ack-loaded before the soak and nothing
            // deletes: a miss is a lost acked write, observed live.
            ++acc.violations;
            std::cerr << "  [chaos] VIOLATION: lost index " << idx << "\n";
            st = Status::OK();  // Already accounted; not a transport error.
          }
        } else {
          // Write the next version of one of this thread's own indices.
          const uint64_t idx = t + threads * (rng() % own_count);
          const uint64_t version = ++(*issued)[idx];
          st = client->Put(KeyForIndex(idx),
                           Stamp(idx, version, payload_size));
          ++acc.writes;
          if (st.ok()) (*acked)[idx] = version;
        }
        ++acc.ops;
        acc.max_op_ms = std::max(acc.max_op_ms, ElapsedMs(op0));
        if (!st.ok()) {
          if (st.IsUnavailable() || st.IsTimedOut() ||
              st.IsResourceExhausted()) {
            ++acc.allowed_errors;
            // The server may be mid-restart; don't spin on refused dials.
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          } else {
            ++acc.hard_errors;
            std::cerr << "  [chaos] hard error: " << st.ToString() << "\n";
          }
        }
      }
      acc.client = client->stats();
      acc.injected = injector.counters();
    });
  }

  // Control thread: alternate reset storms (arm the shared clock — every
  // client's next I/O fails until disarm) with server kill/restart
  // cycles, evenly spaced across the soak window.
  SoakResult r;
  {
    struct Event {
      double frac;
      bool kill;
    };
    std::vector<Event> events;
    for (uint64_t k = 0; k <= kills; ++k) {
      events.push_back({(2.0 * k + 1.0) / (2.0 * (kills + 1)), false});
      if (k < kills) {
        events.push_back({static_cast<double>(k + 1) / (kills + 1), true});
      }
    }
    for (const Event& ev : events) {
      const auto when =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(soak_seconds * ev.frac));
      std::this_thread::sleep_until(when);
      if (std::chrono::steady_clock::now() >= deadline) break;
      if (ev.kill) {
        std::cerr << "  [chaos] kill #" << (r.kills + 1) << " at t+"
                  << ElapsedMs(start) << "ms\n";
        Status st = (*server)->Kill();
        LSMSSD_CHECK(st.ok()) << st.ToString();
        ++r.kills;
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        const auto r0 = std::chrono::steady_clock::now();
        EmbeddedServerOptions ropts = base_opts;
        ropts.wipe_dir = false;  // Recover from WAL + checkpoint.
        ropts.port = port;       // Clients re-dial the address they hold.
        auto restarted_or = EmbeddedServer::Start(ropts);
        LSMSSD_CHECK(restarted_or.ok())
            << "restart: " << restarted_or.status().ToString();
        *server = std::move(restarted_or).value();
        ++r.restarts;
        r.max_restart_ms = std::max(r.max_restart_ms, ElapsedMs(r0));
        std::cerr << "  [chaos] restarted in " << ElapsedMs(r0) << "ms\n";
      } else {
        storm_clock.Arm(0);  // Every step fails: a full partition.
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        storm_clock.Disarm();
        ++r.storms;
      }
    }
  }

  for (auto& t : runners) t.join();
  r.seconds = static_cast<double>(ElapsedMs(start)) / 1000.0;
  for (const SoakThreadAccum& acc : accums) {
    r.total.ops += acc.ops;
    r.total.reads += acc.reads;
    r.total.writes += acc.writes;
    r.total.allowed_errors += acc.allowed_errors;
    r.total.hard_errors += acc.hard_errors;
    r.total.violations += acc.violations;
    r.total.max_op_ms = std::max(r.total.max_op_ms, acc.max_op_ms);
    r.total.client.retries += acc.client.retries;
    r.total.client.reconnects += acc.client.reconnects;
    r.total.client.overloaded_replies += acc.client.overloaded_replies;
    r.total.client.send_timeouts += acc.client.send_timeouts;
    r.total.client.recv_timeouts += acc.client.recv_timeouts;
    r.total.client.abandoned_replies += acc.client.abandoned_replies;
    r.total.injected.delays += acc.injected.delays;
    r.total.injected.eintr += acc.injected.eintr;
    r.total.injected.eagain += acc.injected.eagain;
    r.total.injected.short_ios += acc.injected.short_ios;
    r.total.injected.truncations += acc.injected.truncations;
    r.total.injected.resets += acc.injected.resets;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Main.
// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  auto flags_or = ParseFlagArgs(argc, argv, 1);
  LSMSSD_CHECK(flags_or.ok()) << flags_or.status().ToString();
  const FlagMap& flags = *flags_or;
  if (Status st = CheckKnownFlags(
          flags, {"records", "threads", "soak-seconds", "kills",
                  "burst-conns", "burst-frames", "json"});
      !st.ok()) {
    std::cerr << st.message() << "\n";
    return 2;
  }

  const double scale = Scale();
  const uint64_t records =
      FlagUint(flags, "records",
               std::max<uint64_t>(512, static_cast<uint64_t>(4000 * scale)))
          .value();
  const size_t threads =
      static_cast<size_t>(FlagUint(flags, "threads", 4).value());
  const double soak_seconds =
      FlagDouble(flags, "soak-seconds", std::max(2.0, 5.0 * scale)).value();
  const uint64_t kills = FlagUint(flags, "kills", 2).value();
  const size_t burst_conns =
      static_cast<size_t>(FlagUint(flags, "burst-conns", 6).value());
  const uint64_t burst_frames = FlagUint(flags, "burst-frames", 256).value();
  const std::string json_path =
      FlagOr(flags, "json", "BENCH_server_chaos.json");
  LSMSSD_CHECK(threads > 0) << "--threads must be >= 1";

  std::cout << "== Extension: chaos-hardened serving ==\n"
            << "   " << records << " records, " << threads
            << " faulty clients, soak " << soak_seconds << "s, " << kills
            << " kill/restart cycles (LSMSSD_SCALE=" << scale << ")\n\n";

  // ---- Phase 1: overload burst -----------------------------------------
  std::cerr << "  [chaos] phase 1: overload burst (" << burst_conns << " x "
            << burst_frames << " pipelined puts, 1 worker, cap 16)\n";
  OverloadResult overload = RunOverloadPhase(burst_conns, burst_frames);
  const uint64_t answered =
      overload.ok + overload.shed + overload.backpressure +
      overload.other_errors;
  std::cout << "overload: sent=" << overload.frames_sent << " answered="
            << answered << " ok=" << overload.ok << " shed=" << overload.shed
            << " (server counter " << overload.server_shed_counter
            << ", hints=" << overload.hint_parsed << ", retry_after="
            << overload.hint_ms << "ms) polite_client_errors="
            << overload.retry_client_errors << "/"
            << overload.retry_client_ops << " (rode through "
            << overload.retry_client_overloaded << " rejections)\n";
  // Conservation: every blasted frame answered; the server's shed counter
  // equals the rejections all clients saw (blasters + polite retries).
  bool overload_ok = answered == overload.frames_sent && overload.shed > 0 &&
                     overload.server_shed_counter ==
                         overload.shed + overload.retry_client_overloaded &&
                     overload.hint_parsed > 0 && overload.other_errors == 0 &&
                     overload.retry_client_errors == 0;
  if (!overload_ok) std::cerr << "  [chaos] OVERLOAD PHASE FAILED\n";

  // ---- Phase 2: fault soak ---------------------------------------------
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lsmssd_server_chaos_soak")
          .string();
  EmbeddedServerOptions eopts;
  eopts.dir = dir;
  eopts.server_workers = 4;
  eopts.wal_sync_always = true;   // Acked == durable: the oracle's premise.
  eopts.background_compaction = true;
  eopts.checkpoint_wal_mb = 1;
  eopts.scrub_interval_ms = 25;
  auto embedded_or = EmbeddedServer::Start(eopts);
  LSMSSD_CHECK(embedded_or.ok())
      << "soak server: " << embedded_or.status().ToString();
  auto embedded = std::move(embedded_or).value();
  const uint16_t port = embedded->port();
  const std::string host = "127.0.0.1";

  size_t payload_size = 0;
  {
    ClientOptions copts;
    copts.port = port;
    auto probe_or = Client::Connect(copts);
    LSMSSD_CHECK(probe_or.ok()) << probe_or.status().ToString();
    auto stats_or = (*probe_or)->Stats();
    LSMSSD_CHECK(stats_or.ok()) << stats_or.status().ToString();
    payload_size = stats_or->payload_size;
  }

  // Ack-load every index at version 0 through clean clients; the soak
  // oracle (and its online read checks) build on "everything was acked
  // at least once".
  std::vector<uint64_t> issued(records, 0), acked(records, 0);
  {
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> loaders;
    for (size_t t = 0; t < threads; ++t) {
      loaders.emplace_back([&, t] {
        ClientOptions copts;
        copts.port = port;
        copts.retry.max_attempts = 5;
        auto client_or = Client::Connect(copts);
        LSMSSD_CHECK(client_or.ok()) << client_or.status().ToString();
        auto client = std::move(client_or).value();
        const uint64_t lo = records * t / threads;
        const uint64_t hi = records * (t + 1) / threads;
        for (uint64_t i = lo; i < hi; ++i) {
          if (!client->Put(KeyForIndex(i), Stamp(i, 0, payload_size)).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : loaders) t.join();
    LSMSSD_CHECK(failures.load() == 0)
        << failures.load() << " load puts failed";
  }
  std::cerr << "  [chaos] phase 2: fault soak (" << records
            << " records loaded)\n";

  SoakResult soak =
      RunSoakPhase(records, threads, soak_seconds, kills, payload_size, host,
                   port, &embedded, eopts, &issued, &acked);
  std::cout << "soak: ops=" << soak.total.ops << " (" << soak.total.reads
            << "r/" << soak.total.writes << "w) over " << soak.seconds
            << "s, kills=" << soak.kills << " restarts=" << soak.restarts
            << " (max " << soak.max_restart_ms << "ms) storms=" << soak.storms
            << "\n      client: retries=" << soak.total.client.retries
            << " reconnects=" << soak.total.client.reconnects
            << " abandoned=" << soak.total.client.abandoned_replies
            << " recv_timeouts=" << soak.total.client.recv_timeouts
            << "\n      injected: resets=" << soak.total.injected.resets
            << " truncations=" << soak.total.injected.truncations
            << " eintr=" << soak.total.injected.eintr
            << " eagain=" << soak.total.injected.eagain
            << " short=" << soak.total.injected.short_ios
            << "\n      errors: allowed=" << soak.total.allowed_errors
            << " hard=" << soak.total.hard_errors
            << " violations=" << soak.total.violations
            << " max_op_ms=" << soak.total.max_op_ms << "\n";

  // ---- Phase 3: verify every acked write survived ----------------------
  uint64_t lost_acked = 0, stamp_mismatches = 0;
  {
    ClientOptions copts;
    copts.port = port;
    copts.retry.max_attempts = 5;
    auto client_or = Client::Connect(copts);
    LSMSSD_CHECK(client_or.ok()) << client_or.status().ToString();
    auto client = std::move(client_or).value();
    for (uint64_t i = 0; i < records; ++i) {
      auto got = client->Get(KeyForIndex(i));
      if (!got.ok()) {
        ++lost_acked;
        std::cerr << "  [chaos] LOST: index " << i << " acked v" << acked[i]
                  << ": " << got.status().ToString() << "\n";
        continue;
      }
      uint64_t pidx = 0, pver = 0;
      if (got->size() != payload_size || !ParseStamp(*got, &pidx, &pver) ||
          pidx != i) {
        ++stamp_mismatches;
        std::cerr << "  [chaos] GARBLED: index " << i << "\n";
        continue;
      }
      if (pver < acked[i] || pver > issued[i]) {
        ++lost_acked;
        std::cerr << "  [chaos] LOST: index " << i << " holds v" << pver
                  << ", acked v" << acked[i] << ", issued v" << issued[i]
                  << "\n";
      }
    }
  }
  std::cout << "verify: " << records << " keys, lost_acked=" << lost_acked
            << " garbled=" << stamp_mismatches << "\n";

  // ---- Epilogue: graceful drain + integrity ----------------------------
  auto report_or = embedded->Stop();
  LSMSSD_CHECK(report_or.ok()) << report_or.status().ToString();
  const EmbeddedServer::Report& rep = *report_or;
  const bool store_clean = rep.scrub_corruptions == 0 &&
                           rep.quarantined_blocks == 0 && rep.leak_check_ok;
  std::cout << "integrity: scrub_corruptions=" << rep.scrub_corruptions
            << " quarantined=" << rep.quarantined_blocks
            << " leak_check=" << (rep.leak_check_ok ? "ok" : "LEAK")
            << " checkpoints=" << rep.checkpoints << "\n";

  const bool faults_exercised =
      soak.total.injected.resets > 0 && soak.total.client.reconnects > 0 &&
      soak.restarts == soak.kills;
  if (!faults_exercised) {
    std::cerr << "  [chaos] warning: fault machinery barely exercised "
                 "(scale too small?)\n";
  }
  const bool soak_ok = soak.total.hard_errors == 0 &&
                       soak.total.violations == 0 && lost_acked == 0 &&
                       stamp_mismatches == 0 && faults_exercised;

  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n  \"bench\": \"server_chaos\",\n  \"scale\": %g,\n"
      "  \"host_cpus\": %u,\n  \"git\": \"%s\",\n"
      "  \"records\": %llu,\n  \"threads\": %zu,\n"
      "  \"overload\": {\"frames_sent\": %llu, \"answered\": %llu, "
      "\"ok\": %llu, \"shed\": %llu, \"backpressure\": %llu, "
      "\"hint_parsed\": %llu, \"retry_after_ms\": %u, "
      "\"polite_client_ops\": %llu, \"polite_client_errors\": %llu, "
      "\"polite_client_overloaded\": %llu, \"seconds\": %.3f},\n"
      "  \"soak\": {\"ops\": %llu, \"reads\": %llu, \"writes\": %llu, "
      "\"seconds\": %.3f, \"kills\": %llu, \"restarts\": %llu, "
      "\"max_restart_ms\": %llu, \"storms\": %llu, "
      "\"allowed_errors\": %llu, \"hard_errors\": %llu, "
      "\"violations\": %llu, \"max_op_ms\": %llu,\n"
      "    \"client\": {\"retries\": %llu, \"reconnects\": %llu, "
      "\"overloaded_replies\": %llu, \"abandoned_replies\": %llu, "
      "\"send_timeouts\": %llu, \"recv_timeouts\": %llu},\n"
      "    \"injected\": {\"resets\": %llu, \"truncations\": %llu, "
      "\"eintr\": %llu, \"eagain\": %llu, \"short_ios\": %llu}},\n"
      "  \"verify\": {\"keys\": %llu, \"lost_acked\": %llu, "
      "\"garbled\": %llu},\n"
      "  \"integrity\": {\"scrub_corruptions\": %llu, "
      "\"quarantined_blocks\": %llu, \"leak_check_ok\": %s, "
      "\"checkpoints\": %llu},\n"
      "  \"passed\": %s\n}\n",
      scale, HostCpus(), GitDescribe().c_str(),
      static_cast<unsigned long long>(records), threads,
      static_cast<unsigned long long>(overload.frames_sent),
      static_cast<unsigned long long>(answered),
      static_cast<unsigned long long>(overload.ok),
      static_cast<unsigned long long>(overload.shed),
      static_cast<unsigned long long>(overload.backpressure),
      static_cast<unsigned long long>(overload.hint_parsed), overload.hint_ms,
      static_cast<unsigned long long>(overload.retry_client_ops),
      static_cast<unsigned long long>(overload.retry_client_errors),
      static_cast<unsigned long long>(overload.retry_client_overloaded),
      overload.seconds, static_cast<unsigned long long>(soak.total.ops),
      static_cast<unsigned long long>(soak.total.reads),
      static_cast<unsigned long long>(soak.total.writes), soak.seconds,
      static_cast<unsigned long long>(soak.kills),
      static_cast<unsigned long long>(soak.restarts),
      static_cast<unsigned long long>(soak.max_restart_ms),
      static_cast<unsigned long long>(soak.storms),
      static_cast<unsigned long long>(soak.total.allowed_errors),
      static_cast<unsigned long long>(soak.total.hard_errors),
      static_cast<unsigned long long>(soak.total.violations),
      static_cast<unsigned long long>(soak.total.max_op_ms),
      static_cast<unsigned long long>(soak.total.client.retries),
      static_cast<unsigned long long>(soak.total.client.reconnects),
      static_cast<unsigned long long>(soak.total.client.overloaded_replies),
      static_cast<unsigned long long>(soak.total.client.abandoned_replies),
      static_cast<unsigned long long>(soak.total.client.send_timeouts),
      static_cast<unsigned long long>(soak.total.client.recv_timeouts),
      static_cast<unsigned long long>(soak.total.injected.resets),
      static_cast<unsigned long long>(soak.total.injected.truncations),
      static_cast<unsigned long long>(soak.total.injected.eintr),
      static_cast<unsigned long long>(soak.total.injected.eagain),
      static_cast<unsigned long long>(soak.total.injected.short_ios),
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(lost_acked),
      static_cast<unsigned long long>(stamp_mismatches),
      static_cast<unsigned long long>(rep.scrub_corruptions),
      static_cast<unsigned long long>(rep.quarantined_blocks),
      rep.leak_check_ok ? "true" : "false",
      static_cast<unsigned long long>(rep.checkpoints),
      overload_ok && soak_ok && store_clean ? "true" : "false");
  std::ofstream out(json_path);
  out << buf;
  out.close();
  std::cerr << "  [chaos] wrote " << json_path << "\n";

  if (!overload_ok || !soak_ok || !store_clean) {
    std::cerr << "FAILED: overload_ok=" << overload_ok
              << " soak_ok=" << soak_ok << " store_clean=" << store_clean
              << "\n";
    return 1;
  }
  std::cout << "\nchaos soak PASSED: zero lost acked writes, zero hangs, "
               "store clean\n";
  return 0;
}

}  // namespace
}  // namespace lsmssd::bench

int main(int argc, char** argv) {
  return lsmssd::bench::Main(argc, argv);
}
