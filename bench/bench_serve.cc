// bench_serve: closed-loop load generator for the RESP serving layer.
//
// Starts an in-process RespServer over a MemEnv-backed DB (WAL on, so the
// full network-batching -> group-commit path is exercised), then drives it
// with N concurrent TCP connections, each running batch-synchronous
// pipelining at a given depth: send `depth` commands, read `depth` replies,
// repeat until the phase deadline. The per-batch round trip — which is the
// latency every command in the batch observes — feeds a histogram, and the
// phase reports throughput plus p50/p99/p99.9.
//
// The point of the layer is that pipelining compounds with group commit:
// one event-loop turn coalesces a connection's pipelined writes into one
// WriteBatch, and the engine's group commit merges batches across workers.
// The sweep over depths makes that visible: depth-32 throughput should be
// >= 5x depth-1 at 64 connections, and the per-phase engine deltas show
// ops-per-coalesced-batch and entries-per-group-commit rising with depth.
//
// Flags:
//   --connections=N    concurrent client connections (default 64)
//   --depths=a,b,c     pipeline depths to sweep      (default 1,8,32)
//   --duration-ms=N    per-depth phase length        (default 1200)
//   --workers=N        server event-loop threads     (default 1)
//   --shards=N         engine shards                 (default 4)
//   --value-bytes=N    value size                    (default 16)
//   --keys=N           keyspace size                 (default 10000)
//   --write-pct=N      percent of commands that are SET (default 10,
//                      the classic read-heavy serving mix)
//   --repeats=N        runs per phase, best kept      (default 5)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lethe.h"
#include "src/env/env.h"
#include "src/server/resp.h"
#include "src/server/server.h"
#include "src/util/histogram.h"
#include "src/util/random.h"

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

void AppendCommand(std::string* out, const std::vector<std::string>& argv) {
  *out += "*" + std::to_string(argv.size()) + "\r\n";
  for (const std::string& a : argv) {
    *out += "$" + std::to_string(a.size()) + "\r\n" + a + "\r\n";
  }
}

struct PhaseResult {
  int depth = 0;
  double seconds = 0;
  uint64_t ops = 0;
  double throughput = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  // Per-phase engine/server deltas: how the batching compounded.
  uint64_t coalesced_batches = 0;
  uint64_t coalesced_ops = 0;
  uint64_t group_commit_batches = 0;
  uint64_t group_commit_entries = 0;
};

struct ClientStats {
  uint64_t ops = 0;
  lethe::Histogram batch_rtt_us;
  bool error = false;
};

void ClientMain(uint16_t port, int depth, int duration_ms, int value_bytes,
                int keys, int write_pct, uint32_t seed, ClientStats* out) {
  int fd = ConnectTo(port);
  if (fd < 0) {
    out->error = true;
    return;
  }
  lethe::Random rnd(seed);
  const std::string value(static_cast<size_t>(value_bytes), 'v');
  std::vector<char> buf(64 * 1024);
  lethe::server::RespReplyScanner scanner;

  // Pre-encode a rotation of pipelined batches so request encoding stays
  // out of the measured loop (the same trick redis-benchmark uses) — the
  // bench measures the server, not the load generator's string building.
  constexpr int kPrebuilt = 16;
  std::vector<std::string> batches(kPrebuilt);
  for (std::string& batch : batches) {
    for (int i = 0; i < depth; i++) {
      const std::string key = "key" + std::to_string(rnd.Uniform(keys));
      if (static_cast<int>(rnd.Uniform(100)) < write_pct) {
        AppendCommand(&batch, {"SET", key, value});
      } else {
        AppendCommand(&batch, {"GET", key});
      }
    }
  }

  int next_batch = 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(duration_ms);
  while (Clock::now() < deadline) {
    const std::string& batch = batches[next_batch];
    next_batch = (next_batch + 1) % kPrebuilt;
    const uint64_t start = NowUs();
    if (!SendAll(fd, batch)) {
      out->error = true;
      break;
    }
    int replies = 0;
    while (replies < depth) {
      ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n <= 0) {
        out->error = true;
        ::close(fd);
        return;
      }
      int done = scanner.Feed(buf.data(), static_cast<size_t>(n));
      if (done < 0) {
        out->error = true;
        ::close(fd);
        return;
      }
      replies += done;
    }
    // Every command in the batch waited this round trip.
    out->batch_rtt_us.Add(NowUs() - start);
    out->ops += static_cast<uint64_t>(depth);
  }
  ::close(fd);
}

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t n = strlen(name);
  if (strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  int connections = 64;
  std::vector<int> depths = {1, 8, 32};
  int duration_ms = 1200;
  // One event-loop worker by default: the reference container has a single
  // core, where a second worker only adds scheduler thrash and halves the
  // per-turn coalescing window. Raise on multi-core boxes (SO_REUSEPORT
  // spreads connections across workers).
  int workers = 1;
  int shards = 4;
  int value_bytes = 16;
  int keys = 10000;
  int write_pct = 10;
  int repeats = 5;

  for (int i = 1; i < argc; i++) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--connections", &v)) {
      connections = atoi(v);
    } else if (FlagValue(argv[i], "--depths", &v)) {
      depths.clear();
      for (const char* p = v; *p != '\0';) {
        depths.push_back(atoi(p));
        while (*p != '\0' && *p != ',') p++;
        if (*p == ',') p++;
      }
    } else if (FlagValue(argv[i], "--duration-ms", &v)) {
      duration_ms = atoi(v);
    } else if (FlagValue(argv[i], "--workers", &v)) {
      workers = atoi(v);
    } else if (FlagValue(argv[i], "--shards", &v)) {
      shards = atoi(v);
    } else if (FlagValue(argv[i], "--value-bytes", &v)) {
      value_bytes = atoi(v);
    } else if (FlagValue(argv[i], "--keys", &v)) {
      keys = atoi(v);
    } else if (FlagValue(argv[i], "--write-pct", &v)) {
      write_pct = atoi(v);
    } else if (FlagValue(argv[i], "--repeats", &v)) {
      repeats = atoi(v) < 1 ? 1 : atoi(v);
    } else {
      fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  // Every rep runs against a freshly opened DB prefilled with the full
  // keyspace, so each measurement sees the identical engine state: a
  // memtable-resident working set, no inherited L0 stack, no skiplist
  // deepened by earlier phases' overwrites. Without this reset the phase
  // ORDER biases the ratio (later phases read progressively worse-shaped
  // data). MemEnv keeps it disk-variance-free; the WAL stays ON so writes
  // flow through the full group-commit path.
  auto open_db = [&](std::unique_ptr<lethe::Env>* env,
                     std::unique_ptr<lethe::DB>* db) -> bool {
    *env = lethe::NewMemEnv();
    lethe::Options options;
    options.env = env->get();
    options.inline_compactions = false;
    options.background_threads = 2;
    options.num_shards = shards;
    options.memory_budget_bytes = 256ull << 20;
    options.page_cache_bytes = 64ull << 20;
    // Serving-shaped memtable: the hot keyspace stays memory-resident, so
    // the bench exercises the network/commit pipeline rather than flush
    // and compaction churn (bench_fig6* cover the storage engine itself).
    options.write_buffer_bytes = 32ull << 20;
    lethe::Status s = lethe::DB::Open(options, "benchdb", db);
    if (!s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      return false;
    }
    // Prefill so reads never miss: the serving mix measures pipeline
    // mechanics, not negative lookups.
    const std::string fill(static_cast<size_t>(value_bytes), 'v');
    lethe::WriteBatch batch;
    auto commit = [&]() -> bool {
      lethe::Status ws = (*db)->Write(lethe::WriteOptions(), &batch);
      if (!ws.ok()) {
        fprintf(stderr, "prefill failed: %s\n", ws.ToString().c_str());
        return false;
      }
      batch.Clear();
      return true;
    };
    for (int k = 0; k < keys; k++) {
      char key[32];
      snprintf(key, sizeof(key), "key%d", k);
      batch.Put(key, 0, fill);
      if (batch.Count() >= 1024 && !commit()) return false;
    }
    return batch.Count() == 0 || commit();
  };

  printf("# bench_serve: %d connections, %d workers, %d shard(s), "
         "%dB values, %d%% writes, %d ms per depth\n",
         connections, workers, shards, value_bytes, write_pct, duration_ms);
  printf("depth,seconds,ops,ops_per_sec,p50_us,p99_us,p999_us,"
         "ops_per_coalesced_batch,entries_per_group_commit\n");

  std::vector<PhaseResult> results;
  for (int depth : depths) {
    // Closed-loop runs on a shared box are noisy; run each phase several
    // times and keep the best, the standard way to report a capacity
    // number (scheduler interference only ever subtracts throughput).
    PhaseResult r;
    for (int rep = 0; rep < repeats; rep++) {
      std::unique_ptr<lethe::Env> env;
      std::unique_ptr<lethe::DB> db;
      if (!open_db(&env, &db)) return 1;
      lethe::server::ServerOptions server_options;
      server_options.port = 0;  // ephemeral
      server_options.num_workers = workers;
      auto server = std::make_unique<lethe::server::RespServer>(
          db.get(), server_options);
      lethe::Status ss = server->Start();
      if (!ss.ok()) {
        fprintf(stderr, "server start failed: %s\n", ss.ToString().c_str());
        return 1;
      }
      const lethe::Statistics before = server->StatsSnapshot();
      std::vector<ClientStats> stats(static_cast<size_t>(connections));
      std::vector<std::thread> threads;
      const uint64_t t0 = NowUs();
      for (int c = 0; c < connections; c++) {
        threads.emplace_back(ClientMain, server->port(), depth, duration_ms,
                             value_bytes, keys, write_pct,
                             static_cast<uint32_t>(1000 + depth * 131 +
                                                   rep * 7919 + c),
                             &stats[static_cast<size_t>(c)]);
      }
      for (auto& t : threads) t.join();
      const double seconds = static_cast<double>(NowUs() - t0) / 1e6;
      const lethe::Statistics after = server->StatsSnapshot();

      PhaseResult rep_r;
      rep_r.depth = depth;
      rep_r.seconds = seconds;
      lethe::Histogram merged;
      for (const ClientStats& cs : stats) {
        if (cs.error) {
          fprintf(stderr, "client error during depth-%d phase\n", depth);
          return 1;
        }
        rep_r.ops += cs.ops;
        merged.Merge(cs.batch_rtt_us);
      }
      rep_r.throughput = static_cast<double>(rep_r.ops) / seconds;
      rep_r.p50_us = merged.Percentile(50);
      rep_r.p99_us = merged.Percentile(99);
      rep_r.p999_us = merged.Percentile(99.9);
      rep_r.coalesced_batches =
          after.net_batches_coalesced - before.net_batches_coalesced;
      rep_r.coalesced_ops =
          after.net_batch_ops_coalesced - before.net_batch_ops_coalesced;
      rep_r.group_commit_batches =
          after.group_commit_batches - before.group_commit_batches;
      rep_r.group_commit_entries =
          after.group_commit_entries - before.group_commit_entries;
      server->Stop();
      server.reset();
      db.reset();
      if (rep == 0 || rep_r.throughput > r.throughput) r = rep_r;
    }
    results.push_back(r);

    const double ops_per_batch =
        r.coalesced_batches == 0
            ? 0
            : static_cast<double>(r.coalesced_ops) /
                  static_cast<double>(r.coalesced_batches);
    const double entries_per_commit =
        r.group_commit_batches == 0
            ? 0
            : static_cast<double>(r.group_commit_entries) /
                  static_cast<double>(r.group_commit_batches);
    printf("%d,%.2f,%" PRIu64 ",%.0f,%.0f,%.0f,%.0f,%.1f,%.1f\n", r.depth,
           r.seconds, r.ops, r.throughput, r.p50_us, r.p99_us, r.p999_us,
           ops_per_batch, entries_per_commit);
    fflush(stdout);
  }

  if (results.size() >= 2 && results.front().depth == 1 &&
      results.front().throughput > 0) {
    printf("# depth-%d vs depth-1 throughput: %.1fx\n", results.back().depth,
           results.back().throughput / results.front().throughput);
  }

  return 0;
}
