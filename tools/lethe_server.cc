// lethe_server: the RESP (Redis-protocol) front-end over a lethe DB.
//
//   ./lethe_server --db=/tmp/lethe_server_db --port=6379 --workers=2
//
// Speaks enough of the Redis protocol for redis-cli and any pipelining
// client library: GET/SET/DEL/EXISTS/MGET/MSET/SCAN, EXPIRE/TTL/PERSIST
// (mapped onto the engine's secondary delete key), INFO/DBSIZE/PING, and
// LETHE.PURGE <begin> <end> (a secondary range delete over the wire).
//
// Flags:
//   --db=PATH                 database directory (default /tmp/lethe_server_db)
//   --host=ADDR               IPv4 bind address   (default 127.0.0.1)
//   --port=N                  TCP port, 0 = ephemeral (default 6379)
//   --workers=N               event-loop threads  (default 2)
//   --shards=N                engine shards       (default 1)
//   --background-threads=N    engine worker pool  (default 2)
//   --memory-budget-mb=N      engine memory budget (default 64)
//   --max-connections=N       admission cap       (default 10000)
//   --no-wal                  disable the write-ahead log
//   --sync-writes             fsync every coalesced batch (group commit
//                             still amortizes the sync across clients)
//
// SIGINT/SIGTERM (or the SHUTDOWN command) triggers a graceful drain:
// stop accepting, commit staged batches, flush reply buffers, release
// snapshots, then close the DB cleanly.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/core/lethe.h"
#include "src/server/server.h"

namespace {

lethe::server::RespServer* g_server = nullptr;

void HandleSignal(int) {
  // Async-signal-safe: an atomic store plus eventfd writes.
  if (g_server != nullptr) g_server->RequestStop();
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
  std::string db_path = "/tmp/lethe_server_db";
  lethe::Options options;
  options.inline_compactions = false;  // serving wants background work
  options.background_threads = 2;
  options.memory_budget_bytes = 64ull << 20;
  options.page_cache_bytes = 64ull << 20;
  lethe::server::ServerOptions server_options;

  for (int i = 1; i < argc; i++) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--db", &v)) {
      db_path = v;
    } else if (FlagValue(argv[i], "--host", &v)) {
      server_options.host = v;
    } else if (FlagValue(argv[i], "--port", &v)) {
      server_options.port = static_cast<uint16_t>(atoi(v));
    } else if (FlagValue(argv[i], "--workers", &v)) {
      server_options.num_workers = atoi(v);
    } else if (FlagValue(argv[i], "--shards", &v)) {
      options.num_shards = atoi(v);
    } else if (FlagValue(argv[i], "--background-threads", &v)) {
      options.background_threads = atoi(v);
    } else if (FlagValue(argv[i], "--memory-budget-mb", &v)) {
      options.memory_budget_bytes = strtoull(v, nullptr, 10) << 20;
    } else if (FlagValue(argv[i], "--max-connections", &v)) {
      server_options.max_connections = atoi(v);
    } else if (strcmp(argv[i], "--no-wal") == 0) {
      options.enable_wal = false;
    } else if (strcmp(argv[i], "--sync-writes") == 0) {
      server_options.sync_writes = true;
    } else {
      fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  std::unique_ptr<lethe::DB> db;
  lethe::Status status = lethe::DB::Open(options, db_path, &db);
  if (!status.ok()) {
    fprintf(stderr, "open %s failed: %s\n", db_path.c_str(),
            status.ToString().c_str());
    return 1;
  }

  lethe::server::RespServer server(db.get(), server_options);
  status = server.Start();
  if (!status.ok()) {
    fprintf(stderr, "listen failed: %s\n", status.ToString().c_str());
    return 1;
  }
  g_server = &server;

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // dead sockets surface as write errors

  printf("lethe_server listening on %s:%u (%d workers, db=%s, shards=%d)\n",
         server_options.host.c_str(), server.port(),
         server_options.num_workers < 1 ? 1 : server_options.num_workers,
         db_path.c_str(), options.num_shards < 1 ? 1 : options.num_shards);
  fflush(stdout);

  // Workers exit when a signal or the SHUTDOWN command requests a stop.
  server.Join();
  g_server = nullptr;

  const lethe::Statistics stats = server.StatsSnapshot();
  printf("shutting down: %llu commands over %llu connections, "
         "%llu coalesced batches (%llu ops), group commit %llu/%llu\n",
         static_cast<unsigned long long>(stats.net_commands),
         static_cast<unsigned long long>(stats.net_connections_accepted),
         static_cast<unsigned long long>(stats.net_batches_coalesced),
         static_cast<unsigned long long>(stats.net_batch_ops_coalesced),
         static_cast<unsigned long long>(stats.group_commit_entries),
         static_cast<unsigned long long>(stats.group_commit_batches));

  server.Stop();  // idempotent; frees worker state
  db.reset();     // clean close: WAL and manifest are durable
  return 0;
}
