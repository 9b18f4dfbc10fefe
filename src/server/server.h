#ifndef LETHE_SERVER_SERVER_H_
#define LETHE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/db.h"
#include "src/core/statistics.h"
#include "src/server/command_table.h"
#include "src/server/resp.h"
#include "src/util/clock.h"

namespace lethe {
namespace server {

/// Front-end knobs. The engine itself is configured by the lethe::Options
/// used to open the DB handed to RespServer; recommended serving setup is
/// background mode (inline_compactions = false, so no request waits for a
/// compaction), a memory budget, and — for multi-core boxes —
/// num_shards > 1 (the server is shard-agnostic: ShardedDB hides routing
/// behind the same DB interface).
struct ServerOptions {
  /// IPv4 address to bind. Default: loopback.
  std::string host = "127.0.0.1";

  /// TCP port; 0 asks the kernel for an ephemeral port (query it with
  /// RespServer::port() after Start — used by tests and the bench).
  uint16_t port = 6379;

  /// Event-loop worker threads. Each worker owns its own epoll instance
  /// and its own listen socket bound with SO_REUSEPORT (listen-socket
  /// sharding: the kernel spreads incoming connections across workers, so
  /// accept never serializes on one thread). A connection lives on one
  /// worker for its lifetime; workers meet only inside the engine's
  /// group-commit queue, where their per-turn batches merge.
  int num_workers = 2;

  int listen_backlog = 511;

  /// Admission control: connections over this cap are greeted with an
  /// error and closed immediately (counted in net_connections_rejected).
  int max_connections = 10000;

  /// Slow-client bound: a connection whose unsent reply backlog exceeds
  /// this is dropped (counted in net_slow_client_disconnects) — one
  /// unread SCAN firehose must not hold reply memory hostage.
  size_t max_output_buffer_bytes = 64ull << 20;

  /// Upper bound on one command frame's encoded size; also caps a single
  /// bulk argument. Oversized requests get a protocol error and a close.
  size_t max_request_bytes = 32ull << 20;

  /// Maximum arguments in one command frame.
  size_t max_args_per_command = 128 * 1024;

  /// Eager-commit caps for the per-turn coalesced WriteBatch: when a turn
  /// stages this many operations (or payload bytes) the batch is committed
  /// mid-turn, bounding both staged memory and the ack latency of the
  /// earliest writer in a very deep pipeline.
  size_t max_batch_ops = 4096;
  size_t max_batch_bytes = 4ull << 20;

  /// Read commands execute against a per-connection snapshot pinned at the
  /// first read of each event-loop turn (a cross-shard consistent cut on
  /// ShardedDB) and released at turn end — reads within one pipelined
  /// drain are mutually consistent and include the connection's own
  /// committed writes. false reads latest-committed without pinning.
  bool snapshot_reads = true;

  /// Request a WAL sync for every coalesced batch (group commit still
  /// amortizes the sync across every writer in the commit group).
  bool sync_writes = false;

  /// Period of the active TTL expiry cycle run by worker 0; 0 disables it
  /// (expired keys are then only filtered lazily on read, never
  /// reclaimed). See docs/architecture.md "Serving" for the mechanism
  /// (SecondaryRangeLookup over the expired delete-key window +
  /// conflict-validated deletes).
  uint64_t active_expire_interval_ms = 100;

  /// Keys deleted per transaction/batch inside one expiry cycle.
  size_t active_expire_chunk = 256;

  /// How long shutdown keeps flushing buffered replies before closing
  /// connections that are not draining.
  uint64_t drain_timeout_ms = 1000;

  /// Time source for TTL arithmetic. MUST be the same clock domain as the
  /// DB's Options::clock, because expirations are stored in the entry's
  /// 64-bit delete key as an absolute NowMicros deadline. nullptr =
  /// SystemClock::Default() (also the DB default).
  Clock* clock = nullptr;
};

/// A RESP (Redis-protocol) serving layer over any lethe::DB.
///
/// Architecture (docs/architecture.md "Serving" has the full picture):
///   - num_workers event-loop threads; level-triggered accept on per-worker
///     SO_REUSEPORT listen sockets, edge-triggered nonblocking reads/writes
///     on connections.
///   - An incremental zero-copy RESP parser decodes pipelined frames
///     straight out of each connection's ring buffer.
///   - Write commands from ALL connections drained in one event-loop turn
///     coalesce into ONE WriteBatch fed to DB::Write — which itself merges
///     concurrently arriving workers' batches via leader/follower group
///     commit, so network batching multiplies WAL batching.
///   - Replies to staged writes are withheld until their batch commits
///     (acknowledgement implies durability-as-configured). Point reads
///     from a connection with staged writes are answered from a
///     per-connection read-your-writes overlay instead of forcing the
///     batch to commit, so mixed read/write pipelines still coalesce;
///     only iterator-shaped commands (SCAN, DBSIZE, LETHE.PURGE) force
///     the commit. Per-connection command order is preserved exactly,
///     including when a commit fails mid-pipeline.
///   - TTLs map onto the engine's secondary delete key: the expiry
///     deadline in NowMicros, 0 = no expiry. Reads filter expired entries
///     lazily; worker 0 periodically harvests the expired delete-key
///     window via SecondaryRangeLookup and deletes those keys (validated
///     by an optimistic transaction where the engine supports it).
///
/// Thread-safe: Start once; RequestStop/Stop from any thread or signal
/// handler context (RequestStop only flips an atomic and writes eventfds).
/// The DB must outlive the server and stay open until Stop/Join returns.
class RespServer {
 public:
  RespServer(DB* db, const ServerOptions& options);
  ~RespServer();

  RespServer(const RespServer&) = delete;
  RespServer& operator=(const RespServer&) = delete;

  /// Binds the listen sockets and spawns the worker threads.
  Status Start();

  /// Begins graceful shutdown: stop accepting, commit staged batches,
  /// flush buffered replies (bounded by drain_timeout_ms), release pinned
  /// snapshots, close connections. Async-signal-safe; returns immediately.
  void RequestStop();

  /// RequestStop + Join.
  void Stop();

  /// Waits for the worker threads to exit.
  void Join();

  /// The bound TCP port (after a successful Start).
  uint16_t port() const { return port_; }

  bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

  int connection_count() const {
    return conn_count_.load(std::memory_order_relaxed);
  }

  /// Server-side counters (the net_* family plus the pipeline-depth and
  /// batch-size histograms). Engine counters live in db()->stats().
  const Statistics& net_stats() const { return net_stats_; }

  /// net_stats() merged with the engine's counters — one view of the whole
  /// parse → coalesce → group-commit pipeline.
  Statistics StatsSnapshot() const;

  DB* db() const { return db_; }

 private:
  struct Connection;
  struct Worker;

  /// One entry in a connection's read-your-writes overlay: the latest
  /// value this connection staged for a key in the current (uncommitted)
  /// turn batch. Reads consult the overlay before the engine, so pipelined
  /// read/write mixes never force a mid-turn batch commit — which is what
  /// lets deep pipelines keep coalescing into large group commits.
  struct StagedWrite {
    bool deleted = false;
    uint64_t delete_key = 0;
    std::string value;
  };

  void WorkerMain(Worker* w);
  void AcceptReady(Worker* w);
  void ReadAndProcess(Worker* w, Connection* c);
  void ProcessInput(Worker* w, Connection* c);
  void ExecuteCommand(Worker* w, Connection* c,
                      const std::vector<Slice>& argv);
  void EndTurn(Worker* w);
  void CommitTurnBatch(Worker* w);
  void FlushOutput(Worker* w, Connection* c);
  void CloseConnection(Worker* w, Connection* c);
  void DrainOnStop(Worker* w);
  void MaybeActiveExpire(Worker* w);

  void EnsureConnCommitted(Worker* w, Connection* c);
  void MaybeCommitEagerly(Worker* w);
  void EnsureSnapshot(Worker* w, Connection* c);
  void ReleaseConnSnapshot(Connection* c);
  void StageWriteReply(Worker* w, Connection* c);
  void FinishImmediateReply(Connection* c);
  void FinishWriteReply(Connection* c);
  const StagedWrite* OverlayFind(Connection* c, const Slice& key) const;
  void OverlayPut(Connection* c, const Slice& key, uint64_t delete_key,
                  const Slice& value);
  void OverlayDelete(Connection* c, const Slice& key);
  void Touch(Worker* w, Connection* c);
  void ProtocolError(Worker* w, Connection* c, const std::string& msg);

  // Command handlers (argv[0] is the command name).
  void CmdGet(Worker* w, Connection* c, const std::vector<Slice>& argv);
  void CmdSet(Worker* w, Connection* c, const std::vector<Slice>& argv);
  void CmdDelOrExists(Worker* w, Connection* c,
                      const std::vector<Slice>& argv, bool is_del);
  void CmdMGet(Worker* w, Connection* c, const std::vector<Slice>& argv);
  void CmdMSet(Worker* w, Connection* c, const std::vector<Slice>& argv);
  void CmdScan(Worker* w, Connection* c, const std::vector<Slice>& argv);
  void CmdExpire(Worker* w, Connection* c, const std::vector<Slice>& argv);
  void CmdTtl(Worker* w, Connection* c, const std::vector<Slice>& argv);
  void CmdPersist(Worker* w, Connection* c, const std::vector<Slice>& argv);
  void CmdInfo(Worker* w, Connection* c, const std::vector<Slice>& argv);
  void CmdLethePurge(Worker* w, Connection* c,
                     const std::vector<Slice>& argv);

  std::string BuildInfo(const Slice& section);

  uint64_t NowMicros() const { return clock_->NowMicros(); }
  static bool IsExpired(uint64_t delete_key, uint64_t now) {
    return delete_key != 0 && delete_key <= now;
  }

  DB* const db_;
  const ServerOptions opts_;
  Clock* clock_ = nullptr;
  RespParser::Limits parser_limits_;
  uint16_t port_ = 0;
  bool started_ = false;
  bool txn_supported_ = false;
  uint64_t start_micros_ = 0;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> conn_count_{0};

  // TTL bookkeeping for the active expiry cycle (worker 0 only, except the
  // ttl_seen_ hint which any worker may set).
  std::atomic<bool> ttl_seen_{false};
  bool expire_probe_done_ = false;
  std::atomic<uint64_t> expire_horizon_{0};  // read by INFO on any worker

  mutable Statistics net_stats_;
};

}  // namespace server
}  // namespace lethe

#endif  // LETHE_SERVER_SERVER_H_
