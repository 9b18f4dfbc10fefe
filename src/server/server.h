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

/// Front-end knobs. The fixed limits — request size, arguments per command,
/// the per-turn batch caps, the expiry chunk and the shutdown drain timeout
/// — are constants in server.cc, and so is the read rule: point reads always
/// run at a per-connection snapshot pinned at the connection's first engine
/// read of each event-loop turn and released at turn end. The engine itself
/// is configured by the lethe::Options used to open the DB handed to
/// RespServer; recommended serving setup is background mode
/// (inline_compactions = false, so no request waits for a compaction), a
/// memory budget, and — for multi-core boxes — num_shards > 1 (the server
/// is shard-agnostic: ShardedDB hides routing behind the same DB
/// interface).
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

  /// Admission control: connections over this cap are greeted with an
  /// error and closed immediately (counted in net_connections_rejected).
  int max_connections = 10000;

  /// Slow-client bound: a connection whose unsent reply backlog exceeds
  /// this is dropped (counted in net_slow_client_disconnects) — one
  /// unread SCAN firehose must not hold reply memory hostage.
  size_t max_output_buffer_bytes = 64ull << 20;

  /// Request a WAL sync for every coalesced batch (group commit still
  /// amortizes the sync across every writer in the commit group).
  bool sync_writes = false;

  /// Period of the active TTL expiry cycle run by worker 0; 0 disables it
  /// (expired keys are then only filtered lazily on read, never
  /// reclaimed). See docs/architecture.md "Serving" for the mechanism
  /// (SecondaryRangeLookup over the expired delete-key window +
  /// conflict-validated deletes).
  uint64_t active_expire_interval_ms = 100;

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
///     (acknowledgement implies durability-as-configured). Every point
///     command reads a key one way (ReadKey): the connection's
///     read-your-writes overlay of staged writes first, then the engine,
///     with expired deadlines treated as absent. Mixed read/write
///     pipelines therefore still coalesce; only iterator-shaped commands
///     (SCAN, DBSIZE, LETHE.PURGE) force the commit. Per-connection
///     command order is preserved exactly, including when a commit fails
///     mid-pipeline.
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
  /// flush buffered replies (bounded by a one-second drain), release pinned
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
  void ReleaseTurnSnapshots(Worker* w);
  void MaybeActiveExpire(Worker* w);

  void EnsureConnCommitted(Worker* w, Connection* c);
  void MaybeCommitEagerly(Worker* w);
  void EnsureSnapshot(Worker* w, Connection* c);
  void ReleaseConnSnapshot(Connection* c);
  void StageWriteReply(Worker* w, Connection* c);
  void FinishImmediateReply(Connection* c);
  void FinishWriteReply(Worker* w, Connection* c);

  /// The one point read: the connection's overlay first, then the engine
  /// (at the turn snapshot, or latest for read-modify-writes), and an
  /// expired deadline reads as NotFound. On OK, *value points into the
  /// overlay or the worker's scratch until the next ReadKey or commit.
  Status ReadKey(Worker* w, Connection* c, const Slice& key, bool at_snapshot,
                 uint64_t now, const std::string** value, uint64_t* dk);
  void StagePut(Worker* w, Connection* c, const Slice& key,
                uint64_t delete_key, const Slice& value);
  bool StageDelete(Worker* w, Connection* c, const Slice& key);
  uint64_t Deadline(uint64_t now, uint64_t amount, uint64_t unit);
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
  void CmdExpireOrPersist(Worker* w, Connection* c,
                          const std::vector<Slice>& argv, bool persist);
  void CmdTtl(Worker* w, Connection* c, const std::vector<Slice>& argv);
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
