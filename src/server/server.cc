#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "src/server/event_loop.h"

namespace lethe {
namespace server {

namespace {

constexpr size_t kReadChunk = 16 * 1024;

constexpr int kListenBacklog = 511;

// Input limits: one command frame's encoded size (also the cap on a single
// bulk argument) and its argument count. Oversized requests get a protocol
// error and a close.
constexpr size_t kMaxRequestBytes = 32ull << 20;
constexpr size_t kMaxArgsPerCommand = 128 * 1024;

// Eager-commit caps for the per-turn coalesced WriteBatch: when a turn
// stages this many operations (or payload bytes) the batch is committed
// mid-turn, bounding both staged memory and the ack latency of the earliest
// writer in a very deep pipeline.
constexpr size_t kMaxBatchOps = 4096;
constexpr size_t kMaxBatchBytes = 4ull << 20;

// How long shutdown keeps flushing buffered replies before closing
// connections that are not draining.
constexpr auto kDrainTimeout = std::chrono::milliseconds(1000);

// Reply buffers above this capacity are released (not just cleared) once
// drained, so one burst of fat replies does not park memory on an idle
// connection forever.
constexpr size_t kOutputShrinkThreshold = 1 << 20;

void ToUpper(const Slice& in, std::string* out) {
  out->clear();
  for (size_t i = 0; i < in.size(); i++) {
    out->push_back(
        static_cast<char>(toupper(static_cast<unsigned char>(in[i]))));
  }
}

// Strict base-10 integer: optional '-', digits only, no overflow.
bool ParseInt(const Slice& s, long long* value) {
  if (s.empty() || s.size() > 20) return false;
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-') {
    neg = true;
    i = 1;
    if (s.size() == 1) return false;
  }
  unsigned long long v = 0;
  for (; i < s.size(); i++) {
    if (s[i] < '0' || s[i] > '9') return false;
    unsigned long long next = v * 10 + static_cast<unsigned>(s[i] - '0');
    if (next < v) return false;
    v = next;
  }
  if (!neg && v > 9223372036854775807ull) return false;
  if (neg && v > 9223372036854775808ull) return false;
  *value = neg ? -static_cast<long long>(v) : static_cast<long long>(v);
  return true;
}

// An engine failure is an error reply, never a missing key.
void AppendStatusError(std::string* out, const Status& s) {
  AppendError(out, "ERR " + s.ToString());
}

// GET's reply to a ReadKey result, also one MGET element.
void AppendValue(std::string* out, const Status& s, const std::string* value) {
  if (s.ok()) {
    AppendBulkString(out, *value);
  } else if (s.IsNotFound()) {
    AppendNullBulkString(out);
  } else {
    AppendStatusError(out, s);
  }
}

// Redis-style glob for SCAN MATCH: '*', '?', '\' escape, '[...]' classes
// (with leading '^' negation and 'a-z' ranges).
bool GlobMatch(const char* p, size_t plen, const char* s, size_t slen) {
  while (plen > 0) {
    switch (p[0]) {
      case '*':
        while (plen > 1 && p[1] == '*') {
          p++;
          plen--;
        }
        if (plen == 1) return true;
        for (size_t i = 0; i <= slen; i++) {
          if (GlobMatch(p + 1, plen - 1, s + i, slen - i)) return true;
        }
        return false;
      case '?':
        if (slen == 0) return false;
        s++;
        slen--;
        break;
      case '[': {
        if (slen == 0) return false;
        p++;
        plen--;
        bool negate = plen > 0 && p[0] == '^';
        if (negate) {
          p++;
          plen--;
        }
        bool match = false;
        while (plen > 0 && p[0] != ']') {
          if (p[0] == '\\' && plen >= 2) {
            if (p[1] == s[0]) match = true;
            p += 2;
            plen -= 2;
          } else if (plen >= 3 && p[1] == '-' && p[2] != ']') {
            char lo = p[0], hi = p[2];
            if (lo > hi) std::swap(lo, hi);
            if (s[0] >= lo && s[0] <= hi) match = true;
            p += 3;
            plen -= 3;
          } else {
            if (p[0] == s[0]) match = true;
            p++;
            plen--;
          }
        }
        if (plen == 0) return false;  // unterminated class
        if (negate) match = !match;
        if (!match) return false;
        s++;
        slen--;
        break;
      }
      case '\\':
        if (plen >= 2) {
          p++;
          plen--;
        }
        [[fallthrough]];
      default:
        if (slen == 0 || p[0] != s[0]) return false;
        s++;
        slen--;
        break;
    }
    p++;
    plen--;
  }
  return slen == 0;
}

bool GlobMatch(const Slice& pattern, const Slice& str) {
  return GlobMatch(pattern.data(), pattern.size(), str.data(), str.size());
}

// SCAN cursors are the hex-encoded next sort key (opaque to clients, safe
// to print, and stable: the engine orders by raw bytes, hex preserves it).
std::string HexEncode(const Slice& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() * 2);
  for (size_t i = 0; i < s.size(); i++) {
    unsigned char b = static_cast<unsigned char>(s[i]);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool HexDecode(const Slice& s, std::string* out) {
  if (s.size() % 2 != 0) return false;
  out->clear();
  out->reserve(s.size() / 2);
  for (size_t i = 0; i < s.size(); i += 2) {
    int hi = HexNibble(s[i]);
    int lo = HexNibble(s[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

}  // namespace

struct RespServer::Connection {
  int fd = -1;
  RingBuffer in;
  RespParser parser;

  // Reply buffer. Bytes below `acked` are final; bytes above it are
  // optimistic acknowledgements of writes staged in the turn batch, held
  // back from the socket until the batch commits (and replaced by errors
  // if it does not).
  std::string out;
  size_t out_sent = 0;
  size_t acked = 0;
  uint32_t pending_writes = 0;  // write replies between acked and out.size()

  // Read-your-writes overlay: the connection's writes staged in the turn
  // batch but not yet committed. Cleared whenever the batch commits.
  std::unordered_map<std::string, RespServer::StagedWrite> overlay;

  // End offset and kind of every reply appended above `acked` (writes are
  // optimistic, reads are final but withheld to keep FIFO order). If the
  // batch fails, the tail is rebuilt from these marks: write replies become
  // errors, interleaved read replies are preserved verbatim.
  std::vector<std::pair<size_t, bool>> reply_marks;  // (end, is_write)

  uint64_t drain_parsed = 0;  // commands decoded in the current drain

  const Snapshot* snap = nullptr;  // pinned for the rest of this turn

  bool in_dirty_list = false;
  bool in_snap_list = false;
  bool in_touched_list = false;
  bool want_write = false;   // EPOLLOUT currently armed
  bool should_close = false; // close once the reply buffer drains
  bool closed = false;       // fd gone; object lingers until turn end
};

struct RespServer::Worker {
  RespServer* server = nullptr;
  EventLoop loop;
  int listen_fd = -1;
  char listen_tag = 0;  // address used as the listen socket's epoll tag
  std::thread thread;
  std::vector<struct epoll_event> events;
  std::unordered_set<Connection*> conns;      // owned
  std::vector<Connection*> graveyard;         // closed this turn, reap at end

  // The turn's coalesced write batch and the bookkeeping lists (membership
  // flags live on the Connection so pushes stay O(1) and duplicate-free).
  WriteBatch batch;
  std::vector<Connection*> dirty;    // hold optimistic acks for `batch`
  std::vector<Connection*> snaps;    // pinned a snapshot this turn
  std::vector<Connection*> touched;  // may have output to flush

  // Reused scratch to keep the command hot path allocation-free.
  std::string scratch_upper;
  std::string value;
};

RespServer::RespServer(DB* db, const ServerOptions& options)
    : db_(db), opts_(options) {
  clock_ = opts_.clock != nullptr ? opts_.clock : SystemClock::Default();
  parser_limits_.max_args = kMaxArgsPerCommand;
  parser_limits_.max_bulk_bytes = kMaxRequestBytes;
}

RespServer::~RespServer() {
  Stop();
}

Status RespServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  if (!db_) return Status::InvalidArgument("null DB");

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + opts_.host);
  }

  const int num_workers = std::max(1, opts_.num_workers);
  uint16_t bound_port = opts_.port;
  auto fail = [this](const Status& s) {
    for (auto& w : workers_) {
      if (w->listen_fd >= 0) ::close(w->listen_fd);
    }
    workers_.clear();
    return s;
  };

  for (int i = 0; i < num_workers; i++) {
    auto w = std::make_unique<Worker>();
    w->server = this;
    if (!w->loop.ok()) return fail(Status::IOError("epoll setup failed"));

    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return fail(Status::IOError(strerror(errno)));
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0 &&
        num_workers > 1) {
      ::close(fd);
      return fail(Status::IOError("SO_REUSEPORT unavailable"));
    }
    addr.sin_port = htons(bound_port);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status s = Status::IOError(std::string("bind: ") + strerror(errno));
      ::close(fd);
      return fail(s);
    }
    if (i == 0 && opts_.port == 0) {
      // Kernel-assigned port: discover it so the remaining workers can
      // share it via SO_REUSEPORT.
      struct sockaddr_in got;
      socklen_t len = sizeof(got);
      if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&got), &len) !=
          0) {
        ::close(fd);
        return fail(Status::IOError(strerror(errno)));
      }
      bound_port = ntohs(got.sin_port);
    }
    if (::listen(fd, kListenBacklog) != 0) {
      Status s = Status::IOError(std::string("listen: ") + strerror(errno));
      ::close(fd);
      return fail(s);
    }
    w->listen_fd = fd;
    Worker* worker = w.get();
    workers_.push_back(std::move(w));  // from here on `fail` closes fd
    Status s = worker->loop.Add(fd, EPOLLIN,
                                &worker->listen_tag);  // level-triggered
    if (!s.ok()) return fail(s);
  }
  port_ = bound_port;

  start_micros_ = NowMicros();
  stopping_.store(false, std::memory_order_release);
  for (auto& w : workers_) {
    w->thread = std::thread(&RespServer::WorkerMain, this, w.get());
  }
  started_ = true;
  return Status::OK();
}

void RespServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    w->loop.Wakeup();
  }
}

void RespServer::Join() {
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void RespServer::Stop() {
  if (!started_) return;
  RequestStop();
  Join();
  workers_.clear();
  started_ = false;
}

Statistics RespServer::StatsSnapshot() const {
  Statistics merged(net_stats_);
  merged.AddFrom(db_->stats());
  return merged;
}

void RespServer::WorkerMain(Worker* w) {
  while (!stopping()) {
    w->loop.Poll(-1, &w->events);
    for (const struct epoll_event& ev : w->events) {
      if (ev.data.ptr == &w->listen_tag) {
        AcceptReady(w);
        continue;
      }
      Connection* c = static_cast<Connection*>(ev.data.ptr);
      if (c->closed) continue;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(w, c);
        continue;
      }
      if (ev.events & EPOLLIN) ReadAndProcess(w, c);
      if (!c->closed && (ev.events & EPOLLOUT)) FlushOutput(w, c);
    }
    EndTurn(w);
  }
  DrainOnStop(w);
}

void RespServer::AcceptReady(Worker* w) {
  for (;;) {
    int fd = ::accept4(w->listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient error: the next event retries
    }
    net_stats_.net_connections_accepted.fetch_add(1,
                                                  std::memory_order_relaxed);
    if (conn_count_.fetch_add(1, std::memory_order_relaxed) + 1 >
        opts_.max_connections) {
      conn_count_.fetch_sub(1, std::memory_order_relaxed);
      net_stats_.net_connections_rejected.fetch_add(
          1, std::memory_order_relaxed);
      static const char kReject[] = "-ERR max number of clients reached\r\n";
      ssize_t r = ::write(fd, kReject, sizeof(kReject) - 1);
      (void)r;
      ::close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto* c = new Connection();
    c->fd = fd;
    c->parser = RespParser(parser_limits_);
    Status s = w->loop.Add(fd, EPOLLIN | EPOLLET, c);
    if (!s.ok()) {
      ::close(fd);
      delete c;
      conn_count_.fetch_sub(1, std::memory_order_relaxed);
      net_stats_.net_connections_closed.fetch_add(1,
                                                  std::memory_order_relaxed);
      continue;
    }
    w->conns.insert(c);
  }
}

void RespServer::ReadAndProcess(Worker* w, Connection* c) {
  Touch(w, c);
  c->drain_parsed = 0;
  bool peer_closed = false;
  while (!c->closed && !c->should_close) {
    char* p = c->in.Reserve(kReadChunk);
    ssize_t r = ::read(c->fd, p, kReadChunk);
    if (r > 0) {
      c->in.Commit(static_cast<size_t>(r));
      net_stats_.net_bytes_in.fetch_add(static_cast<uint64_t>(r),
                                        std::memory_order_relaxed);
      // Parse and execute per chunk so the input buffer never holds more
      // than one partial frame plus one read — memory stays bounded no
      // matter how deep the client pipelines.
      ProcessInput(w, c);
      continue;  // edge-triggered: must drain until EAGAIN
    }
    if (r == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(w, c);
    break;
  }
  if (!c->closed && c->drain_parsed > 0) {
    net_stats_.net_commands.fetch_add(c->drain_parsed,
                                      std::memory_order_relaxed);
    net_stats_.RecordNetPipelineDepth(c->drain_parsed);
  }
  if (!c->closed && peer_closed) {
    c->should_close = true;  // flush owed replies, then close
  }
}

void RespServer::ProcessInput(Worker* w, Connection* c) {
  while (!c->closed && !c->should_close) {
    size_t frame_bytes = 0;
    RespParser::Result res = c->parser.Parse(c->in, &frame_bytes);
    if (res == RespParser::Result::kNeedMore) {
      if (c->in.size() > kMaxRequestBytes) {
        ProtocolError(w, c, "request exceeds maximum allowed size");
      }
      return;
    }
    if (res == RespParser::Result::kError) {
      ProtocolError(w, c, c->parser.error());
      return;
    }
    c->drain_parsed++;
    ExecuteCommand(w, c, c->parser.argv());
    if (c->closed) return;
    c->in.Consume(frame_bytes);
    c->parser.Reset();
    if (c->out.size() - c->out_sent > opts_.max_output_buffer_bytes) {
      // The client is not reading its socket; staged writes still commit
      // (they were accepted), but the replies are moot.
      net_stats_.net_slow_client_disconnects.fetch_add(
          1, std::memory_order_relaxed);
      CloseConnection(w, c);
      return;
    }
  }
}

void RespServer::ProtocolError(Worker* w, Connection* c,
                               const std::string& msg) {
  net_stats_.net_protocol_errors.fetch_add(1, std::memory_order_relaxed);
  EnsureConnCommitted(w, c);  // resolve optimistic acks before the error
  AppendError(&c->out, "ERR Protocol error: " + msg);
  FinishImmediateReply(c);
  c->should_close = true;  // RESP cannot resync after a framing error
}

void RespServer::ExecuteCommand(Worker* w, Connection* c,
                                const std::vector<Slice>& argv) {
  const CommandInfo* info = LookupCommand(argv[0], &w->scratch_upper);
  if (info == nullptr) {
    std::string name(argv[0].data(),
                     std::min<size_t>(argv[0].size(), 64));
    AppendError(&c->out, "ERR unknown command '" + name + "'");
    FinishImmediateReply(c);
    return;
  }
  const int argc = static_cast<int>(argv.size());
  if (argc < info->min_args ||
      (info->max_args != -1 && argc > info->max_args)) {
    AppendError(&c->out, "ERR wrong number of arguments for '" +
                             w->scratch_upper + "' command");
    FinishImmediateReply(c);
    return;
  }
  // Point reads see the connection's own staged writes through its
  // overlay, so they never force a mid-turn commit; only iterator-shaped
  // commands (SCAN, DBSIZE) and LETHE.PURGE call EnsureConnCommitted
  // themselves. Reply FIFO order is kept by the acked/pending machinery.
  switch (info->cmd) {
    case Cmd::kGet:
      CmdGet(w, c, argv);
      break;
    case Cmd::kSet:
      CmdSet(w, c, argv);
      break;
    case Cmd::kDel:
      CmdDelOrExists(w, c, argv, /*is_del=*/true);
      break;
    case Cmd::kExists:
      CmdDelOrExists(w, c, argv, /*is_del=*/false);
      break;
    case Cmd::kMGet:
      CmdMGet(w, c, argv);
      break;
    case Cmd::kMSet:
      CmdMSet(w, c, argv);
      break;
    case Cmd::kScan:
      CmdScan(w, c, argv);
      break;
    case Cmd::kExpire:
      CmdExpireOrPersist(w, c, argv, /*persist=*/false);
      break;
    case Cmd::kTtl:
      CmdTtl(w, c, argv);
      break;
    case Cmd::kPersist:
      CmdExpireOrPersist(w, c, argv, /*persist=*/true);
      break;
    case Cmd::kPing:
      if (argc == 2) {
        AppendBulkString(&c->out, argv[1]);
      } else {
        AppendSimpleString(&c->out, "PONG");
      }
      FinishImmediateReply(c);
      break;
    case Cmd::kEcho:
      AppendBulkString(&c->out, argv[1]);
      FinishImmediateReply(c);
      break;
    case Cmd::kQuit:
      AppendSimpleString(&c->out, "OK");
      FinishImmediateReply(c);
      c->should_close = true;
      break;
    case Cmd::kSelect:
      if (argv[1] == Slice("0")) {
        AppendSimpleString(&c->out, "OK");
      } else {
        AppendError(&c->out, "ERR DB index is out of range");
      }
      FinishImmediateReply(c);
      break;
    case Cmd::kCommand:
      AppendArrayHeader(&c->out, 0);
      FinishImmediateReply(c);
      break;
    case Cmd::kInfo:
      CmdInfo(w, c, argv);
      break;
    case Cmd::kDbSize: {
      // Exact count, like Redis: scan the live keyspace under a snapshot so
      // overwrites, tombstones, and expired-but-unpurged entries are not
      // miscounted. O(n) — INFO's Keyspace section carries the O(1)
      // approximate figure for monitoring.
      EnsureConnCommitted(w, c);
      EnsureSnapshot(w, c);
      ReadOptions ro;
      ro.snapshot = c->snap;
      ro.fill_page_cache = false;
      const uint64_t now = NowMicros();
      long long n = 0;
      std::unique_ptr<Iterator> it = db_->NewIterator(ro);
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        if (!IsExpired(it->delete_key(), now)) n++;
      }
      AppendInteger(&c->out, n);
      FinishImmediateReply(c);
      break;
    }
    case Cmd::kShutdown:
      c->should_close = true;  // like Redis: no reply on success
      RequestStop();
      break;
    case Cmd::kLethePurge:
      CmdLethePurge(w, c, argv);
      break;
  }
}

void RespServer::EndTurn(Worker* w) {
  CommitTurnBatch(w);
  for (Connection* c : w->touched) {
    c->in_touched_list = false;
    if (!c->closed) FlushOutput(w, c);
  }
  w->touched.clear();
  ReleaseTurnSnapshots(w);
  for (Connection* c : w->graveyard) {
    w->conns.erase(c);
    delete c;
  }
  w->graveyard.clear();
}

void RespServer::CommitTurnBatch(Worker* w) {
  Status s;
  const size_t ops = w->batch.Count();
  if (ops > 0) {
    WriteOptions wo;
    wo.sync = opts_.sync_writes;
    s = db_->Write(wo, &w->batch);
    w->batch.Clear();
    net_stats_.net_batches_coalesced.fetch_add(1, std::memory_order_relaxed);
    net_stats_.net_batch_ops_coalesced.fetch_add(ops,
                                                 std::memory_order_relaxed);
    net_stats_.RecordNetBatchSize(ops);
  }
  for (Connection* c : w->dirty) {
    c->in_dirty_list = false;
    if (c->closed) {
      c->pending_writes = 0;
      c->overlay.clear();
      c->reply_marks.clear();
      continue;
    }
    if (s.ok()) {
      c->acked = c->out.size();
    } else {
      // Rebuild the withheld tail: every optimistic write ack becomes an
      // error, while read replies interleaved among them (answered from
      // the overlay) are kept verbatim — the client still sees exactly
      // one reply per command, in order.
      const std::string err = "ERR write failed: " + s.ToString();
      std::string rebuilt;
      size_t prev = c->acked;
      for (const auto& [end, is_write] : c->reply_marks) {
        if (is_write) {
          AppendError(&rebuilt, err);
        } else {
          rebuilt.append(c->out, prev, end - prev);
        }
        prev = end;
      }
      c->out.resize(c->acked);
      c->out += rebuilt;
      c->acked = c->out.size();
    }
    c->pending_writes = 0;
    c->overlay.clear();
    c->reply_marks.clear();
    // The connection's writes are now committed: drop its pinned snapshot
    // so the next read in this turn observes them.
    ReleaseConnSnapshot(c);
  }
  w->dirty.clear();
}

void RespServer::MaybeCommitEagerly(Worker* w) {
  if (w->batch.Count() >= kMaxBatchOps ||
      w->batch.ApproximateBytes() >= kMaxBatchBytes) {
    CommitTurnBatch(w);
  }
}

void RespServer::FlushOutput(Worker* w, Connection* c) {
  const size_t sendable =
      (c->pending_writes == 0) ? c->out.size() : c->acked;
  while (c->out_sent < sendable) {
    ssize_t n = ::write(c->fd, c->out.data() + c->out_sent,
                        sendable - c->out_sent);
    if (n > 0) {
      c->out_sent += static_cast<size_t>(n);
      net_stats_.net_bytes_out.fetch_add(static_cast<uint64_t>(n),
                                         std::memory_order_relaxed);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!c->want_write) {
        c->want_write = true;
        (void)w->loop.Mod(c->fd, EPOLLIN | EPOLLET | EPOLLOUT, c);
      }
      return;
    }
    CloseConnection(w, c);
    return;
  }
  if (c->out_sent == c->out.size()) {
    if (c->out.capacity() > kOutputShrinkThreshold) {
      std::string().swap(c->out);
    } else {
      c->out.clear();
    }
    c->out_sent = 0;
    c->acked = 0;
    if (c->should_close) {
      CloseConnection(w, c);
      return;
    }
  }
  if (c->want_write) {
    c->want_write = false;
    (void)w->loop.Mod(c->fd, EPOLLIN | EPOLLET, c);
  }
}

void RespServer::CloseConnection(Worker* w, Connection* c) {
  if (c->closed) return;
  c->closed = true;
  c->should_close = true;
  ReleaseConnSnapshot(c);
  w->loop.Del(c->fd);
  ::close(c->fd);
  c->fd = -1;
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
  net_stats_.net_connections_closed.fetch_add(1, std::memory_order_relaxed);
  w->graveyard.push_back(c);  // freed at turn end; lists may still point here
}

void RespServer::DrainOnStop(Worker* w) {
  // Stop accepting first.
  w->loop.Del(w->listen_fd);
  ::close(w->listen_fd);
  w->listen_fd = -1;

  // Commit anything staged (resolving optimistic acks), release snapshots,
  // then spend the drain budget flushing reply buffers. Clients that do not
  // drain their socket in time are cut off.
  CommitTurnBatch(w);
  ReleaseTurnSnapshots(w);
  for (Connection* c : w->touched) c->in_touched_list = false;
  w->touched.clear();

  const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  for (;;) {
    bool pending = false;
    for (Connection* c : w->conns) {
      if (c->closed) continue;
      if (c->out_sent < c->out.size()) FlushOutput(w, c);
      if (!c->closed && c->out_sent < c->out.size()) pending = true;
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    w->loop.Poll(10, &w->events);  // wait for sockets to become writable
  }

  for (Connection* c : w->conns) {
    CloseConnection(w, c);
    delete c;
  }
  w->conns.clear();
  w->graveyard.clear();
}

// Per-connection snapshots live for one turn: pinned lazily at the first
// engine read, dropped here so compaction is never held back by idle
// clients.
void RespServer::ReleaseTurnSnapshots(Worker* w) {
  for (Connection* c : w->snaps) {
    c->in_snap_list = false;
    ReleaseConnSnapshot(c);
  }
  w->snaps.clear();
}

void RespServer::EnsureConnCommitted(Worker* w, Connection* c) {
  if (c->pending_writes > 0) CommitTurnBatch(w);
}

void RespServer::EnsureSnapshot(Worker* w, Connection* c) {
  if (c->snap != nullptr) return;
  c->snap = db_->GetSnapshot();
  if (!c->in_snap_list) {
    c->in_snap_list = true;
    w->snaps.push_back(c);
  }
}

void RespServer::ReleaseConnSnapshot(Connection* c) {
  if (c->snap != nullptr) {
    db_->ReleaseSnapshot(c->snap);
    c->snap = nullptr;
  }
}

void RespServer::StageWriteReply(Worker* w, Connection* c) {
  if (c->pending_writes == 0) c->acked = c->out.size();
  c->pending_writes++;
  if (!c->in_dirty_list) {
    c->in_dirty_list = true;
    w->dirty.push_back(c);
  }
}

void RespServer::FinishImmediateReply(Connection* c) {
  if (c->pending_writes == 0) {
    c->acked = c->out.size();
  } else {
    // A read (or error) reply interleaved among unacked write replies:
    // final bytes, but withheld behind the batch to keep FIFO order, and
    // marked so a failed commit can rebuild around them.
    c->reply_marks.emplace_back(c->out.size(), false);
  }
}

void RespServer::FinishWriteReply(Worker* w, Connection* c) {
  c->reply_marks.emplace_back(c->out.size(), true);
  MaybeCommitEagerly(w);
}

Status RespServer::ReadKey(Worker* w, Connection* c, const Slice& key,
                           bool at_snapshot, uint64_t now,
                           const std::string** value, uint64_t* dk) {
  auto it = c->overlay.empty() ? c->overlay.end()
                               : c->overlay.find(key.ToString());
  if (it != c->overlay.end()) {
    if (it->second.deleted) return Status::NotFound();
    *value = &it->second.value;
    *dk = it->second.delete_key;
  } else {
    ReadOptions ro;
    if (at_snapshot) {
      EnsureSnapshot(w, c);
      ro.snapshot = c->snap;
    }
    Status s = db_->GetWithDeleteKey(ro, key, &w->value, dk);
    if (!s.ok()) return s;
    *value = &w->value;
  }
  if (IsExpired(*dk, now)) {
    net_stats_.net_expired_lazy.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound();
  }
  return Status::OK();
}

// Writes go to the turn batch and to the connection's read-your-writes
// overlay together. A deadline makes the put expiring: the engine's merges
// then delete the key once the deadline passes.
void RespServer::StagePut(Worker* w, Connection* c, const Slice& key,
                          uint64_t delete_key, const Slice& value) {
  if (delete_key != 0) {
    w->batch.PutExpiring(key, delete_key, value);
  } else {
    w->batch.Put(key, 0, value);
  }
  StagedWrite& sw = c->overlay[key.ToString()];
  sw.deleted = false;
  sw.delete_key = delete_key;
  // EXPIRE/PERSIST re-stage the value they just read from this very
  // entry; skip the self-aliasing copy.
  if (value.data() != sw.value.data() || value.size() != sw.value.size()) {
    sw.value.assign(value.data(), value.size());
  }
}

// Returns false, staging nothing, when the overlay already holds a delete
// of `key`: a key repeated in one DEL is deleted and counted once.
bool RespServer::StageDelete(Worker* w, Connection* c, const Slice& key) {
  StagedWrite& sw = c->overlay[key.ToString()];
  if (sw.deleted) return false;
  w->batch.Delete(key);
  sw.deleted = true;
  sw.delete_key = 0;
  sw.value.clear();
  return true;
}

// The delete key `amount` units after `now`: saturating, and never 0,
// which means "no expiry".
uint64_t RespServer::Deadline(uint64_t now, uint64_t amount, uint64_t unit) {
  const uint64_t span =
      (amount != 0 && unit > UINT64_MAX / amount) ? UINT64_MAX : amount * unit;
  return std::max<uint64_t>(1, UINT64_MAX - now < span ? UINT64_MAX
                                                       : now + span);
}

void RespServer::Touch(Worker* w, Connection* c) {
  if (!c->in_touched_list) {
    c->in_touched_list = true;
    w->touched.push_back(c);
  }
}

void RespServer::CmdGet(Worker* w, Connection* c,
                        const std::vector<Slice>& argv) {
  const std::string* value = nullptr;
  uint64_t dk = 0;
  Status s = ReadKey(w, c, argv[1], /*at_snapshot=*/true, NowMicros(), &value,
                     &dk);
  AppendValue(&c->out, s, value);
  FinishImmediateReply(c);
}

void RespServer::CmdSet(Worker* w, Connection* c,
                        const std::vector<Slice>& argv) {
  uint64_t delete_key = 0;
  for (size_t i = 3; i < argv.size();) {
    ToUpper(argv[i], &w->scratch_upper);
    long long amount = 0;
    if ((w->scratch_upper == "EX" || w->scratch_upper == "PX") &&
        i + 1 < argv.size() && ParseInt(argv[i + 1], &amount) &&
        amount > 0) {
      const uint64_t unit = w->scratch_upper == "EX" ? 1000000ull : 1000ull;
      delete_key =
          Deadline(NowMicros(), static_cast<uint64_t>(amount), unit);
      i += 2;
    } else {
      AppendError(&c->out, "ERR syntax error");
      FinishImmediateReply(c);
      return;
    }
  }
  StageWriteReply(w, c);
  StagePut(w, c, argv[1], delete_key, argv[2]);
  AppendSimpleString(&c->out, "OK");
  FinishWriteReply(w, c);
}

void RespServer::CmdDelOrExists(Worker* w, Connection* c,
                                const std::vector<Slice>& argv,
                                bool is_del) {
  // EXISTS reads the turn snapshot, DEL's read-modify-write reads latest.
  // Any read error fails the whole command before anything is staged.
  const uint64_t now = NowMicros();
  const std::string* value = nullptr;
  uint64_t dk = 0;
  std::vector<size_t> hits;
  for (size_t i = 1; i < argv.size(); i++) {
    Status s = ReadKey(w, c, argv[i], /*at_snapshot=*/!is_del, now, &value,
                       &dk);
    if (s.ok()) {
      hits.push_back(i);
    } else if (!s.IsNotFound()) {
      AppendStatusError(&c->out, s);
      FinishImmediateReply(c);
      return;
    }
  }
  if (!is_del || hits.empty()) {
    AppendInteger(&c->out, static_cast<long long>(hits.size()));
    FinishImmediateReply(c);
    return;
  }
  StageWriteReply(w, c);
  long long deleted = 0;
  for (size_t i : hits) deleted += StageDelete(w, c, argv[i]) ? 1 : 0;
  AppendInteger(&c->out, deleted);
  FinishWriteReply(w, c);
}

void RespServer::CmdMGet(Worker* w, Connection* c,
                         const std::vector<Slice>& argv) {
  const uint64_t now = NowMicros();
  const std::string* value = nullptr;
  uint64_t dk = 0;
  AppendArrayHeader(&c->out, argv.size() - 1);
  for (size_t i = 1; i < argv.size(); i++) {
    Status s = ReadKey(w, c, argv[i], /*at_snapshot=*/true, now, &value, &dk);
    AppendValue(&c->out, s, value);
  }
  FinishImmediateReply(c);
}

void RespServer::CmdMSet(Worker* w, Connection* c,
                         const std::vector<Slice>& argv) {
  if ((argv.size() - 1) % 2 != 0) {
    AppendError(&c->out, "ERR wrong number of arguments for MSET");
    FinishImmediateReply(c);
    return;
  }
  StageWriteReply(w, c);
  for (size_t i = 1; i + 1 < argv.size(); i += 2) {
    StagePut(w, c, argv[i], 0, argv[i + 1]);
  }
  AppendSimpleString(&c->out, "OK");
  FinishWriteReply(w, c);
}

void RespServer::CmdScan(Worker* w, Connection* c,
                         const std::vector<Slice>& argv) {
  // The cursor is the hex-encoded next sort key ("0" = start/done) —
  // stateless on the server, stable across restarts, O(log n) to resume.
  std::string start;
  if (!(argv[1] == Slice("0")) && !HexDecode(argv[1], &start)) {
    AppendError(&c->out, "ERR invalid cursor");
    FinishImmediateReply(c);
    return;
  }
  long long count = 10;
  Slice pattern;
  bool have_pattern = false;
  for (size_t i = 2; i < argv.size();) {
    ToUpper(argv[i], &w->scratch_upper);
    long long parsed = 0;
    if (w->scratch_upper == "COUNT" && i + 1 < argv.size() &&
        ParseInt(argv[i + 1], &parsed) && parsed > 0) {
      count = std::min<long long>(parsed, 10000);
      i += 2;
    } else if (w->scratch_upper == "MATCH" && i + 1 < argv.size()) {
      pattern = argv[i + 1];
      have_pattern = true;
      i += 2;
    } else {
      AppendError(&c->out, "ERR syntax error");
      FinishImmediateReply(c);
      return;
    }
  }
  // Iterators cannot consult the overlay: commit the staged batch so the
  // scan observes this connection's own pipelined writes.
  EnsureConnCommitted(w, c);
  EnsureSnapshot(w, c);
  ReadOptions ro;
  ro.snapshot = c->snap;
  std::unique_ptr<Iterator> it = db_->NewIterator(ro);
  if (start.empty()) {
    it->SeekToFirst();
  } else {
    it->Seek(start);
  }
  const uint64_t now = NowMicros();
  std::vector<std::string> keys;
  long long examined = 0;
  while (it->Valid() && examined < count) {
    if (IsExpired(it->delete_key(), now)) {
      net_stats_.net_expired_lazy.fetch_add(1, std::memory_order_relaxed);
    } else if (!have_pattern || GlobMatch(pattern, it->key())) {
      keys.emplace_back(it->key().data(), it->key().size());
    }
    examined++;
    it->Next();
  }
  if (!it->status().ok()) {
    AppendStatusError(&c->out, it->status());
    FinishImmediateReply(c);
    return;
  }
  const std::string cursor = it->Valid() ? HexEncode(it->key()) : "0";
  AppendArrayHeader(&c->out, 2);
  AppendBulkString(&c->out, cursor);
  AppendArrayHeader(&c->out, keys.size());
  for (const std::string& k : keys) AppendBulkString(&c->out, k);
  FinishImmediateReply(c);
}

void RespServer::CmdExpireOrPersist(Worker* w, Connection* c,
                                    const std::vector<Slice>& argv,
                                    bool persist) {
  // Read-modify-write at latest: the overlay supplies this connection's
  // own pipelined SETs, the engine's latest-committed state covers the
  // rest. The RMW is not atomic against writers on other connections — a
  // racing SET between the read and this turn's commit wins wholesale,
  // which matches EXPIRE-then-SET semantics.
  long long secs = 0;
  if (!persist && !ParseInt(argv[2], &secs)) {
    AppendError(&c->out, "ERR value is not an integer or out of range");
    FinishImmediateReply(c);
    return;
  }
  const uint64_t now = NowMicros();
  const std::string* value = nullptr;
  uint64_t dk = 0;
  Status s = ReadKey(w, c, argv[1], /*at_snapshot=*/false, now, &value, &dk);
  if (!s.ok() || (persist && dk == 0)) {
    if (s.ok() || s.IsNotFound()) {
      AppendInteger(&c->out, 0);
    } else {
      AppendStatusError(&c->out, s);
    }
    FinishImmediateReply(c);
    return;
  }
  StageWriteReply(w, c);
  if (persist) {
    StagePut(w, c, argv[1], 0, *value);
  } else if (secs <= 0) {
    StageDelete(w, c, argv[1]);  // non-positive TTL deletes, like Redis
  } else {
    StagePut(w, c, argv[1], Deadline(now, static_cast<uint64_t>(secs), 1000000),
             *value);
  }
  AppendInteger(&c->out, 1);
  FinishWriteReply(w, c);
}

void RespServer::CmdTtl(Worker* w, Connection* c,
                        const std::vector<Slice>& argv) {
  const uint64_t now = NowMicros();
  const std::string* value = nullptr;
  uint64_t dk = 0;
  Status s = ReadKey(w, c, argv[1], /*at_snapshot=*/true, now, &value, &dk);
  if (s.ok()) {
    AppendInteger(&c->out, dk == 0 ? -1
                                   : static_cast<long long>(
                                         (dk - now + 999999) / 1000000));
  } else if (s.IsNotFound()) {
    AppendInteger(&c->out, -2);
  } else {
    AppendStatusError(&c->out, s);
  }
  FinishImmediateReply(c);
}

void RespServer::CmdInfo(Worker* w, Connection* c,
                         const std::vector<Slice>& argv) {
  (void)w;
  AppendBulkString(&c->out,
                   BuildInfo(argv.size() == 2 ? argv[1] : Slice()));
  FinishImmediateReply(c);
}

void RespServer::CmdLethePurge(Worker* w, Connection* c,
                               const std::vector<Slice>& argv) {
  // SecondaryRangeDelete bypasses the batch path entirely, so the staged
  // batch must commit first to keep this ordered after the connection's
  // own pipelined writes.
  EnsureConnCommitted(w, c);
  long long begin = 0, end = 0;
  if (!ParseInt(argv[1], &begin) || !ParseInt(argv[2], &end) || begin < 0 ||
      end < begin) {
    AppendError(&c->out, "ERR invalid delete-key range");
    FinishImmediateReply(c);
    return;
  }
  Status s = db_->SecondaryRangeDelete(WriteOptions(),
                                       static_cast<uint64_t>(begin),
                                       static_cast<uint64_t>(end));
  if (s.ok()) {
    AppendSimpleString(&c->out, "OK");
  } else {
    AppendStatusError(&c->out, s);
  }
  FinishImmediateReply(c);
}

std::string RespServer::BuildInfo(const Slice& section) {
  std::string sec;
  ToUpper(section, &sec);
  const bool all = sec.empty() || sec == "ALL" || sec == "DEFAULT" ||
                   sec == "EVERYTHING";
  std::string out;
  auto add = [&out](const char* k, uint64_t v) {
    out += k;
    out += ':';
    out += std::to_string(v);
    out += "\r\n";
  };
  const Statistics& es = db_->stats();
  if (all || sec == "SERVER") {
    out += "# Server\r\n";
    out += "engine:lethe\r\n";
    add("tcp_port", port_);
    add("io_threads_active", workers_.size());
    add("uptime_in_seconds", (NowMicros() - start_micros_) / 1000000);
    out += "\r\n";
  }
  if (all || sec == "CLIENTS") {
    out += "# Clients\r\n";
    add("connected_clients", static_cast<uint64_t>(std::max(
                                 0, connection_count())));
    add("maxclients", static_cast<uint64_t>(opts_.max_connections));
    add("rejected_connections", net_stats_.net_connections_rejected);
    add("slow_client_disconnects", net_stats_.net_slow_client_disconnects);
    out += "\r\n";
  }
  if (all || sec == "STATS") {
    out += "# Stats\r\n";
    add("total_connections_received", net_stats_.net_connections_accepted);
    add("total_commands_processed", net_stats_.net_commands);
    add("total_net_input_bytes", net_stats_.net_bytes_in);
    add("total_net_output_bytes", net_stats_.net_bytes_out);
    add("protocol_errors", net_stats_.net_protocol_errors);
    add("coalesced_batches", net_stats_.net_batches_coalesced);
    add("coalesced_batch_ops", net_stats_.net_batch_ops_coalesced);
    const Histogram pipe = net_stats_.NetPipelineDepthHistogram();
    const Histogram batch = net_stats_.NetBatchSizeHistogram();
    add("pipeline_depth_p50", static_cast<uint64_t>(pipe.Percentile(50)));
    add("pipeline_depth_p99", static_cast<uint64_t>(pipe.Percentile(99)));
    add("net_batch_size_p50", static_cast<uint64_t>(batch.Percentile(50)));
    add("net_batch_size_p99", static_cast<uint64_t>(batch.Percentile(99)));
    add("expired_lazy", net_stats_.net_expired_lazy);
    add("expired_active", es.net_keys_expired_active);
    out += "\r\n";
  }
  if (all || sec == "ENGINE") {
    out += "# Engine\r\n";
    add("group_commit_batches", es.group_commit_batches);
    add("group_commit_entries", es.group_commit_entries);
    add("wal_appends", es.wal_appends);
    add("wal_syncs", es.wal_syncs);
    add("flushes", es.flushes);
    add("flush_memtables", es.flush_memtables);
    add("flush_output_files", es.flush_output_files);
    add("compactions", es.compactions);
    add("compactions_ttl_held", es.compactions_ttl_held);
    add("secondary_range_deletes", es.secondary_range_deletes);
    add("srd_batches", es.srd_batches);
    add("write_stalls", es.write_stalls);
    add("stall_micros", es.stall_micros);
    add("point_lookups", es.point_lookups);
    add("page_cache_hits", es.page_cache_hits);
    add("page_cache_misses", es.page_cache_misses);
    out += "\r\n";
  }
  if (all || sec == "KEYSPACE") {
    out += "# Keyspace\r\n";
    out += "db0:keys_approx=" + std::to_string(db_->ApproximateEntryCount()) +
           "\r\n";
  }
  return out;
}

}  // namespace server
}  // namespace lethe
