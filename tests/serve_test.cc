// Loopback integration tests for the RESP serving layer: a real RespServer
// on an ephemeral port, driven over TCP. Covers the command surface against
// a shadow model, pipelining + write coalescing, per-connection ordering
// (read-your-writes), TTL lazy expiry and expiry at merge time on a logical
// clock, overload handling (admission control, slow clients, oversized
// requests), protocol errors, graceful shutdown, and serving a ShardedDB.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lethe.h"
#include "src/env/env.h"
#include "src/env/io_counting_env.h"
#include "src/server/server.h"
#include "src/util/random.h"

namespace lethe {
namespace server {
namespace {

std::string EncodeCommand(const std::vector<std::string>& argv) {
  std::string out = "*" + std::to_string(argv.size()) + "\r\n";
  for (const std::string& a : argv) {
    out += "$" + std::to_string(a.size()) + "\r\n" + a + "\r\n";
  }
  return out;
}

// Minimal blocking RESP client. Replies are rendered to strings:
//   +OK -> "OK"     :3 -> "3"      -ERR x -> "(error) ERR x"
//   $5 hello -> "hello"   $-1 -> "(nil)"   arrays -> "[a|b|c]"
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct timeval tv;
    tv.tv_sec = 20;
    tv.tv_usec = 0;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Sends one command and reads one reply.
  std::string Cmd(const std::vector<std::string>& argv) {
    if (!SendRaw(EncodeCommand(argv))) return "(send-error)";
    return ReadReply();
  }

  std::string ReadReply() {
    std::string line;
    if (!ReadLine(&line) || line.empty()) return "(eof)";
    char type = line[0];
    std::string rest = line.substr(1);
    switch (type) {
      case '+':
        return rest;
      case '-':
        return "(error) " + rest;
      case ':':
        return rest;
      case '$': {
        long long len = atoll(rest.c_str());
        if (len < 0) return "(nil)";
        std::string payload;
        if (!ReadExact(static_cast<size_t>(len) + 2, &payload)) {
          return "(eof)";
        }
        payload.resize(static_cast<size_t>(len));  // strip CRLF
        return payload;
      }
      case '*': {
        long long n = atoll(rest.c_str());
        if (n < 0) return "(nil-array)";
        std::string out = "[";
        for (long long i = 0; i < n; i++) {
          if (i) out += "|";
          out += ReadReply();
        }
        return out + "]";
      }
      default:
        return "(bad-type)";
    }
  }

  // True if the peer closes the connection (EOF) within the rcv timeout.
  bool ReadUntilEof() {
    char tmp[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n == 0) return true;
      if (n < 0) return errno == ECONNRESET;
    }
  }

  int fd() const { return fd_; }

 private:
  bool ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buf_.find("\r\n", pos_);
      if (nl != std::string::npos) {
        *line = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 2;
        CompactBuf();
        return true;
      }
      if (!Fill()) return false;
    }
  }

  bool ReadExact(size_t n, std::string* out) {
    while (buf_.size() - pos_ < n) {
      if (!Fill()) return false;
    }
    *out = buf_.substr(pos_, n);
    pos_ += n;
    CompactBuf();
    return true;
  }

  bool Fill() {
    char tmp[4096];
    ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }

  void CompactBuf() {
    if (pos_ > 64 * 1024) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    clock_.SetMicros(1);
    options_.env = env_.get();
    options_.clock = &clock_;
    options_.write_buffer_bytes = 64 << 10;
    options_.target_file_bytes = 64 << 10;
    options_.inline_compactions = false;
    options_.background_threads = 2;
  }

  void TearDown() override {
    server_.reset();
    db_.reset();
  }

  void StartServer(ServerOptions server_options = ServerOptions()) {
    ASSERT_TRUE(DB::Open(options_, "servedb", &db_).ok());
    server_options.port = 0;  // ephemeral
    server_options.clock = &clock_;
    server_ = std::make_unique<RespServer>(db_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  std::unique_ptr<Env> env_;
  LogicalClock clock_;
  Options options_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<RespServer> server_;
};

TEST_F(ServeTest, CommandSurface) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));

  EXPECT_EQ(c.Cmd({"PING"}), "PONG");
  EXPECT_EQ(c.Cmd({"PING", "hello"}), "hello");
  EXPECT_EQ(c.Cmd({"ECHO", "echoed"}), "echoed");
  EXPECT_EQ(c.Cmd({"SELECT", "0"}), "OK");
  EXPECT_EQ(c.Cmd({"SELECT", "3"}), "(error) ERR DB index is out of range");

  EXPECT_EQ(c.Cmd({"GET", "missing"}), "(nil)");
  EXPECT_EQ(c.Cmd({"SET", "k1", "v1"}), "OK");
  EXPECT_EQ(c.Cmd({"GET", "k1"}), "v1");
  EXPECT_EQ(c.Cmd({"EXISTS", "k1"}), "1");
  EXPECT_EQ(c.Cmd({"EXISTS", "k1", "missing", "k1"}), "2");
  EXPECT_EQ(c.Cmd({"DEL", "k1", "missing"}), "1");
  EXPECT_EQ(c.Cmd({"GET", "k1"}), "(nil)");
  // Like Redis, EXISTS counts a repeated key every time, DEL only once.
  EXPECT_EQ(c.Cmd({"SET", "dup", "v"}), "OK");
  EXPECT_EQ(c.Cmd({"EXISTS", "dup", "dup"}), "2");
  EXPECT_EQ(c.Cmd({"DEL", "dup", "dup"}), "1");
  EXPECT_EQ(c.Cmd({"EXISTS", "dup"}), "0");

  EXPECT_EQ(c.Cmd({"MSET", "a", "1", "b", "2", "c", "3"}), "OK");
  EXPECT_EQ(c.Cmd({"MGET", "a", "missing", "c"}), "[1|(nil)|3]");
  EXPECT_EQ(c.Cmd({"DBSIZE"}), "3");

  // Binary-safe keys and values.
  std::string bin_key("k\x00\x01\r\n", 5);
  std::string bin_val("v\xff\x00zz", 5);
  EXPECT_EQ(c.Cmd({"SET", bin_key, bin_val}), "OK");
  EXPECT_EQ(c.Cmd({"GET", bin_key}), bin_val);

  // Errors that must not kill the connection.
  EXPECT_EQ(c.Cmd({"NOSUCHCMD", "x"}), "(error) ERR unknown command 'NOSUCHCMD'");
  EXPECT_EQ(c.Cmd({"GET"}), "(error) ERR wrong number of arguments for 'GET' command");
  EXPECT_EQ(c.Cmd({"SET", "k", "v", "BOGUS"}), "(error) ERR syntax error");
  EXPECT_EQ(c.Cmd({"MSET", "a", "1", "b"}),
            "(error) ERR wrong number of arguments for MSET");
  EXPECT_EQ(c.Cmd({"PING"}), "PONG");  // still alive

  EXPECT_EQ(c.Cmd({"QUIT"}), "OK");
  EXPECT_TRUE(c.ReadUntilEof());
}

TEST_F(ServeTest, PipelinedWritesCoalesceIntoFewBatches) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));

  const int kCommands = 1000;
  std::string pipeline;
  for (int i = 0; i < kCommands; i++) {
    pipeline += EncodeCommand({"SET", "key" + std::to_string(i), "value"});
  }
  ASSERT_TRUE(c.SendRaw(pipeline));
  for (int i = 0; i < kCommands; i++) {
    ASSERT_EQ(c.ReadReply(), "OK") << "reply " << i;
  }

  const Statistics& net = server_->net_stats();
  EXPECT_EQ(net.net_batch_ops_coalesced.load(), kCommands);
  // The whole pipeline drains in a handful of event-loop turns, so the ops
  // must land in far fewer engine batches than commands (that is the whole
  // point of the serving layer).
  EXPECT_LE(net.net_batches_coalesced.load(), kCommands / 10);
  EXPECT_GE(net.net_batches_coalesced.load(), 1u);
  // And each engine batch carries what the network coalesced.
  EXPECT_EQ(db_->stats().group_commit_entries.load(), kCommands);

  // All the writes actually landed.
  EXPECT_EQ(c.Cmd({"GET", "key0"}), "value");
  EXPECT_EQ(c.Cmd({"GET", "key999"}), "value");
  EXPECT_EQ(c.Cmd({"DBSIZE"}), std::to_string(kCommands));
}

TEST_F(ServeTest, PipelinedRepliesStayInCommandOrder) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));

  // Writes and reads interleaved in one burst: replies must arrive in
  // command order and every read must observe the connection's own
  // preceding writes (reads answer from the connection's overlay of
  // staged writes, so the burst still commits as one batch).
  std::string pipeline;
  pipeline += EncodeCommand({"SET", "x", "1"});
  pipeline += EncodeCommand({"GET", "x"});
  pipeline += EncodeCommand({"SET", "x", "2"});
  pipeline += EncodeCommand({"SET", "y", "9"});
  pipeline += EncodeCommand({"GET", "x"});
  pipeline += EncodeCommand({"DEL", "x"});
  pipeline += EncodeCommand({"GET", "x"});
  pipeline += EncodeCommand({"GET", "y"});
  ASSERT_TRUE(c.SendRaw(pipeline));
  EXPECT_EQ(c.ReadReply(), "OK");
  EXPECT_EQ(c.ReadReply(), "1");
  EXPECT_EQ(c.ReadReply(), "OK");
  EXPECT_EQ(c.ReadReply(), "OK");
  EXPECT_EQ(c.ReadReply(), "2");
  EXPECT_EQ(c.ReadReply(), "1");
  EXPECT_EQ(c.ReadReply(), "(nil)");
  EXPECT_EQ(c.ReadReply(), "9");
}

// One burst is one turn, so every read after the SET is answered from the
// connection's staged, uncommitted writes: the overlay branch of each point
// command, including the read halves of EXPIRE and PERSIST.
TEST_F(ServeTest, PipelinedPointCommandsReadTheOverlay) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));

  // (command, expected reply) in pipeline order.
  const std::vector<std::pair<std::vector<std::string>, std::string>> burst = {
      {{"SET", "a", "1", "EX", "100"}, "OK"},
      {{"TTL", "a"}, "100"},
      {{"PERSIST", "a"}, "1"},
      {{"TTL", "a"}, "-1"},
      {{"PERSIST", "a"}, "0"},
      {{"EXPIRE", "a", "50"}, "1"},
      {{"TTL", "a"}, "50"},
      {{"MGET", "a", "missing"}, "[1|(nil)]"},
      {{"EXISTS", "a", "a", "missing"}, "2"},
      {{"EXPIRE", "a", "0"}, "1"},
      {{"EXISTS", "a"}, "0"},
      {{"GET", "a"}, "(nil)"},
      {{"TTL", "a"}, "-2"},
      {{"EXPIRE", "a", "5"}, "0"},
      {{"PERSIST", "a"}, "0"},
  };
  std::string wire;
  for (const auto& [argv, reply] : burst) wire += EncodeCommand(argv);
  const uint64_t batches_before =
      server_->net_stats().net_batches_coalesced.load();
  ASSERT_TRUE(c.SendRaw(wire));
  for (size_t i = 0; i < burst.size(); i++) {
    EXPECT_EQ(c.ReadReply(), burst[i].second) << "reply " << i;
  }
  // Every write of the burst committed as one batch: no read forced a
  // mid-turn commit, so each read above went through the overlay.
  EXPECT_EQ(server_->net_stats().net_batches_coalesced.load() - batches_before,
            1u);
}

TEST_F(ServeTest, ShadowModelRandomizedWorkload) {
  StartServer();
  const int kClients = 3;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < kClients; i++) {
    clients.push_back(std::make_unique<TestClient>());
    ASSERT_TRUE(clients.back()->Connect(server_->port()));
  }

  // All clients touch one shared keyspace, but each key is owned by one
  // client so the shadow stays deterministic under concurrency.
  std::map<std::string, std::string> shadow;
  Random rnd(401);
  for (int op = 0; op < 2000; op++) {
    int ci = static_cast<int>(rnd.Uniform(kClients));
    TestClient& c = *clients[ci];
    std::string key =
        "c" + std::to_string(ci) + ":k" + std::to_string(rnd.Uniform(50));
    switch (rnd.Uniform(4)) {
      case 0: {
        std::string value = "v" + std::to_string(op);
        ASSERT_EQ(c.Cmd({"SET", key, value}), "OK");
        shadow[key] = value;
        break;
      }
      case 1: {
        auto it = shadow.find(key);
        ASSERT_EQ(c.Cmd({"GET", key}),
                  it == shadow.end() ? "(nil)" : it->second);
        break;
      }
      case 2: {
        long long expect = shadow.erase(key) ? 1 : 0;
        ASSERT_EQ(c.Cmd({"DEL", key}), std::to_string(expect));
        break;
      }
      case 3: {
        ASSERT_EQ(c.Cmd({"EXISTS", key}),
                  shadow.count(key) ? "1" : "0");
        break;
      }
    }
  }

  // Full SCAN must return exactly the shadow's keyspace.
  TestClient& c = *clients[0];
  std::vector<std::string> scanned;
  std::string cursor = "0";
  do {
    ASSERT_TRUE(c.SendRaw(EncodeCommand({"SCAN", cursor, "COUNT", "100"})));
    std::string line;
    // Parse the 2-element reply manually: cursor + key array.
    std::string reply = c.ReadReply();
    // reply format: [cursor|[k1|k2|...]] — split on first '|'.
    ASSERT_EQ(reply.front(), '[');
    size_t bar = reply.find('|');
    if (bar == std::string::npos) {  // [cursor|[]] with empty batch
      cursor = reply.substr(1, reply.size() - 2);
      break;
    }
    cursor = reply.substr(1, bar - 1);
    std::string keys = reply.substr(bar + 2, reply.size() - bar - 4);
    size_t start = 0;
    while (start < keys.size()) {
      size_t next = keys.find('|', start);
      if (next == std::string::npos) next = keys.size();
      if (next > start) scanned.push_back(keys.substr(start, next - start));
      start = next + 1;
    }
  } while (cursor != "0");
  std::vector<std::string> expect_keys;
  for (const auto& [k, v] : shadow) expect_keys.push_back(k);
  EXPECT_EQ(scanned, expect_keys);
}

TEST_F(ServeTest, ScanMatchAndCount) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_EQ(c.Cmd({"MSET", "user:1", "a", "user:2", "b", "item:1", "c"}),
            "OK");
  ASSERT_TRUE(
      c.SendRaw(EncodeCommand({"SCAN", "0", "MATCH", "user:*", "COUNT",
                               "100"})));
  EXPECT_EQ(c.ReadReply(), "[0|[user:1|user:2]]");
  EXPECT_EQ(c.Cmd({"SCAN", "0", "BOGUS"}), "(error) ERR syntax error");
  EXPECT_EQ(c.Cmd({"SCAN", "zz"}), "(error) ERR invalid cursor");
}

TEST_F(ServeTest, TtlLifecycleOnLogicalClock) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));

  EXPECT_EQ(c.Cmd({"SET", "session", "alive", "EX", "10"}), "OK");
  EXPECT_EQ(c.Cmd({"SET", "forever", "rock"}), "OK");
  EXPECT_EQ(c.Cmd({"TTL", "session"}), "10");
  EXPECT_EQ(c.Cmd({"TTL", "forever"}), "-1");
  EXPECT_EQ(c.Cmd({"TTL", "missing"}), "-2");
  EXPECT_EQ(c.Cmd({"EXPIRE", "missing", "5"}), "0");
  EXPECT_EQ(c.Cmd({"EXPIRE", "forever", "notanint"}),
            "(error) ERR value is not an integer or out of range");

  // Refresh and persist.
  EXPECT_EQ(c.Cmd({"EXPIRE", "session", "100"}), "1");
  EXPECT_EQ(c.Cmd({"TTL", "session"}), "100");
  EXPECT_EQ(c.Cmd({"PERSIST", "session"}), "1");
  EXPECT_EQ(c.Cmd({"TTL", "session"}), "-1");
  EXPECT_EQ(c.Cmd({"PERSIST", "session"}), "0");  // already persistent
  EXPECT_EQ(c.Cmd({"EXPIRE", "session", "10"}), "1");

  // PX and sub-second granularity.
  EXPECT_EQ(c.Cmd({"SET", "fast", "x", "PX", "1500"}), "OK");
  EXPECT_EQ(c.Cmd({"TTL", "fast"}), "2");  // rounds up

  // Advance past every deadline: lazy filtering answers immediately.
  clock_.AdvanceMicros(200ull * 1000 * 1000);
  EXPECT_EQ(c.Cmd({"GET", "session"}), "(nil)");
  EXPECT_EQ(c.Cmd({"TTL", "session"}), "-2");
  EXPECT_EQ(c.Cmd({"EXISTS", "session"}), "0");
  EXPECT_EQ(c.Cmd({"GET", "fast"}), "(nil)");
  EXPECT_EQ(c.Cmd({"GET", "forever"}), "rock");
  EXPECT_GE(server_->net_stats().net_expired_lazy.load(), 3u);

  // No merge has run since the deadlines passed, so the expired entries are
  // still physically present in the engine — only the serving layer
  // filters them.
  std::string value;
  uint64_t dk = 0;
  EXPECT_TRUE(
      db_->GetWithDeleteKey(ReadOptions(), "session", &value, &dk).ok());

  // EXPIRE <= 0 deletes immediately.
  EXPECT_EQ(c.Cmd({"SET", "doomed", "x"}), "OK");
  EXPECT_EQ(c.Cmd({"EXPIRE", "doomed", "-1"}), "1");
  EXPECT_EQ(c.Cmd({"GET", "doomed"}), "(nil)");
}

TEST_F(ServeTest, MergesPhysicallyDeleteExpiredKeys) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_EQ(c.Cmd({"SET", "session", "alive", "EX", "10"}), "OK");
  ASSERT_EQ(c.Cmd({"SET", "fast", "x", "PX", "1500"}), "OK");
  ASSERT_EQ(c.Cmd({"SET", "forever", "rock"}), "OK");
  clock_.AdvanceMicros(200ull * 1000 * 1000);

  // The first merges past the deadlines remove the expired keys (observe
  // through the engine directly, bypassing the server's lazy filter).
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  uint64_t dk = 0;
  EXPECT_TRUE(db_->GetWithDeleteKey(ReadOptions(), "session", &value, &dk)
                  .IsNotFound());
  EXPECT_TRUE(
      db_->GetWithDeleteKey(ReadOptions(), "fast", &value, &dk).IsNotFound());
  EXPECT_EQ(server_->StatsSnapshot().net_keys_expired_active.load(), 2u);
  EXPECT_NE(c.Cmd({"INFO", "stats"}).find("expired_active:2"),
            std::string::npos);
  // The persistent key survives.
  EXPECT_TRUE(
      db_->GetWithDeleteKey(ReadOptions(), "forever", &value, &dk).ok());
  EXPECT_EQ(c.Cmd({"GET", "forever"}), "rock");
}

TEST_F(ServeTest, MaxConnectionsAdmissionControl) {
  ServerOptions so;
  so.max_connections = 2;
  StartServer(so);

  TestClient a, b;
  ASSERT_TRUE(a.Connect(server_->port()));
  ASSERT_TRUE(b.Connect(server_->port()));
  ASSERT_EQ(a.Cmd({"PING"}), "PONG");
  ASSERT_EQ(b.Cmd({"PING"}), "PONG");

  TestClient rejected;
  ASSERT_TRUE(rejected.Connect(server_->port()));
  EXPECT_EQ(rejected.ReadReply(),
            "(error) ERR max number of clients reached");
  EXPECT_TRUE(rejected.ReadUntilEof());

  // Closing one admitted client frees a slot.
  a.Close();
  bool admitted = false;
  for (int i = 0; i < 200 && !admitted; i++) {
    TestClient again;
    ASSERT_TRUE(again.Connect(server_->port()));
    admitted = (again.Cmd({"PING"}) == "PONG");
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(admitted);
  EXPECT_GE(server_->net_stats().net_connections_rejected.load(), 1u);
}

TEST_F(ServeTest, SlowClientIsDisconnected) {
  ServerOptions so;
  so.max_output_buffer_bytes = 256 * 1024;
  StartServer(so);

  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  std::string fat(64 * 1024, 'x');
  ASSERT_EQ(c.Cmd({"SET", "fat", fat}), "OK");

  // Demand far more reply bytes than the cap without reading any of them.
  std::string pipeline;
  for (int i = 0; i < 500; i++) pipeline += EncodeCommand({"GET", "fat"});
  ASSERT_TRUE(c.SendRaw(pipeline));
  EXPECT_TRUE(c.ReadUntilEof());  // server must cut us off, not OOM
  EXPECT_GE(server_->net_stats().net_slow_client_disconnects.load(), 1u);

  // The server is unharmed for other clients.
  TestClient ok;
  ASSERT_TRUE(ok.Connect(server_->port()));
  EXPECT_EQ(ok.Cmd({"PING"}), "PONG");
}

TEST_F(ServeTest, ProtocolErrorsCloseTheConnection) {
  StartServer();
  {
    TestClient c;
    ASSERT_TRUE(c.Connect(server_->port()));
    ASSERT_TRUE(c.SendRaw("PING\r\n"));  // inline commands unsupported
    std::string reply = c.ReadReply();
    EXPECT_EQ(reply.find("(error) ERR Protocol error"), 0u) << reply;
    EXPECT_TRUE(c.ReadUntilEof());
  }
  {
    // Commands before the garbage still execute and reply.
    TestClient c;
    ASSERT_TRUE(c.Connect(server_->port()));
    ASSERT_TRUE(c.SendRaw(EncodeCommand({"SET", "k", "v"}) + "*zz\r\n"));
    EXPECT_EQ(c.ReadReply(), "OK");
    std::string reply = c.ReadReply();
    EXPECT_EQ(reply.find("(error) ERR Protocol error"), 0u) << reply;
    EXPECT_TRUE(c.ReadUntilEof());
  }
  {
    // Oversized request.
    ServerOptions so;  // default server already caps bulks at 32 MB
    TestClient c;
    ASSERT_TRUE(c.Connect(server_->port()));
    ASSERT_TRUE(c.SendRaw("*2\r\n$3\r\nGET\r\n$999999999\r\n"));
    std::string reply = c.ReadReply();
    EXPECT_EQ(reply.find("(error) ERR Protocol error"), 0u) << reply;
    EXPECT_TRUE(c.ReadUntilEof());
    (void)so;
  }
  EXPECT_GE(server_->net_stats().net_protocol_errors.load(), 3u);

  // A fresh connection still works.
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  EXPECT_EQ(c.Cmd({"PING"}), "PONG");
}

TEST_F(ServeTest, InfoAndStats) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_EQ(c.Cmd({"SET", "k", "v"}), "OK");
  ASSERT_EQ(c.Cmd({"GET", "k"}), "v");

  std::string info = c.Cmd({"INFO"});
  EXPECT_NE(info.find("# Server"), std::string::npos);
  EXPECT_NE(info.find("engine:lethe"), std::string::npos);
  EXPECT_NE(info.find("# Clients"), std::string::npos);
  EXPECT_NE(info.find("connected_clients:1"), std::string::npos);
  EXPECT_NE(info.find("# Stats"), std::string::npos);
  EXPECT_NE(info.find("coalesced_batches:"), std::string::npos);
  EXPECT_NE(info.find("pipeline_depth_p50:"), std::string::npos);
  EXPECT_NE(info.find("# Engine"), std::string::npos);
  EXPECT_NE(info.find("group_commit_batches:"), std::string::npos);
  EXPECT_NE(info.find("# Keyspace"), std::string::npos);

  std::string engine_only = c.Cmd({"INFO", "engine"});
  EXPECT_NE(engine_only.find("group_commit_entries:"), std::string::npos);
  EXPECT_EQ(engine_only.find("# Clients"), std::string::npos);

  // The merged snapshot view combines net and engine counters.
  Statistics merged = server_->StatsSnapshot();
  EXPECT_GE(merged.net_commands.load(), 2u);
  EXPECT_GE(merged.group_commit_entries.load(), 1u);
}

// A WAL fault mid-pipeline must not scramble per-connection reply order:
// the withheld write acks become errors, while read replies interleaved
// among them (answered from the overlay/snapshot, never themselves at
// risk) are preserved verbatim — one reply per command, same order.
TEST_F(ServeTest, CommitFailureKeepsReplyOrder) {
  IoCountingEnv faulty(env_.get());
  options_.env = &faulty;
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  EXPECT_EQ(c.Cmd({"SET", "stable", "v0"}), "OK");
  EXPECT_EQ(c.Cmd({"GET", "stable"}), "v0");

  // Exactly one failed append: the turn batch's WAL write. A one-shot
  // window keeps the engine's background-error machinery a sideshow (the
  // recovery probe succeeds immediately) so the test pins reply rebuild,
  // not recovery timing.
  FaultPolicy policy;
  policy.kind = FaultPolicy::Kind::kIOError;
  policy.fail_appends = true;
  policy.fail_window_ops = 1;
  policy.path_substring = ".wal";
  faulty.InjectFaults(policy);

  // One burst = one event-loop turn: SET, interleaved GET and TTL, SET.
  // The turn batch hits the injected fault at commit. Each read leaves
  // exactly one reply, so the rebuild emits four and nothing after them.
  std::string burst;
  burst += EncodeCommand({"SET", "k1", "x"});
  burst += EncodeCommand({"GET", "stable"});
  burst += EncodeCommand({"TTL", "stable"});
  burst += EncodeCommand({"SET", "k2", "y"});
  ASSERT_TRUE(c.SendRaw(burst));
  std::string r1 = c.ReadReply();
  std::string r2 = c.ReadReply();
  std::string r3 = c.ReadReply();
  std::string r4 = c.ReadReply();
  EXPECT_TRUE(r1.find("(error) ERR write failed") == 0) << r1;
  EXPECT_EQ(r2, "v0");
  EXPECT_EQ(r3, "-1");
  EXPECT_TRUE(r4.find("(error) ERR write failed") == 0) << r4;
  EXPECT_EQ(c.Cmd({"PING"}), "PONG");
  faulty.ClearFaults();

  // The failed writes were never applied.
  EXPECT_EQ(c.Cmd({"GET", "k1"}), "(nil)");
  EXPECT_EQ(c.Cmd({"GET", "k2"}), "(nil)");

  // The engine recovers: retry until the background-error probe readmits
  // writes, then confirm the connection is still fully usable.
  std::string reply;
  for (int i = 0; i < 500; i++) {
    reply = c.Cmd({"SET", "k3", "z"});
    if (reply == "OK") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(reply, "OK");
  EXPECT_EQ(c.Cmd({"GET", "k3"}), "z");
  // The engine's background threads use `faulty`: stop them before it goes
  // out of scope, not in TearDown.
  server_.reset();
  db_.reset();
}

// An engine read error is an error reply from every point command, never
// a missing key, and a read-modify-write that cannot read stages nothing.
TEST_F(ServeTest, EngineReadErrorsAreNotMissingKeys) {
  IoCountingEnv faulty(env_.get());
  options_.env = &faulty;
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_EQ(c.Cmd({"SET", "k", "v", "EX", "100"}), "OK");
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForCompact().ok());

  FaultPolicy policy;
  policy.fail_appends = false;
  policy.fail_reads = true;
  policy.path_substring = ".sst";
  faulty.InjectFaults(policy);
  const std::vector<std::vector<std::string>> commands = {
      {"GET", "k"}, {"EXISTS", "k"}, {"TTL", "k"},
      {"EXPIRE", "k", "5"}, {"PERSIST", "k"}, {"DEL", "k"}};
  for (const auto& argv : commands) {
    const std::string reply = c.Cmd(argv);
    EXPECT_EQ(reply.rfind("(error) ERR ", 0), 0u) << argv[0] << ": " << reply;
  }
  const std::string mget = c.Cmd({"MGET", "k"});
  EXPECT_EQ(mget.rfind("[(error) ERR ", 0), 0u) << mget;
  faulty.ClearFaults();

  // DEL, EXPIRE and PERSIST left the key and its deadline alone.
  EXPECT_EQ(c.Cmd({"GET", "k"}), "v");
  EXPECT_EQ(c.Cmd({"TTL", "k"}), "100");
  EXPECT_EQ(server_->net_stats().net_batches_coalesced.load(), 1u);
  server_.reset();
  db_.reset();
}

TEST_F(ServeTest, GracefulShutdownDrainsAndReleases) {
  StartServer();
  auto c = std::make_unique<TestClient>();
  ASSERT_TRUE(c->Connect(server_->port()));
  ASSERT_EQ(c->Cmd({"SET", "k", "v"}), "OK");

  // A snapshot-pinning read right before shutdown (snapshots are released
  // at turn end, but this exercises the path).
  ASSERT_EQ(c->Cmd({"GET", "k"}), "v");

  server_->RequestStop();
  server_->Join();
  EXPECT_TRUE(c->ReadUntilEof());
  EXPECT_EQ(server_->connection_count(), 0);
  server_.reset();

  // The DB is fully usable after the server is gone: no leaked snapshots
  // pin compaction, the staged data is durable.
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(db_->Flush().ok());
  EXPECT_TRUE(db_->WaitForCompact().ok());
}

TEST_F(ServeTest, ShutdownCommandStopsTheServer) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_TRUE(c.SendRaw(EncodeCommand({"SHUTDOWN"})));
  server_->Join();  // returns because the command requested a stop
  EXPECT_TRUE(c.ReadUntilEof());
}

TEST_F(ServeTest, ServesShardedDB) {
  options_.num_shards = 4;
  ServerOptions so;
  so.num_workers = 2;
  StartServer(so);

  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  for (int i = 0; i < 100; i++) {
    ASSERT_EQ(c.Cmd({"SET", "key" + std::to_string(i),
                     "v" + std::to_string(i), "EX", "50"}),
              "OK");
  }
  for (int i = 0; i < 100; i++) {
    ASSERT_EQ(c.Cmd({"GET", "key" + std::to_string(i)}),
              "v" + std::to_string(i));
  }
  // MGET spans shards under one consistent cut.
  EXPECT_EQ(c.Cmd({"MGET", "key1", "key50", "key99", "nope"}),
            "[v1|v50|v99|(nil)]");
  EXPECT_EQ(c.Cmd({"DBSIZE"}), "100");

  // Every shard's merges expire its keys.
  clock_.AdvanceMicros(100ull * 1000 * 1000);
  EXPECT_EQ(c.Cmd({"GET", "key3"}), "(nil)");
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  uint64_t dk = 0;
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(db_->GetWithDeleteKey(ReadOptions(), "key" + std::to_string(i),
                                      &value, &dk)
                    .IsNotFound())
        << i;
  }

  // LETHE.PURGE: secondary range delete over the wire removes everything
  // with a delete key in range (here: the one live TTL'd entry).
  EXPECT_EQ(c.Cmd({"SET", "keep", "me"}), "OK");  // delete key 0: not purged
  EXPECT_EQ(c.Cmd({"SET", "later", "x", "EX", "1000"}), "OK");
  EXPECT_EQ(c.Cmd({"LETHE.PURGE", "1", "99999999999999999"}), "OK");
  EXPECT_EQ(c.Cmd({"GET", "later"}), "(nil)");
  EXPECT_EQ(c.Cmd({"GET", "keep"}), "me");
  EXPECT_EQ(c.Cmd({"LETHE.PURGE", "5", "2"}),
            "(error) ERR invalid delete-key range");
}

TEST_F(ServeTest, ConcurrentClientsAcrossWorkers) {
  ServerOptions so;
  so.num_workers = 3;
  StartServer(so);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 300;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      TestClient c;
      if (!c.Connect(server_->port())) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerThread; i++) {
        std::string key = "t" + std::to_string(t) + ":" + std::to_string(i);
        if (c.Cmd({"SET", key, key}) != "OK" || c.Cmd({"GET", key}) != key) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  EXPECT_EQ(c.Cmd({"DBSIZE"}), std::to_string(kThreads * kOpsPerThread));
}

}  // namespace
}  // namespace server
}  // namespace lethe
