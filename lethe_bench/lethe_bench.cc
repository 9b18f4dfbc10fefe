// lethe_bench: the end-to-end benchmark of the Lethe engine.
//
//   lethe_bench --workload=NAME [--seed=N] [--seconds=S] [--db-root=DIR]
//               [--trace-dir=DIR] [--scale=F] [--corrupt-model]
//
// One invocation runs one workload against the engine configured the way
// tools/lethe_server deploys it: background mode with two workers, a 64 MB
// memory budget and page cache, the WAL on without sync, a 1 MB write buffer,
// and PosixEnv (rooted under --db-root). Workloads override only what their
// reason needs (see kWorkloads). The load is a closed loop of two client
// threads (serve-pipelined: two TCP connections) that own disjoint key ranges
// and keep an exact shadow model: every read is checked against it, and a
// full scan is compared with it after the measured phase.
//
// The run sets the workload up kSetups times (a fresh database each time,
// timing each set-up), measures the last one, then checks it. The measured
// phase is a fixed number of operations, --seconds times the workload's
// calibrated rate (Workload::ops_per_s), so every run and every commit does
// the same work; on the calibration machine it lasts about --seconds.
// The last line of standard output is one JSON object (see ResultJson).
// Without --trace-dir it carries the end-to-end metrics. With --trace-dir the
// same run is traced instead: every Env call is timed per file kind and
// thread role, one client operation in 64 keeps its span (with its Env calls
// as child spans), and the line carries the per-layer metrics; the spans are
// written as Chrome trace-event JSON to DIR/<workload>.trace.json.
//
// Exit status: 0 when every operation and the final scan matched the model,
// 1 on any mismatch or engine error, 2 on bad flags.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/core/lethe.h"
#include "src/server/server.h"
#include "src/util/random.h"
#include "src/workload/zipfian.h"

namespace {

using lethe::Random;
using lethe::Slice;
using lethe::Status;

constexpr int kClients = 2;
constexpr int kSetups = 5;  // setup_s is the median of this many set-ups
constexpr size_t kKeyBytes = 16;    // "key" + client digit + 12-digit id
constexpr size_t kValueBytes = 100;
constexpr uint64_t kSpanSampling = 64;  // keep the spans of 1 op in 64
constexpr size_t kMaxSpans = 1 << 21;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// The result line, which run.py passes on and bench_compare.py reads back:
//
//   {"correct": true, "attempted": 1000, "failed": 0,
//    "metrics": {"ops_per_s": {"value": 81234.5, "unit": "1/s"}, ...}}
//
// Values keep every significant digit of the double: medians and spreads are
// taken over many runs, so rounding here would only add ties.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char value[64];
    // JSON has no NaN or infinity; a metric without a base reads as 0.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Inputs: keys and values, drawn from seeded lethe::Random generators.

// Keys sort by (prefix, client, id): each client owns one contiguous range.
void EncodeKey(const char* prefix, int client, uint64_t id, char* out) {
  memcpy(out, prefix, 3);
  out[3] = static_cast<char>('0' + client);
  for (int i = static_cast<int>(kKeyBytes) - 1; i >= 4; i--) {
    out[i] = static_cast<char>('0' + id % 10);
    id /= 10;
  }
}

bool DecodeKey(const Slice& key, const char* prefix, int* client,
               uint64_t* id) {
  if (key.size() != kKeyBytes || memcmp(key.data(), prefix, 3) != 0) {
    return false;
  }
  *client = key.data()[3] - '0';
  if (*client < 0 || *client >= kClients) return false;
  uint64_t v = 0;
  for (size_t i = 4; i < kKeyBytes; i++) {
    const char c = key.data()[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

// A value is a pure function of (client, id, version): a 12-byte header and
// a window of seeded noise, so the model stores only the version.
class Values {
 public:
  explicit Values(uint64_t seed) : noise_(1 << 16) {
    Random rng(seed ^ 0x5eedull);
    for (char& c : noise_) c = static_cast<char>(rng.Next());
  }
  void Make(int client, uint64_t id, uint32_t version, char* out) const {
    const uint64_t tag = id * kClients + static_cast<uint64_t>(client);
    memcpy(out, &tag, 8);
    memcpy(out + 8, &version, 4);
    const uint64_t span = noise_.size() - (kValueBytes - 12);
    const uint64_t offset = (tag * 0x9e3779b97f4a7c15ull + version) % span;
    memcpy(out + 12, noise_.data() + offset, kValueBytes - 12);
  }
  bool Matches(int client, uint64_t id, uint32_t version,
               const Slice& value) const {
    char expected[kValueBytes];
    Make(client, id, version, expected);
    return value.size() == kValueBytes &&
           memcmp(value.data(), expected, kValueBytes) == 0;
  }

 private:
  std::vector<char> noise_;
};

// One key of a client's shadow model. version 0 means absent; versions are
// never reused, so a resurfaced old value cannot pass as the current one.
struct Slot {
  uint32_t version = 0;
  uint64_t delete_key = 0;
};

// Expected state of a slot for a read that started after the secondary
// range delete up to `done` finished and ended before any delete beyond
// `pending` began: 1 present, 0 absent, -1 either (a covering secondary range
// delete was in flight). Without secondary range deletes done = pending = 0.
int Expected(const Slot& s, uint64_t done, uint64_t pending) {
  if (s.version == 0) return 0;
  if (s.delete_key >= pending) return 1;
  if (s.delete_key < done) return 0;
  return -1;
}

// ---------------------------------------------------------------------------
// Latency: a log-linear histogram over nanoseconds with 64 sub-buckets per
// octave (1.6% wide buckets), interpolated within a bucket on read-out.

class LatencyHist {
 public:
  LatencyHist() : counts_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    counts_[Index(ns)]++;
    count_++;
    max_ = std::max(max_, ns);
  }
  void Merge(const LatencyHist& o) {
    for (int i = 0; i < kBuckets; i++) counts_[i] += o.counts_[i];
    count_ += o.count_;
    max_ = std::max(max_, o.max_);
  }
  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }

  // Value at quantile q in [0, 1], in nanoseconds.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    const double rank = q * static_cast<double>(count_);
    double seen = 0;
    for (int i = 0; i < kBuckets; i++) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (seen + c >= rank) {
        const double lo = Lower(i), hi = Lower(i + 1);
        return lo + (hi - lo) * (rank - seen) / c;
      }
      seen += c;
    }
    return static_cast<double>(max_);
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = kSub * (64 - kSubBits + 1);

  static int Index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    return kSub + shift * kSub + static_cast<int>((v >> shift) - kSub);
  }
  static double Lower(int i) {
    if (i < kSub) return i;
    const int shift = (i - kSub) / kSub;
    return std::ldexp(kSub + (i - kSub) % kSub, shift);
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t max_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing. Thread roles: the bench's own threads are clients; RespServer
// threads identify themselves through the server's clock; every other
// thread that calls the Env is the engine's background pool.

enum Role { kClient, kServer, kBackground, kNumRoles };
enum IoOp { kRead, kAppend, kSync, kNumIoOps };
enum FileKind { kSst, kWal, kManifest, kOtherFile, kNumFileKinds };
enum OpKind { kGet, kPut, kDelete, kRangeDelete, kScan, kSrd, kBatch,
              kNumOpKinds };

const char* const kRoleNames[kNumRoles] = {"client", "server", "bg"};
const char* const kOpNames[kNumOpKinds] = {
    "get", "put", "delete", "range_delete", "scan", "srd", "batch"};
const char* const kIoSpanNames[kNumIoOps][kNumFileKinds] = {
    {"env.read.sst", "env.read.wal", "env.read.manifest", "env.read.other"},
    {"env.append.sst", "env.append.wal", "env.append.manifest",
     "env.append.other"},
    {"env.sync.sst", "env.sync.wal", "env.sync.manifest", "env.sync.other"}};

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t op_id;
  uint32_t tid;
  uint8_t role;
};

// The Env-side state of the client operation running on this thread.
struct OpCtx {
  uint64_t env_ns = 0;
  uint64_t sst_reads = 0;
  uint64_t id = 0;
  std::vector<Span>* sink = nullptr;  // non-null when the op is sampled
};

struct ThreadCtx {
  int role = -1;
  uint32_t tid = 0;
  OpCtx* op = nullptr;
  uint64_t env_calls = 0;
};
thread_local ThreadCtx t_ctx;

struct IoCell {
  std::atomic<uint64_t> calls{0}, bytes{0}, ns{0};
};

struct ThreadCpu {
  clockid_t clock;
  int role;
  uint64_t base_ns;
};

uint64_t CpuNs(clockid_t clock) {
  timespec ts;
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct Tracer {
  bool on = false;
  uint64_t epoch_ns = 0;
  std::atomic<uint32_t> next_tid{1};
  IoCell io[kNumIoOps][kNumFileKinds][kNumRoles];
  // Bytes written per file kind; counted in untraced runs too (write_amp).
  std::atomic<uint64_t> written[kNumFileKinds] = {};
  // Background Env time spent while a secondary range delete is running.
  std::atomic<bool> srd_running{false};
  std::atomic<uint64_t> srd_bg_env_ns{0};

  std::mutex mu;
  std::vector<Span> spans;       // guarded by mu
  std::vector<ThreadCpu> cpu;    // guarded by mu

  void Adopt(int role, bool count_cpu) {
    t_ctx.role = role;
    t_ctx.tid = next_tid.fetch_add(1);
    clockid_t clock;
    if (count_cpu && on && pthread_getcpuclockid(pthread_self(), &clock) == 0) {
      std::lock_guard<std::mutex> l(mu);
      cpu.push_back({clock, role, CpuNs(clock)});
    }
  }
  // Thread clocks die with their threads and the ids get reused.
  void ForgetThreads() {
    std::lock_guard<std::mutex> l(mu);
    cpu.clear();
  }
  void RebaseCpu() {
    std::lock_guard<std::mutex> l(mu);
    for (ThreadCpu& t : cpu) t.base_ns = CpuNs(t.clock);
  }
  double CpuSeconds(int role) {
    std::lock_guard<std::mutex> l(mu);
    uint64_t ns = 0;
    for (const ThreadCpu& t : cpu) {
      const uint64_t now = CpuNs(t.clock);
      if (t.role == role && now > t.base_ns) ns += now - t.base_ns;
    }
    return static_cast<double>(ns) / 1e9;
  }
  void AddSpans(const std::vector<Span>& s) {
    std::lock_guard<std::mutex> l(mu);
    const size_t room = kMaxSpans - std::min(kMaxSpans, spans.size());
    spans.insert(spans.end(), s.begin(), s.begin() + std::min(room, s.size()));
  }

  // Times one Env call made by this thread and files it under its kind and
  // role, and under the client op in progress, if any.
  template <typename F>
  Status Timed(IoOp op, FileKind kind, F&& call) {
    if (t_ctx.role < 0) Adopt(kBackground, true);
    const uint64_t t0 = NowNs();
    uint64_t bytes = 0;
    Status s = call(&bytes);
    const uint64_t t1 = NowNs(), dt = t1 - t0;
    IoCell& cell = io[op][kind][t_ctx.role];
    cell.calls.fetch_add(1, std::memory_order_relaxed);
    cell.bytes.fetch_add(bytes, std::memory_order_relaxed);
    cell.ns.fetch_add(dt, std::memory_order_relaxed);
    const Span span{kIoSpanNames[op][kind], t0 - epoch_ns, dt, 0, t_ctx.tid,
                    static_cast<uint8_t>(t_ctx.role)};
    if (OpCtx* ctx = t_ctx.op; ctx != nullptr) {
      ctx->env_ns += dt;
      if (op == kRead && kind == kSst) ctx->sst_reads++;
      if (ctx->sink != nullptr) {
        ctx->sink->push_back(span);
        ctx->sink->back().op_id = ctx->id;
      }
    } else {
      if (t_ctx.role == kBackground &&
          srd_running.load(std::memory_order_relaxed)) {
        srd_bg_env_ns.fetch_add(dt, std::memory_order_relaxed);
      }
      if (++t_ctx.env_calls % kSpanSampling == 0) AddSpans({span});
    }
    return s;
  }
};
Tracer g_tracer;

FileKind KindOf(const std::string& fname) {
  auto ends_with = [&](const char* suffix) {
    const size_t n = strlen(suffix);
    return fname.size() >= n && fname.compare(fname.size() - n, n, suffix) == 0;
  };
  if (ends_with(".sst")) return kSst;
  if (ends_with(".wal")) return kWal;
  if (fname.find("MANIFEST") != std::string::npos) return kManifest;
  return kOtherFile;
}

class BenchWritableFile final : public lethe::WritableFile {
 public:
  BenchWritableFile(std::unique_ptr<lethe::WritableFile> base, FileKind kind)
      : base_(std::move(base)), kind_(kind) {}
  Status Append(const Slice& data) override {
    g_tracer.written[kind_].fetch_add(data.size(), std::memory_order_relaxed);
    if (!g_tracer.on) return base_->Append(data);
    return g_tracer.Timed(kAppend, kind_, [&](uint64_t* bytes) {
      *bytes = data.size();
      return base_->Append(data);
    });
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    if (!g_tracer.on) return base_->Sync();
    return g_tracer.Timed(kSync, kind_,
                          [&](uint64_t*) { return base_->Sync(); });
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<lethe::WritableFile> base_;
  FileKind kind_;
};

// KiWi's in-place page rewrites; their bytes count as appends.
class BenchRandomWriteFile final : public lethe::RandomWriteFile {
 public:
  BenchRandomWriteFile(std::unique_ptr<lethe::RandomWriteFile> base,
                       FileKind kind)
      : base_(std::move(base)), kind_(kind) {}
  Status WriteAt(uint64_t offset, const Slice& data) override {
    g_tracer.written[kind_].fetch_add(data.size(), std::memory_order_relaxed);
    if (!g_tracer.on) return base_->WriteAt(offset, data);
    return g_tracer.Timed(kAppend, kind_, [&](uint64_t* bytes) {
      *bytes = data.size();
      return base_->WriteAt(offset, data);
    });
  }
  Status Sync() override {
    if (!g_tracer.on) return base_->Sync();
    return g_tracer.Timed(kSync, kind_,
                          [&](uint64_t*) { return base_->Sync(); });
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<lethe::RandomWriteFile> base_;
  FileKind kind_;
};

class TracedRandomAccessFile final : public lethe::RandomAccessFile {
 public:
  TracedRandomAccessFile(std::unique_ptr<lethe::RandomAccessFile> base,
                         FileKind kind)
      : base_(std::move(base)), kind_(kind) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    return g_tracer.Timed(kRead, kind_, [&](uint64_t* bytes) {
      Status s = base_->Read(offset, n, result, scratch);
      *bytes = result->size();
      return s;
    });
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<lethe::RandomAccessFile> base_;
  FileKind kind_;
};

// PosixEnv with byte counting on every write path; with tracing on, every
// table read, append and sync is also timed. (Sequential reads only replay
// the WAL and manifest at Open, so they pass through.)
class BenchEnv final : public lethe::Env {
 public:
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<lethe::WritableFile>* r) override {
    std::unique_ptr<lethe::WritableFile> file;
    Status s = base_->NewWritableFile(f, &file);
    if (s.ok()) {
      *r = std::make_unique<BenchWritableFile>(std::move(file), KindOf(f));
    }
    return s;
  }
  Status NewRandomWriteFile(
      const std::string& f,
      std::unique_ptr<lethe::RandomWriteFile>* r) override {
    std::unique_ptr<lethe::RandomWriteFile> file;
    Status s = base_->NewRandomWriteFile(f, &file);
    if (s.ok()) {
      *r = std::make_unique<BenchRandomWriteFile>(std::move(file), KindOf(f));
    }
    return s;
  }
  Status NewRandomAccessFile(
      const std::string& f,
      std::unique_ptr<lethe::RandomAccessFile>* r) override {
    if (!g_tracer.on) return base_->NewRandomAccessFile(f, r);
    std::unique_ptr<lethe::RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(f, &file);
    if (s.ok()) {
      *r = std::make_unique<TracedRandomAccessFile>(std::move(file), KindOf(f));
    }
    return s;
  }
  Status NewSequentialFile(
      const std::string& f,
      std::unique_ptr<lethe::SequentialFile>* r) override {
    return base_->NewSequentialFile(f, r);
  }
  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  Status GetFileSize(const std::string& f, uint64_t* size) override {
    return base_->GetFileSize(f, size);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  Status CreateDirIfMissing(const std::string& d) override {
    return base_->CreateDirIfMissing(d);
  }
  Status GetChildren(const std::string& d,
                     std::vector<std::string>* r) override {
    return base_->GetChildren(d, r);
  }

 private:
  lethe::Env* const base_ = lethe::Env::Default();
};

// The server's clock in traced runs: the system clock (the domain the DB's
// default clock uses), tagging each thread that reads it as a server thread.
class ServerThreadClock final : public lethe::Clock {
 public:
  uint64_t NowMicros() const override {
    if (t_ctx.role < 0) g_tracer.Adopt(kServer, true);
    return lethe::SystemClock::Default()->NowMicros();
  }
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kYcsbDeletes, kReadCached, kRetentionKiwi, kServePipelined };

struct Workload {
  const char* name;
  Kind kind;
  uint64_t prefill;  // keys loaded at set-up, over both clients
  // Client ops (serve-pipelined: commands) per second on the calibration
  // machine; a run does --seconds times this many.
  double ops_per_s;
};

// Sizes keep set-up short enough to repeat five times per run and the
// working sets small: larger ones made every timing swing with the host's
// shared-cache load. ycsb-deletes' data pages hold ~4.4x its cache;
// read-cached's and serve-pipelined's fit in theirs; retention-kiwi's tree
// has two levels, so FADE has tombstones to age.
const Workload kWorkloads[] = {
    {"ycsb-deletes", Kind::kYcsbDeletes, 250000, 55000},
    {"read-cached", Kind::kReadCached, 40000, 750000},
    {"retention-kiwi", Kind::kRetentionKiwi, 100000, 18000},
    {"serve-pipelined", Kind::kServePipelined, 10000, 120000},
};

struct Config {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 20;
  double scale = 1;
  std::string db_root = ".lethe_bench_db";
  std::string trace_dir;  // empty: untraced
  bool corrupt_model = false;
};

// retention-kiwi: each client's id space, the retention window (in logical
// clock ticks; the clock advances one tick per op), FADE's D_th, and how
// often client 0 purges the window's tail with a secondary range delete.
// D_th at twice the window leaves pages time to age out whole between
// FADE's rewrites; at D_th = window KiWi almost never drops a full page.
constexpr uint64_t kRetentionIdsPerClient = 500000;
constexpr uint64_t kRetentionWindowTicks = 200000;
constexpr uint64_t kRetentionDthTicks = 400000;
constexpr uint64_t kRetentionSrdEveryOps = 1000;
// ycsb-deletes: FADE's D_th in ticks (one per op and per prefilled key), so
// set-up plus one run span about six FADE periods.
constexpr uint64_t kYcsbDthTicks = 250000;
constexpr int kServeDepth = 16;

struct Scaled {
  uint64_t prefill, ids_per_client, window, dth, srd_every;
  uint64_t ops_per_client;  // serve-pipelined: batches per connection
  // read-cached's Puts go to update ids [first_update_id, +update_ids);
  // every other workload reads and writes all of its ids.
  uint64_t first_update_id, update_ids;
};

Scaled ScaleOf(const Config& cfg) {
  auto s = [&](uint64_t v) {
    return std::max<uint64_t>(64, static_cast<uint64_t>(v * cfg.scale));
  };
  const Kind kind = cfg.workload->kind;
  const uint64_t prefill = s(cfg.workload->prefill);
  const double ops = cfg.seconds * cfg.workload->ops_per_s / kClients /
                     (kind == Kind::kServePipelined ? kServeDepth : 1);
  const bool updates = kind == Kind::kReadCached;
  return {prefill, s(kRetentionIdsPerClient), s(kRetentionWindowTicks),
          s(kind == Kind::kYcsbDeletes ? kYcsbDthTicks : kRetentionDthTicks),
          kRetentionSrdEveryOps,
          std::max<uint64_t>(1, static_cast<uint64_t>(ops)),
          updates ? prefill / kClients : UINT64_MAX,
          updates ? prefill / kClients / 8 : 0};
}

// read-cached stores its update ids under a prefix that sorts after every
// read key. A flush rewrites only the files its key span overlaps, so the
// files Gets read are never rewritten and their pages stay cached.
const char* PrefixOf(uint64_t id, const Scaled& size) {
  return id < size.first_update_id ? "key" : "upd";
}

struct OpTotals {
  uint64_t n = 0, ns = 0, env_ns = 0, sst_reads = 0;
};

struct ClientStats {
  LatencyHist hist[kNumOpKinds];
  OpTotals totals[kNumOpKinds];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;
  double cpu_s = 0;
  double max_tombstone_age = 0;  // ticks, sampled by client 0 (traced)
  std::string first_failure;
  std::vector<Span> spans;

  void Fail(const std::string& what) {
    if (failed++ == 0) first_failure = what;
  }
};

// State every client of one run shares.
struct Shared {
  const Config* cfg = nullptr;
  Scaled size{};
  const Values* values = nullptr;
  lethe::DB* db = nullptr;
  lethe::LogicalClock* clock = nullptr;  // null: FADE off, delete key 0
  uint16_t port = 0;
  // Secondary range deletes published by client 0: every entry with a delete
  // key below srd_done is gone; none at or above srd_pending is touched.
  std::atomic<uint64_t> srd_pending{0};
  std::atomic<uint64_t> srd_done{0};
};

// Runs `call` as one timed client op of `kind`, feeding the Env tracer.
template <typename F>
void TimedOp(ClientStats* st, OpKind kind, uint64_t op_no, F&& call) {
  OpCtx ctx;
  const bool tracing = g_tracer.on;
  if (tracing) {
    ctx.id = (static_cast<uint64_t>(t_ctx.tid) << 40) | op_no;
    if (op_no % kSpanSampling == 0) ctx.sink = &st->spans;
    t_ctx.op = &ctx;
  }
  const uint64_t t0 = NowNs();
  call();
  const uint64_t t1 = NowNs();
  t_ctx.op = nullptr;
  st->hist[kind].Add(t1 - t0);
  OpTotals& tot = st->totals[kind];
  tot.n++;
  tot.ns += t1 - t0;
  tot.env_ns += ctx.env_ns;
  tot.sst_reads += ctx.sst_reads;
  if (ctx.sink != nullptr) {
    st->spans.push_back({kOpNames[kind], t0 - g_tracer.epoch_ns, t1 - t0,
                         ctx.id, t_ctx.tid, kClient});
  }
}

double ThreadCpuSeconds() {
  return static_cast<double>(CpuNs(CLOCK_THREAD_CPUTIME_ID)) / 1e9;
}

// One closed-loop client thread: it owns one key range and its model.
class Client {
 public:
  Client(Shared* sh, int client, std::vector<Slot>* model,
         uint32_t* next_version)
      : sh_(sh), client_(client), model_(*model), next_version_(*next_version),
        rng_(sh->cfg->seed * 1000003 + 7919 * static_cast<uint64_t>(client) +
             static_cast<uint64_t>(sh->cfg->workload->kind)) {}
  virtual ~Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Issues Scaled::ops_per_client ops.
  virtual void Run() = 0;

  ClientStats st;

 protected:
  Shared* const sh_;
  const int client_;
  std::vector<Slot>& model_;
  uint32_t& next_version_;
  Random rng_;
};

// A client of the three workloads that call the DB directly.
class DirectClient final : public Client {
 public:
  DirectClient(Shared* sh, int client, std::vector<Slot>* model,
               uint32_t* next_version)
      : Client(sh, client, model, next_version) {
    if (sh->cfg->workload->kind == Kind::kReadCached) {
      const uint64_t n = sh->size.first_update_id;
      zipf_ = std::make_unique<lethe::ZipfianGenerator>(n, 0.99, rng_.Next());
      while (std::gcd(scatter_, n) != 1) scatter_ += 2;
    }
  }

  void Run() override {
    g_tracer.Adopt(kClient, false);
    const Kind kind = sh_->cfg->workload->kind;
    const double cpu0 = ThreadCpuSeconds();
    for (uint64_t n = 0; n < sh_->size.ops_per_client; n++) {
      if (sh_->clock != nullptr) sh_->clock->AdvanceMicros(1);
      const uint64_t r = rng_.Uniform(100);
      switch (kind) {
        case Kind::kYcsbDeletes: {
          // 50% Get, 20% update, 20% fresh insert, 10% Delete; uniform.
          const uint64_t id = rng_.Uniform(model_.size());
          if (r < 50) {
            Get(n, id);
          } else if (r < 70) {
            Put(n, id);
          } else if (r < 90) {
            model_.emplace_back();
            Put(n, model_.size() - 1);
          } else {
            Delete(n, id);
          }
          break;
        }
        case Kind::kReadCached:
          // 95% Get, zipfian over the read ids; 5% Put, uniform over the
          // update ids.
          if (r < 95) {
            Get(n, HotId());
          } else {
            Put(n, sh_->size.first_update_id +
                       rng_.Uniform(sh_->size.update_ids));
          }
          break;
        case Kind::kRetentionKiwi:
          RetentionOp(n, r);
          break;
        case Kind::kServePipelined:
          break;
      }
      // FADE's promise, sampled every ~50k ops of both clients.
      if (g_tracer.on && client_ == 0 && sh_->clock != nullptr &&
          n % 25000 == 0) {
        for (const lethe::TombstoneAgeSample& t : sh_->db->GetTombstoneAges()) {
          st.max_tombstone_age =
              std::max(st.max_tombstone_age, static_cast<double>(t.age_micros));
        }
      }
    }
    st.cpu_s = ThreadCpuSeconds() - cpu0;
  }

 private:
  void Key(uint64_t id) {
    EncodeKey(PrefixOf(id, sh_->size), client_, id, key_);
  }

  // A zipfian rank mapped to a read id by a multiplicative bijection, so
  // the hot keys do not share pages.
  uint64_t HotId() {
    return static_cast<uint64_t>(
        static_cast<unsigned __int128>(zipf_->Next()) * scatter_ %
        sh_->size.first_update_id);
  }
  Slice KeySlice() const { return Slice(key_, kKeyBytes); }

  void Get(uint64_t n, uint64_t id) {
    Key(id);
    const uint64_t done = sh_->srd_done.load(std::memory_order_acquire);
    Status s;
    TimedOp(&st, kGet, n,
            [&] { s = sh_->db->Get(read_options_, KeySlice(), &value_); });
    const uint64_t pending = sh_->srd_pending.load(std::memory_order_acquire);
    st.attempted++;
    const int e = Expected(model_[id], done, pending);
    if (s.ok()) {
      if (e == 0) {
        st.Fail("get " + std::to_string(id) + ": deleted key found");
      } else if (!sh_->values->Matches(client_, id, model_[id].version,
                                       value_)) {
        st.Fail("get " + std::to_string(id) + ": wrong value");
      }
    } else if (s.IsNotFound()) {
      if (e == 1) st.Fail("get " + std::to_string(id) + ": live key missing");
    } else {
      st.Fail("get: " + s.ToString());
    }
  }

  void Put(uint64_t n, uint64_t id) {
    Key(id);
    Slot& slot = model_[id];
    const uint32_t version = next_version_++;
    const uint64_t dk = sh_->clock != nullptr ? sh_->clock->NowMicros() : 0;
    char value[kValueBytes];
    sh_->values->Make(client_, id, version, value);
    Status s;
    TimedOp(&st, kPut, n, [&] {
      s = sh_->db->Put(write_options_, KeySlice(), dk,
                       Slice(value, kValueBytes));
    });
    st.attempted++;
    st.user_bytes += kKeyBytes + kValueBytes;
    if (!s.ok()) {
      st.Fail("put: " + s.ToString());
      return;
    }
    slot.version = version;
    slot.delete_key = dk;
  }

  void Delete(uint64_t n, uint64_t id) {
    Key(id);
    Status s;
    TimedOp(&st, kDelete, n,
            [&] { s = sh_->db->Delete(write_options_, KeySlice()); });
    st.attempted++;
    st.user_bytes += kKeyBytes;
    if (!s.ok()) {
      st.Fail("delete: " + s.ToString());
      return;
    }
    model_[id].version = 0;
  }

  // retention-kiwi: 50% fresh Put (delete key = now, at a random sort key),
  // 20% Get on a recent key, 20% scan, 8% Delete of a recent key, 2%
  // RangeDelete over 64 ids; client 0 also purges the window's tail.
  void RetentionOp(uint64_t n, uint64_t r) {
    if (r < 50) {
      const uint64_t id = rng_.Uniform(model_.size());
      recent_[recent_n_++ % recent_.size()] = id;
      Put(n, id);
    } else if (r < 70) {
      Get(n, Recent());
    } else if (r < 90) {
      Scan(n, rng_.Uniform(model_.size()));
    } else if (r < 98) {
      Delete(n, Recent());
    } else {
      RangeDelete(n, rng_.Uniform(model_.size()));
    }
    if (client_ == 0 && n > 0 && n % sh_->size.srd_every == 0) {
      const uint64_t now = sh_->clock->NowMicros();
      if (now > cutoff_ + sh_->size.window) Srd(n, now - sh_->size.window);
    }
  }

  uint64_t Recent() {
    if (recent_n_ == 0) return rng_.Uniform(model_.size());
    return recent_[rng_.Uniform(std::min<uint64_t>(recent_n_, recent_.size()))];
  }

  void RangeDelete(uint64_t n, uint64_t id) {
    const uint64_t end = std::min<uint64_t>(id + 64, model_.size());
    char end_key[kKeyBytes];
    Key(id);
    EncodeKey("key", client_, end, end_key);
    Status s;
    TimedOp(&st, kRangeDelete, n, [&] {
      s = sh_->db->RangeDelete(write_options_, KeySlice(),
                               Slice(end_key, kKeyBytes));
    });
    st.attempted++;
    st.user_bytes += 2 * kKeyBytes;
    if (!s.ok()) {
      st.Fail("range delete: " + s.ToString());
      return;
    }
    for (uint64_t i = id; i < end; i++) model_[i].version = 0;
  }

  // Seek plus 16 Next within this client's range, checked against the model:
  // every key returned must be live with its current value, and no key the
  // model holds live may be skipped.
  void Scan(uint64_t n, uint64_t id) {
    Key(id);
    const uint64_t done = sh_->srd_done.load(std::memory_order_acquire);
    std::vector<std::pair<uint64_t, std::string>> got;
    Status s;
    TimedOp(&st, kScan, n, [&] {
      std::unique_ptr<lethe::Iterator> it = sh_->db->NewIterator(read_options_);
      it->Seek(KeySlice());
      for (int i = 0; i <= 16 && it->Valid(); i++, it->Next()) {
        int c;
        uint64_t got_id;
        if (!DecodeKey(it->key(), "key", &c, &got_id) || c != client_) break;
        got.emplace_back(got_id, it->value().ToString());
      }
      s = it->status();
    });
    const uint64_t pending = sh_->srd_pending.load(std::memory_order_acquire);
    st.attempted++;
    if (!s.ok()) {
      st.Fail("scan: " + s.ToString());
      return;
    }
    uint64_t cursor = id;
    for (const auto& [got_id, value] : got) {
      for (; cursor < got_id; cursor++) {
        if (Expected(model_[cursor], done, pending) == 1) {
          st.Fail("scan skipped live key " + std::to_string(cursor));
          return;
        }
      }
      if (got_id >= model_.size() ||
          Expected(model_[got_id], done, pending) == 0 ||
          !sh_->values->Matches(client_, got_id, model_[got_id].version,
                                value)) {
        st.Fail("scan returned stale key " + std::to_string(got_id));
        return;
      }
      cursor = got_id + 1;
    }
    if (got.size() < 17) {  // the range ended: nothing live may follow
      for (; cursor < model_.size(); cursor++) {
        if (Expected(model_[cursor], done, pending) == 1) {
          st.Fail("scan ended before live key " + std::to_string(cursor));
          return;
        }
      }
    }
  }

  // Purges every entry older than the retention window, [0, hi). Entries
  // below the previous cutoff are gone already, but restating the whole
  // range lets KiWi drop, unread, every page whose delete keys all aged out.
  void Srd(uint64_t n, uint64_t hi) {
    sh_->srd_pending.store(hi, std::memory_order_release);
    g_tracer.srd_running.store(true, std::memory_order_relaxed);
    Status s;
    TimedOp(&st, kSrd, n, [&] {
      s = sh_->db->SecondaryRangeDelete(write_options_, 0, hi);
    });
    g_tracer.srd_running.store(false, std::memory_order_relaxed);
    sh_->srd_done.store(hi, std::memory_order_release);
    st.attempted++;
    if (!s.ok()) st.Fail("secondary range delete: " + s.ToString());
    cutoff_ = hi;
  }

  std::unique_ptr<lethe::ZipfianGenerator> zipf_;  // read-cached only
  uint64_t scatter_ = 2654435761ull;
  lethe::ReadOptions read_options_;
  lethe::WriteOptions write_options_;
  std::string value_;
  char key_[kKeyBytes];
  std::vector<uint64_t> recent_ = std::vector<uint64_t>(4096);
  uint64_t recent_n_ = 0;
  uint64_t cutoff_ = 0;
};

// ---------------------------------------------------------------------------
// serve-pipelined: RESP over loopback TCP.

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

void AppendBulk(std::string* out, const char* data, size_t n) {
  *out += "$" + std::to_string(n) + "\r\n";
  out->append(data, n);
  *out += "\r\n";
}

// One parsed reply element: a bulk/simple/error string as (offset, length)
// in the receive buffer, nil, or an array header carrying its length.
struct Elem {
  char type;
  size_t off, len;
};

// Parses one complete reply at buf[*pos], appending its elements. Returns
// 1 on success, 0 if more bytes are needed, -1 on malformed input.
int ParseReply(const std::string& buf, size_t* pos, std::vector<Elem>* out) {
  const size_t start = *pos, mark = out->size();
  auto fail = [&](int r) {
    *pos = start;
    out->resize(mark);
    return r;
  };
  const size_t eol = buf.find("\r\n", *pos);
  if (eol == std::string::npos) return fail(0);
  const char type = buf[*pos];
  const size_t body = *pos + 1;
  *pos = eol + 2;
  switch (type) {
    case '+':
    case '-':
    case ':':
      out->push_back({type, body, eol - body});
      return 1;
    case '$': {
      const long long len = atoll(buf.c_str() + body);
      if (len < 0) {
        out->push_back({'_', 0, 0});
        return 1;
      }
      if (buf.size() < *pos + static_cast<size_t>(len) + 2) return fail(0);
      out->push_back({'$', *pos, static_cast<size_t>(len)});
      *pos += static_cast<size_t>(len) + 2;
      return 1;
    }
    case '*': {
      const long long n = atoll(buf.c_str() + body);
      out->push_back({'*', 0, static_cast<size_t>(std::max(0LL, n))});
      for (long long i = 0; i < n; i++) {
        const int r = ParseReply(buf, pos, out);
        if (r != 1) return fail(r);
      }
      return 1;
    }
    default:
      return fail(-1);
  }
}

class ServeClient final : public Client {
 public:
  using Client::Client;

  void Run() override {
    g_tracer.Adopt(kClient, false);
    const int fd = Connect();
    if (fd < 0) {
      st.Fail("connect failed");
      return;
    }
    const double cpu0 = ThreadCpuSeconds();
    std::string request;
    for (uint64_t n = 0; n < sh_->size.ops_per_client; n++) {
      request.clear();
      expect_.clear();
      for (int i = 0; i < kServeDepth; i++) AddCommand(&request);
      bool ok = true;
      uint64_t sent_ns = 0;
      TimedOp(&st, kBatch, n, [&] {
        sent_ns = NowNs();
        ok = SendAll(fd, request) && ReadReplies(fd);
      });
      st.attempted += kServeDepth;
      if (!ok) {
        st.Fail("connection lost");
        break;
      }
      // A pipelined command's latency is the wait from the batch's send to
      // the arrival of its own reply.
      for (const Expect& e : expect_) {
        if (e.cmd != 'M') {
          st.hist[e.cmd == 'G' ? kGet : kPut].Add(e.reply_ns - sent_ns);
        }
      }
      Check();
    }
    st.cpu_s = ThreadCpuSeconds() - cpu0;
    ::close(fd);
  }

 private:
  // 70% GET, 10% MGET of 8 keys, 20% SET; a quarter of the SETs carry EX 1
  // on keys that are never read, which the server's active expiry reaps.
  struct Expect {
    char cmd;  // 'G' GET, 'M' MGET, 'S' SET
    int n = 0;
    uint64_t reply_ns = 0;
    uint64_t ids[8];
    uint32_t versions[8];
  };

  void AddCommand(std::string* out) {
    const uint64_t r = rng_.Uniform(100);
    char key[kKeyBytes];
    Expect e;
    if (r < 80) {
      e.cmd = r < 70 ? 'G' : 'M';
      e.n = r < 70 ? 1 : 8;
      *out += e.n == 1 ? "*2\r\n$3\r\nGET\r\n" : "*9\r\n$4\r\nMGET\r\n";
      for (int i = 0; i < e.n; i++) {
        e.ids[i] = rng_.Uniform(model_.size());
        e.versions[i] = model_[e.ids[i]].version;
        EncodeKey("key", client_, e.ids[i], key);
        AppendBulk(out, key, kKeyBytes);
      }
    } else {
      e.cmd = 'S';
      char value[kValueBytes];
      const bool expiring = r >= 95;
      if (expiring) {
        const uint64_t id = next_expiring_++;
        EncodeKey("exp", client_, id, key);
        sh_->values->Make(client_, id, 0, value);
      } else {
        const uint64_t id = rng_.Uniform(model_.size());
        model_[id].version = next_version_++;
        EncodeKey("key", client_, id, key);
        sh_->values->Make(client_, id, model_[id].version, value);
      }
      *out += expiring ? "*5\r\n$3\r\nSET\r\n" : "*3\r\n$3\r\nSET\r\n";
      AppendBulk(out, key, kKeyBytes);
      AppendBulk(out, value, kValueBytes);
      if (expiring) *out += "$2\r\nEX\r\n$1\r\n1\r\n";
      st.user_bytes += kKeyBytes + kValueBytes;
    }
    expect_.push_back(e);
  }

  bool ReadReplies(int fd) {
    buf_.clear();
    elems_.clear();
    size_t pos = 0;
    int replies = 0;
    char chunk[64 * 1024];
    while (replies < kServeDepth) {
      const int r = ParseReply(buf_, &pos, &elems_);
      if (r == 1) {
        expect_[replies++].reply_ns = NowNs();
        continue;
      }
      if (r < 0) return false;
      const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(got));
    }
    return true;
  }

  void Check() {
    size_t k = 0;
    auto bulk_matches = [&](uint64_t id, uint32_t version) {
      const Elem& el = elems_[k++];
      return el.type == '$' &&
             sh_->values->Matches(client_, id, version,
                                  Slice(buf_.data() + el.off, el.len));
    };
    for (const Expect& e : expect_) {
      bool ok;
      if (e.cmd == 'S') {
        const Elem& el = elems_[k++];
        ok = el.type == '+' && buf_.compare(el.off, el.len, "OK") == 0;
      } else if (e.cmd == 'G') {
        ok = bulk_matches(e.ids[0], e.versions[0]);
      } else {
        ok = elems_[k].type == '*' && elems_[k].len == 8;
        k++;
        for (int i = 0; ok && i < 8; i++) {
          ok = bulk_matches(e.ids[i], e.versions[i]);
        }
        if (!ok) return st.Fail("MGET reply does not match the model");
      }
      if (!ok) {
        return st.Fail(std::string("reply to ") + e.cmd + " does not match");
      }
    }
  }

  int Connect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(sh_->port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  uint64_t next_expiring_ = 0;
  std::vector<Expect> expect_;
  std::string buf_;
  std::vector<Elem> elems_;
};

// ---------------------------------------------------------------------------
// One database instance: set-up, the measured phase, and the checks.

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

class Instance {
 public:
  Instance(const Config& cfg, const Values& values, lethe::Env* env, int index)
      : cfg_(cfg), size_(ScaleOf(cfg)), values_(values),
        dir_(cfg.db_root + "/" + cfg.workload->name + "-" +
             std::to_string(getpid()) + "-" + std::to_string(index)) {
    options_.env = env;
    options_.inline_compactions = false;
    options_.background_threads = 2;
    options_.memory_budget_bytes = 64ull << 20;
    options_.page_cache_bytes = 64ull << 20;
    // The direct-API workloads store 32 entries per page rather than the
    // shipped 4, so a 4 KB page is filled (the default pads it ~7x);
    // serve-pipelined keeps lethe_server's configuration untouched.
    switch (cfg.workload->kind) {
      case Kind::kYcsbDeletes:
        // An 8 MB budget, so 250k keys hold 4.4x the cache (as 2M keys
        // would under the shipped 64 MB) with a half-second set-up.
        options_.memory_budget_bytes = options_.page_cache_bytes = 8ull << 20;
        options_.table.entries_per_page = 32;
        options_.clock = &clock_;
        options_.delete_persistence_threshold_micros = size_.dth;
        break;
      case Kind::kReadCached:
        options_.table.entries_per_page = 32;
        break;
      case Kind::kRetentionKiwi:
        options_.table.entries_per_page = 32;
        options_.table.pages_per_tile = 8;
        options_.clock = &clock_;
        options_.delete_persistence_threshold_micros = size_.dth;
        break;
      case Kind::kServePipelined:
        break;
    }
  }

  ~Instance() {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
    g_tracer.ForgetThreads();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // Opens a fresh database and loads it in key order, then waits for the
  // tree to settle (read-cached also warms the cache).
  Status Setup() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(cfg_.db_root, ec);
    Status s = lethe::DB::Open(options_, dir_, &db_);
    if (!s.ok()) return s;
    const Kind kind = cfg_.workload->kind;
    const uint64_t per_client = size_.prefill / kClients;
    Random rng(cfg_.seed ^ 0xfeedull);
    lethe::WriteBatch batch;
    char key[kKeyBytes], value[kValueBytes];
    for (int c = 0; c < kClients; c++) {
      std::vector<Slot>& model = models_[c];
      if (kind == Kind::kRetentionKiwi) {
        // Live keys spread over a sparse id space; delete keys are random
        // within the first window, so they are uncorrelated with sort keys.
        model.assign(size_.ids_per_client, Slot());
        const uint64_t stride = size_.ids_per_client / per_client;
        for (uint64_t i = 0; i < per_client; i++) {
          const uint64_t id = i * stride + rng.Uniform(stride);
          model[id] = {next_version_[c]++, rng.Uniform(size_.window)};
        }
      } else {
        // Room for every key ycsb-deletes may insert, so the model never
        // reallocates mid-run (its pages count only once touched).
        model.reserve(per_client + size_.update_ids +
                      (kind == Kind::kYcsbDeletes ? size_.ops_per_client : 0));
        model.resize(per_client + size_.update_ids);
        for (uint64_t id = 0; id < per_client; id++) {
          if (options_.clock != nullptr) clock_.AdvanceMicros(1);
          model[id] = {next_version_[c]++, clock_.NowMicros()};
        }
      }
      for (uint64_t id = 0; id < model.size(); id++) {
        if (model[id].version == 0) continue;
        EncodeKey(PrefixOf(id, size_), c, id, key);
        values_.Make(c, id, model[id].version, value);
        batch.Put(Slice(key, kKeyBytes), model[id].delete_key,
                  Slice(value, kValueBytes));
        if (batch.Count() == 1000) {
          s = db_->Write(lethe::WriteOptions(), &batch);
          if (!s.ok()) return s;
          batch.Clear();
        }
      }
    }
    if (batch.Count() > 0) s = db_->Write(lethe::WriteOptions(), &batch);
    if (!s.ok()) return s;
    if (kind == Kind::kRetentionKiwi) clock_.SetMicros(size_.window);
    s = db_->WaitForCompact();
    if (!s.ok() || kind != Kind::kReadCached) return s;
    return WarmCache();
  }

  // Reads every read key once, then windows of 10k random ones until one
  // window hits the page cache 99% of the time.
  Status WarmCache() {
    Random rng(cfg_.seed ^ 0xcaceull);
    std::string value;
    char key[kKeyBytes];
    auto get = [&](int c, uint64_t id) {
      EncodeKey("key", c, id, key);
      return db_->Get(lethe::ReadOptions(), Slice(key, kKeyBytes), &value);
    };
    for (int c = 0; c < kClients; c++) {
      for (uint64_t id = 0; id < size_.first_update_id; id++) {
        LETHE_RETURN_IF_ERROR(get(c, id));
      }
    }
    for (int window = 0; window < 1000; window++) {
      const lethe::Statistics before = db_->stats();
      for (int i = 0; i < 10000; i++) {
        LETHE_RETURN_IF_ERROR(
            get(i % kClients, rng.Uniform(size_.first_update_id)));
      }
      const lethe::Statistics& after = db_->stats();
      const double hits = after.page_cache_hits - before.page_cache_hits;
      const double misses = after.page_cache_misses - before.page_cache_misses;
      // A window served from the memtable alone is warm too.
      if (misses <= 0.01 * (hits + misses)) return Status::OK();
    }
    return Status::IOError("page cache hit ratio stayed below 0.99");
  }

  // Flips one model entry so the checks must fail (the --corrupt-model
  // self-check of the model).
  void CorruptModel() {
    for (Slot& slot : models_[0]) {
      if (slot.version != 0) {
        slot.version += 1u << 30;
        return;
      }
    }
  }

  // The measured phase plus the checks. Fills `e2e` with the end-to-end
  // metrics and, when tracing, `layer` with the per-layer ones; returns
  // whether every op and the final scan matched the model.
  bool Run(std::vector<Metric>* e2e, std::vector<Metric>* layer,
           uint64_t* attempted, uint64_t* failed) {
    const Kind kind = cfg_.workload->kind;
    Shared sh;
    sh.cfg = &cfg_;
    sh.size = size_;
    sh.values = &values_;
    sh.db = db_.get();
    sh.clock = options_.clock != nullptr ? &clock_ : nullptr;

    if (kind == Kind::kServePipelined) {
      lethe::server::ServerOptions so;
      so.port = 0;
      so.num_workers = 1;
      if (g_tracer.on) so.clock = &server_clock_;
      server_ = std::make_unique<lethe::server::RespServer>(db_.get(), so);
      Status s = server_->Start();
      if (!s.ok()) {
        fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
        *attempted = *failed = 1;
        return false;
      }
      sh.port = server_->port();
    }

    const lethe::Statistics before =
        server_ != nullptr ? server_->StatsSnapshot() : db_->stats();
    uint64_t written_before[kNumFileKinds];
    for (int k = 0; k < kNumFileKinds; k++) {
      written_before[k] = g_tracer.written[k];
    }
    uint64_t io_before[kNumIoOps][kNumFileKinds][kNumRoles][3];
    SnapshotIo(io_before);
    g_tracer.RebaseCpu();

    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < kClients; c++) {
      if (kind == Kind::kServePipelined) {
        clients.push_back(std::make_unique<ServeClient>(&sh, c, &models_[c],
                                                        &next_version_[c]));
      } else {
        clients.push_back(std::make_unique<DirectClient>(&sh, c, &models_[c],
                                                         &next_version_[c]));
      }
    }
    const uint64_t t0 = NowNs();
    {
      std::vector<std::jthread> threads;  // joined at the end of the block
      for (auto& cl : clients) {
        threads.emplace_back([c = cl.get()] { c->Run(); });
      }
    }
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    srd_cutoff_ = sh.srd_done.load();
    const double bg_cpu = g_tracer.CpuSeconds(kBackground);
    const double server_cpu = g_tracer.CpuSeconds(kServer);

    // Drain the compaction debt the phase left, so byte counts cover all
    // the work its writes caused.
    Status s = db_->WaitForCompact();
    const lethe::Statistics after =
        server_ != nullptr ? server_->StatsSnapshot() : db_->stats();
    uint64_t io_after[kNumIoOps][kNumFileKinds][kNumRoles][3];
    SnapshotIo(io_after);

    ClientStats all;
    for (const auto& cl : clients) {
      const ClientStats& c = cl->st;
      for (int k = 0; k < kNumOpKinds; k++) {
        all.hist[k].Merge(c.hist[k]);
        all.totals[k].n += c.totals[k].n;
        all.totals[k].ns += c.totals[k].ns;
        all.totals[k].env_ns += c.totals[k].env_ns;
        all.totals[k].sst_reads += c.totals[k].sst_reads;
      }
      all.attempted += c.attempted;
      all.failed += c.failed;
      all.user_bytes += c.user_bytes;
      all.cpu_s += c.cpu_s;
      all.max_tombstone_age =
          std::max(all.max_tombstone_age, c.max_tombstone_age);
      if (!c.first_failure.empty() && all.first_failure.empty()) {
        all.first_failure = c.first_failure;
      }
      g_tracer.AddSpans(c.spans);
    }
    if (!s.ok()) all.Fail("wait for compaction: " + s.ToString());

    // The full scan against the model, then the stored bytes.
    uint64_t live_keys = 0;
    const std::string scan_error = VerifyScan(&live_keys);
    all.attempted++;
    if (!scan_error.empty()) all.Fail("final scan: " + scan_error);
    const double live_bytes =
        static_cast<double>(live_keys) * (kKeyBytes + kValueBytes);
    const double stored_per_live = Ratio(DirBytes(dir_), live_bytes);

    uint64_t written = 0;
    for (int k = 0; k < kNumFileKinds; k++) {
      if (k != kOtherFile) written += g_tracer.written[k] - written_before[k];
    }
    const double user_bytes = static_cast<double>(all.user_bytes);

    uint64_t op_count = 0;
    for (int k = 0; k < kNumOpKinds; k++) op_count += all.totals[k].n;
    // serve-pipelined times one batch of kServeDepth commands per op.
    const uint64_t commands = kind == Kind::kServePipelined
                                  ? op_count * kServeDepth
                                  : op_count;
    PrintLatencies(all);
    if (!all.first_failure.empty()) {
      fprintf(stderr, "first failure: %s\n", all.first_failure.c_str());
    }

    // Throughput and latency swing with the host's speed by more than any
    // bound allows, so they are per-layer metrics; run.py reads this line
    // for the tracing overhead and for paired throughput comparisons.
    printf("ops_per_s=%.17g\n", commands / seconds);
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    *e2e = {
        {"write_amp", "ratio", Ratio(written, user_bytes)},
        {"stored_per_live_byte", "ratio", stored_per_live},
        {"rss_mb", "MB", ru.ru_maxrss / 1024.0},
    };
    if (g_tracer.on) {
      double space_amp = 0;
      Status sa = db_->ComputeSpaceAmplification(&space_amp);
      if (!sa.ok()) all.Fail("space amplification: " + sa.ToString());
      LayerMetrics(before, after, io_before, io_after, all, seconds, commands,
                   bg_cpu, server_cpu, space_amp, layer);
      layer->push_back({"trace.ops_per_s", "1/s", commands / seconds});
    }
    *attempted = all.attempted;
    *failed = all.failed;
    return all.failed == 0;
  }

 private:
  using IoSnapshot = uint64_t[kNumIoOps][kNumFileKinds][kNumRoles][3];

  static void SnapshotIo(IoSnapshot out) {
    for (int o = 0; o < kNumIoOps; o++) {
      for (int k = 0; k < kNumFileKinds; k++) {
        for (int r = 0; r < kNumRoles; r++) {
          const IoCell& c = g_tracer.io[o][k][r];
          out[o][k][r][0] = c.calls;
          out[o][k][r][1] = c.bytes;
          out[o][k][r][2] = c.ns;
        }
      }
    }
  }

  // Compares a full scan of the database with the models. Returns an empty
  // string when they agree.
  std::string VerifyScan(uint64_t* live_keys) {
    lethe::ReadOptions ro;
    ro.fill_page_cache = false;
    std::unique_ptr<lethe::Iterator> it = db_->NewIterator(ro);
    uint64_t seen = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      int c;
      uint64_t id;
      if (DecodeKey(it->key(), "exp", &c, &id)) continue;  // TTL'd, never read
      const bool decoded = DecodeKey(it->key(), "key", &c, &id) ||
                           DecodeKey(it->key(), "upd", &c, &id);
      if (!decoded || id >= models_[c].size() ||
          memcmp(it->key().data(), PrefixOf(id, size_), 3) != 0) {
        return "unexpected key " + it->key().ToString();
      }
      const Slot& slot = models_[c][id];
      if (Expected(slot, srd_cutoff_, srd_cutoff_) != 1) {
        return "deleted key " + std::to_string(id) + " is live";
      }
      if (!values_.Matches(c, id, slot.version, it->value())) {
        return "wrong value for key " + std::to_string(id);
      }
      seen++;
    }
    if (!it->status().ok()) return it->status().ToString();
    uint64_t expected = 0;
    for (int c = 0; c < kClients; c++) {
      for (const Slot& slot : models_[c]) {
        expected += Expected(slot, srd_cutoff_, srd_cutoff_) == 1;
      }
    }
    *live_keys = expected;
    if (seen != expected) {
      return std::to_string(seen) + " live keys, model has " +
             std::to_string(expected);
    }
    return "";
  }

  void PrintLatencies(const ClientStats& all) const {
    for (int k = 0; k < kNumOpKinds; k++) {
      const LatencyHist& h = all.hist[k];
      if (h.count() == 0) continue;
      printf("%-13s n=%-9" PRIu64 " p50=%.2fus p99=%.2fus p99.9=%.2fus "
             "(%" PRIu64 " beyond) max=%.2fus\n",
             kOpNames[k], h.count(), h.Quantile(0.5) / 1e3,
             h.Quantile(0.99) / 1e3, h.Quantile(0.999) / 1e3, h.count() / 1000,
             h.max() / 1e3);
    }
  }

  void LayerMetrics(const lethe::Statistics& b, const lethe::Statistics& a,
                    IoSnapshot io_b, IoSnapshot io_a, const ClientStats& all,
                    double seconds, uint64_t commands, double bg_cpu,
                    double server_cpu, double space_amp,
                    std::vector<Metric>* out) const {
    auto d = [](const std::atomic<uint64_t>& after,
                const std::atomic<uint64_t>& before) {
      return static_cast<double>(after.load()) -
             static_cast<double>(before.load());
    };
#define DELTA(field) d(a.field, b.field)
    const double user = static_cast<double>(all.user_bytes);
    const double kops = static_cast<double>(commands) / 1000.0;
    const double lookups = DELTA(point_lookups);
    const double hits = DELTA(page_cache_hits);
    const double misses = DELTA(page_cache_misses);
    const double compactions = DELTA(compactions);
    const double full = DELTA(full_page_drops);
    const double partial = DELTA(partial_page_drops);
    const double srds = DELTA(secondary_range_deletes);
    const OpTotals& get = all.totals[kGet];
    const OpTotals& scan = all.totals[kScan];
    const OpTotals& srd = all.totals[kSrd];
    auto io = [&](int op, int kind, int role, int field) {
      return static_cast<double>(io_a[op][kind][role][field]) -
             static_cast<double>(io_b[op][kind][role][field]);
    };
    auto io_all_roles = [&](int op, int kind, int field) {
      double v = 0;
      for (int r = 0; r < kNumRoles; r++) v += io(op, kind, r, field);
      return v;
    };
    const double net_commands = DELTA(net_commands);
    lethe::Histogram drains = a.NetPipelineDepthHistogram();
    LatencyHist writes;
    for (OpKind k : {kPut, kDelete, kRangeDelete}) writes.Merge(all.hist[k]);

    *out = {
        // server (src/server)
        {"server.cpu_us_per_cmd", "us", Ratio(server_cpu * 1e6, net_commands)},
        {"server.cmds_per_drain", "count", drains.Average()},
        {"server.ops_per_commit_batch", "count",
         Ratio(DELTA(net_batch_ops_coalesced), DELTA(net_batches_coalesced))},
        {"server.bytes_out_per_cmd", "B",
         Ratio(DELTA(net_bytes_out), net_commands)},
        {"server.expired_active_per_s", "1/s",
         DELTA(net_keys_expired_active) / seconds},
        // lsm.write (group commit, WAL)
        {"write.entries_per_group_commit", "count",
         Ratio(DELTA(group_commit_entries), DELTA(group_commit_batches))},
        {"write.stall_ms_per_s", "ms/s", DELTA(stall_micros) / 1e3 / seconds},
        {"write.stalls_per_kop", "count", Ratio(DELTA(write_stalls), kops)},
        {"wal.append_us_per_call", "us",
         Ratio(io_all_roles(kAppend, kWal, 2) / 1e3,
               io_all_roles(kAppend, kWal, 0))},
        {"wal.bytes_per_user_byte", "ratio",
         Ratio(io_all_roles(kAppend, kWal, 1), user)},
        // lsm.read + memtable + format
        {"get.self_us", "us", Ratio((get.ns - get.env_ns) / 1e3, get.n)},
        {"get.env_us", "us", Ratio(get.env_ns / 1e3, get.n)},
        {"read.pages_per_get", "count",
         Ratio(DELTA(point_lookup_pages_read), lookups)},
        {"read.sst_reads_per_get", "count", Ratio(get.sst_reads, get.n)},
        {"read.bloom_probes_per_get", "count",
         Ratio(DELTA(bloom_probes), lookups)},
        {"read.bloom_fp_rate", "ratio",
         Ratio(DELTA(bloom_false_positives),
               DELTA(bloom_false_positives) + DELTA(bloom_negatives))},
        // util.cache
        {"cache.hit_ratio", "ratio", Ratio(hits, hits + misses)},
        {"cache.evictions_per_get", "count",
         Ratio(DELTA(page_cache_evictions), lookups)},
        {"cache.charge_mb", "MB", a.page_cache_charge_bytes.load() / 1048576.0},
        // format.range_tombstone
        {"rt.cover_probes_per_get", "count",
         Ratio(DELTA(rt_cover_probes), lookups)},
        {"rt.fragment_builds_per_kop", "count",
         Ratio(DELTA(rt_fragment_builds), kops)},
        // lsm.compaction (+ flush, FADE, the worker pool)
        {"compaction.per_user_mb", "count",
         Ratio(compactions, user / 1048576.0)},
        {"compaction.ttl_share", "ratio",
         Ratio(DELTA(compactions_ttl_triggered), compactions)},
        {"compaction.write_bytes_per_user_byte", "ratio",
         Ratio(DELTA(compaction_bytes_written), user)},
        {"compaction.read_bytes_per_user_byte", "ratio",
         Ratio(DELTA(compaction_bytes_read), user)},
        {"flush.bytes_per_user_byte", "ratio",
         Ratio(DELTA(flush_bytes_written), user)},
        {"compaction.keep_ratio", "ratio",
         Ratio(DELTA(compaction_entries_out), DELTA(compaction_entries_in))},
        {"compaction.tombstones_dropped_per_kop", "count",
         Ratio(DELTA(tombstones_dropped), kops)},
        {"compaction.invalid_purged_per_kop", "count",
         Ratio(DELTA(invalid_entries_purged), kops)},
        {"bg.cpu_share", "cores", bg_cpu / seconds},
        {"bg.deferred_ratio", "ratio",
         Ratio(DELTA(bg_jobs_deferred_overlap), DELTA(bg_jobs_dispatched))},
        {"sst.append_us_per_mb_bg", "us",
         Ratio(io(kAppend, kSst, kBackground, 2) / 1e3,
               io(kAppend, kSst, kBackground, 1) / 1048576.0)},
        {"space_amp", "ratio", space_amp},
        {"tombstone_age_over_dth", "ratio",
         Ratio(all.max_tombstone_age,
               options_.delete_persistence_threshold_micros)},
        // lsm.secondary_delete (KiWi)
        {"srd.count", "count", srds},
        {"srd.full_drop_ratio", "ratio", Ratio(full, full + partial)},
        {"srd.pages_scanned_per_srd", "count",
         Ratio(DELTA(pages_scanned_for_srd), srds)},
        {"srd.entries_purged_per_srd", "count",
         Ratio(DELTA(entries_purged_by_srd), srds)},
        {"srd.env_us_per_srd", "us",
         Ratio((srd.env_ns + g_tracer.srd_bg_env_ns.load()) / 1e3, srd.n)},
        // lsm.iterator
        {"scan.sst_reads_per_scan", "count", Ratio(scan.sst_reads, scan.n)},
        {"scan.self_us", "us", Ratio((scan.ns - scan.env_ns) / 1e3, scan.n)},
        // bench.client
        {"client.cpu_share", "cores", all.cpu_s / seconds / kClients},
        // per-op latency in the traced run
        {"lat.get_p50_us", "us", all.hist[kGet].Quantile(0.50) / 1e3},
        {"lat.get_p99_us", "us", all.hist[kGet].Quantile(0.99) / 1e3},
        {"lat.write_p50_us", "us", writes.Quantile(0.50) / 1e3},
        {"lat.write_p99_us", "us", writes.Quantile(0.99) / 1e3},
        {"lat.scan_p50_us", "us", all.hist[kScan].Quantile(0.5) / 1e3},
        {"lat.srd_p50_ms", "ms", all.hist[kSrd].Quantile(0.5) / 1e6},
        {"lat.rtt_p50_us", "us", all.hist[kBatch].Quantile(0.5) / 1e3},
        {"lat.rtt_p99_us", "us", all.hist[kBatch].Quantile(0.99) / 1e3},
    };
#undef DELTA
    // env: calls, bytes and time per file kind and thread role, for the
    // combinations the engine produces.
    struct Cell {
      IoOp op;
      FileKind kind;
      Role role;
      const char* name;
    };
    const Cell cells[] = {
        {kRead, kSst, kClient, "env.read.sst.client"},
        {kRead, kSst, kServer, "env.read.sst.server"},
        {kRead, kSst, kBackground, "env.read.sst.bg"},
        {kAppend, kSst, kBackground, "env.append.sst.bg"},
        {kAppend, kWal, kClient, "env.append.wal.client"},
        {kAppend, kWal, kServer, "env.append.wal.server"},
        {kAppend, kManifest, kBackground, "env.append.manifest.bg"},
        {kSync, kSst, kBackground, "env.sync.sst.bg"},
        {kSync, kManifest, kBackground, "env.sync.manifest.bg"},
    };
    for (const Cell& c : cells) {
      const double calls = io(c.op, c.kind, c.role, 0);
      const std::string name = c.name;
      out->push_back({name + ".calls_per_kop", "count", Ratio(calls, kops)});
      if (c.op != kSync) {
        out->push_back({name + ".kb_per_kop", "KB",
                        Ratio(io(c.op, c.kind, c.role, 1) / 1024.0, kops)});
      }
      out->push_back({name + ".us_per_call", "us",
                      Ratio(io(c.op, c.kind, c.role, 2) / 1e3, calls)});
    }
  }

  const Config& cfg_;
  const Scaled size_;
  const Values& values_;
  const std::string dir_;
  lethe::LogicalClock clock_;
  ServerThreadClock server_clock_;
  lethe::Options options_;
  std::unique_ptr<lethe::DB> db_;
  std::unique_ptr<lethe::server::RespServer> server_;
  std::vector<Slot> models_[kClients];
  uint32_t next_version_[kClients] = {1, 1};
  // Every entry with a delete key below this was purged by retention-kiwi's
  // secondary range deletes (0 for the other workloads).
  uint64_t srd_cutoff_ = 0;
};

// ---------------------------------------------------------------------------

void WriteChromeTrace(const std::string& dir, const char* workload) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + workload + ".trace.json";
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::lock_guard<std::mutex> l(g_tracer.mu);
  fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t i = 0; i < g_tracer.spans.size(); i++) {
    const Span& s = g_tracer.spans[i];
    fprintf(f,
            "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
            "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %" PRIu64
            ", \"role\": \"%s\"}}%s\n",
            s.name, s.tid, s.start_ns / 1e3, s.dur_ns / 1e3, s.op_id,
            kRoleNames[s.role], i + 1 < g_tracer.spans.size() ? "," : "");
  }
  fprintf(f, "]}\n");
  fclose(f);
  fprintf(stderr, "wrote %zu spans to %s\n", g_tracer.spans.size(),
          path.c_str());
}

bool FlagValue(const char* arg, const char* name, const char** value) {
  const size_t n = strlen(name);
  if (strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

int Usage() {
  fprintf(stderr,
          "usage: lethe_bench --workload=NAME [--seed=N] [--seconds=S] "
          "[--db-root=DIR] [--trace-dir=DIR] [--scale=F] "
          "[--corrupt-model]\nworkloads:");
  for (const Workload& w : kWorkloads) fprintf(stderr, " %s", w.name);
  fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; i++) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--workload", &v)) {
      for (const Workload& w : kWorkloads) {
        if (strcmp(w.name, v) == 0) cfg.workload = &w;
      }
    } else if (FlagValue(argv[i], "--seed", &v)) {
      cfg.seed = strtoull(v, nullptr, 10);
    } else if (FlagValue(argv[i], "--seconds", &v)) {
      cfg.seconds = atof(v);
    } else if (FlagValue(argv[i], "--scale", &v)) {
      cfg.scale = atof(v);
    } else if (FlagValue(argv[i], "--db-root", &v)) {
      cfg.db_root = v;
    } else if (FlagValue(argv[i], "--trace-dir", &v)) {
      cfg.trace_dir = v;
    } else if (strcmp(argv[i], "--corrupt-model") == 0) {
      cfg.corrupt_model = true;
    } else {
      fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage();
    }
  }
  if (cfg.workload == nullptr || cfg.seconds <= 0 || cfg.scale <= 0 ||
      cfg.scale > 1) {
    return Usage();
  }
  signal(SIGPIPE, SIG_IGN);
  g_tracer.on = !cfg.trace_dir.empty();
  g_tracer.epoch_ns = NowNs();
  g_tracer.Adopt(kClient, false);

  BenchEnv env;
  const Values values(cfg.seed);
  std::unique_ptr<Instance> db;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; i++) {
    db.reset();  // the previous set-up's database is closed and removed
    db = std::make_unique<Instance>(cfg, values, &env, i);
    const uint64_t t0 = NowNs();
    Status s = db->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!s.ok()) {
      fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::sort(setup_s.begin(), setup_s.end());
  if (cfg.corrupt_model) db->CorruptModel();

  std::vector<Metric> e2e, layer;
  uint64_t attempted = 0, failed = 0;
  const bool correct = db->Run(&e2e, &layer, &attempted, &failed);
  db.reset();
  e2e.insert(e2e.begin(), {"setup_s", "s", setup_s[setup_s.size() / 2]});
  if (g_tracer.on) WriteChromeTrace(cfg.trace_dir, cfg.workload->name);
  printf("%s\n",
         ResultJson(correct, attempted, failed, g_tracer.on ? layer : e2e)
             .c_str());
  return correct ? 0 : 1;
}
