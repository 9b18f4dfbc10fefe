#ifndef LETHE_TESTS_MODEL_TEST_UTIL_H_
#define LETHE_TESTS_MODEL_TEST_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/env/io_counting_env.h"
#include "src/memtable/wal.h"

namespace lethe {

class DB;

namespace test {

/// Positive integer from environment variable `name`, or `fallback` when
/// it is unset, zero or not a number. The stress lanes scale their seed and
/// op counts through this.
int EnvInt(const char* name, int fallback);

/// Polls `pred` every millisecond for up to `timeout_ms`. Returns true the
/// moment it holds. Recovery waits go through this instead of fixed sleeps
/// so suites stay fast on quick machines and reliable on sanitized ones.
template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Runs `call` on its own thread and returns its status once it finishes.
/// A call still running after `timeout_ms` is a hang: the hung thread owns
/// the DB, so no teardown could finish either, and the binary aborts with
/// a message instead of stalling the suite.
inline Status CallWithin(std::function<Status()> call, int timeout_ms) {
  std::packaged_task<Status()> task(std::move(call));
  std::future<Status> result = task.get_future();
  std::thread(std::move(task)).detach();
  if (result.wait_for(std::chrono::milliseconds(timeout_ms)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "call still running after %d ms: hung\n",
                 timeout_ms);
    std::abort();
  }
  return result.get();
}

/// Forwards every call to a target Env; tests override what they watch.
class ForwardingEnv : public Env {
 public:
  explicit ForwardingEnv(Env* target) : target_(target) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return target_->NewWritableFile(fname, result);
  }
  Status NewRandomWriteFile(const std::string& fname,
                            std::unique_ptr<RandomWriteFile>* result) override {
    return target_->NewRandomWriteFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return target_->NewRandomAccessFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return target_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return target_->FileExists(fname);
  }
  Status RemoveFile(const std::string& fname) override {
    return target_->RemoveFile(fname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return target_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return target_->RenameFile(src, target);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return target_->CreateDirIfMissing(dirname);
  }
  Status GetChildren(const std::string& dirname,
                     std::vector<std::string>* result) override {
    return target_->GetChildren(dirname, result);
  }

 protected:
  Env* target_;
};

/// Number of `.sst` files in directory `dbname`.
uint64_t CountTableFiles(Env* env, const std::string& dbname);

/// Path of the first child of `dbname` ending in `suffix` (tests locate the
/// single WAL or manifest this way), or "" if there is none.
std::string FindFileWithSuffix(Env* env, const std::string& dbname,
                               const std::string& suffix);

/// Numbers of the WAL files in directory `dbname`, ascending.
std::vector<uint64_t> WalNumbers(Env* env, const std::string& dbname);

/// One op a WAL logged, owned, with the sequence and time its group gave
/// it and the index of that group's frame in the log.
struct LoggedOp {
  WalOp::Kind kind = WalOp::Kind::kPut;
  SequenceNumber seq = 0;
  uint64_t time = 0;
  size_t group = 0;
  std::string key;
  std::string end_key;
  uint64_t delete_key = 0;
  std::string value;
  uint64_t delete_key_end = 0;
};

/// Reads WAL `fname` as Open replays it: the ops of the groups before the
/// first frame that is not an intact, decodable group. That frame's scan
/// result goes to `*last` when given (kEnd for a clean log).
std::vector<LoggedOp> ReadWalOps(Env* env, const std::string& fname,
                                 RecordLogScanner::Result* last = nullptr);

/// Number of table files the live version of `db` references.
uint64_t ReferencedTableFiles(DB* db);

/// Fault policy that lets the first `n` appends (or WriteAts) to files
/// whose name contains `path_substring` through and fails every later one
/// with an IOError, until ClearFaults().
FaultPolicy FailWritesAfter(uint64_t n, std::string path_substring = "");

/// How to rerun the test that is running now, alone: the exact
/// `--gtest_filter`, preceded by every LETHE_* scaling variable that is
/// set, with `seeds_env` (when not null) lowered to `seed`, the smallest
/// seed count that still runs it. Call from the test's main thread.
std::string ReproHint(const char* seeds_env = nullptr, int seed = 0);

}  // namespace test
}  // namespace lethe

#endif  // LETHE_TESTS_MODEL_TEST_UTIL_H_
