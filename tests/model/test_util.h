#ifndef LETHE_TESTS_MODEL_TEST_UTIL_H_
#define LETHE_TESTS_MODEL_TEST_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "src/env/io_counting_env.h"

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

/// Number of `.sst` files in directory `dbname`.
uint64_t CountTableFiles(Env* env, const std::string& dbname);

/// Path of the first child of `dbname` ending in `suffix` (tests locate the
/// single WAL or manifest this way), or "" if there is none.
std::string FindFileWithSuffix(Env* env, const std::string& dbname,
                               const std::string& suffix);

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
