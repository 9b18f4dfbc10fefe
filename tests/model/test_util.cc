#include "tests/model/test_util.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <vector>

#include "src/core/db.h"

namespace lethe::test {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && atoi(value) > 0 ? atoi(value) : fallback;
}

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

uint64_t CountTableFiles(Env* env, const std::string& dbname) {
  std::vector<std::string> children;
  if (!env->GetChildren(dbname, &children).ok()) {
    return 0;
  }
  uint64_t n = 0;
  for (const std::string& child : children) {
    n += EndsWith(child, ".sst") ? 1 : 0;
  }
  return n;
}

std::string FindFileWithSuffix(Env* env, const std::string& dbname,
                               const std::string& suffix) {
  std::vector<std::string> children;
  if (env->GetChildren(dbname, &children).ok()) {
    for (const std::string& child : children) {
      if (EndsWith(child, suffix)) {
        return dbname + "/" + child;
      }
    }
  }
  return std::string();
}

uint64_t ReferencedTableFiles(DB* db) {
  uint64_t n = 0;
  for (const LevelSnapshot& level : db->GetLevelSnapshots()) {
    n += level.num_files;
  }
  return n;
}

FaultPolicy FailWritesAfter(uint64_t n, std::string path_substring) {
  FaultPolicy policy;
  policy.kind = FaultPolicy::Kind::kIOError;
  policy.fail_appends = true;
  policy.start_after_ops = n;
  policy.path_substring = std::move(path_substring);
  return policy;
}

std::string ReproHint(const char* seeds_env, int seed) {
  const std::string seeds =
      seeds_env == nullptr ? "" : std::string(seeds_env) + "=";
  std::string hint =
      "rerun with:" + (seeds.empty() ? "" : " " + seeds + std::to_string(seed));
  for (char** env = environ; *env != nullptr; env++) {
    const std::string entry = *env;
    if (entry.rfind("LETHE_", 0) == 0 &&
        (seeds.empty() || entry.rfind(seeds, 0) != 0)) {
      hint += " " + entry;
    }
  }
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    hint += " --gtest_filter='" + std::string(info->test_suite_name()) +
            "." + info->name() + "'";
  }
  return hint;
}

}  // namespace lethe::test
