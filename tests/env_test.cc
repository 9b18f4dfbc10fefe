// Tests for the storage env substrate: MemEnv, PosixEnv, and the
// I/O-accounting wrapper used by the benchmarks.

#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <climits>
#include <cstdlib>
#include <fstream>

#include "src/env/env.h"
#include "src/env/io_counting_env.h"
#include "tests/model/test_util.h"

namespace lethe {
namespace {

class MemEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }
  std::unique_ptr<Env> env_;
};

TEST_F(MemEnvTest, WriteThenReadBack) {
  ASSERT_TRUE(WriteStringToFile(env_.get(), "contents", "dir/file").ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "dir/file", &data).ok());
  EXPECT_EQ(data, "contents");
}

TEST_F(MemEnvTest, MissingFileIsNotFound) {
  std::unique_ptr<SequentialFile> f;
  EXPECT_TRUE(env_->NewSequentialFile("nope", &f).IsNotFound());
  std::unique_ptr<RandomAccessFile> rf;
  EXPECT_TRUE(env_->NewRandomAccessFile("nope", &rf).IsNotFound());
  EXPECT_FALSE(env_->FileExists("nope"));
  EXPECT_TRUE(env_->RemoveFile("nope").IsNotFound());
}

TEST_F(MemEnvTest, RandomAccessReads) {
  ASSERT_TRUE(WriteStringToFile(env_.get(), "0123456789", "f").ok());
  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env_->NewRandomAccessFile("f", &rf).ok());
  EXPECT_EQ(rf->Size(), 10u);

  char scratch[16];
  Slice result;
  ASSERT_TRUE(rf->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "3456");
  // Reading past EOF yields a short result, not an error.
  ASSERT_TRUE(rf->Read(8, 10, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "89");
  ASSERT_TRUE(rf->Read(100, 4, &result, scratch).ok());
  EXPECT_TRUE(result.empty());
}

TEST_F(MemEnvTest, RandomWriteOverwritesInPlace) {
  ASSERT_TRUE(WriteStringToFile(env_.get(), "aaaaaaaaaa", "f").ok());
  std::unique_ptr<RandomWriteFile> wf;
  ASSERT_TRUE(env_->NewRandomWriteFile("f", &wf).ok());
  ASSERT_TRUE(wf->WriteAt(4, "BB").ok());
  ASSERT_TRUE(wf->Close().ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "f", &data).ok());
  EXPECT_EQ(data, "aaaaBBaaaa");
}

TEST_F(MemEnvTest, RenameAndChildren) {
  ASSERT_TRUE(WriteStringToFile(env_.get(), "x", "db/000001.sst").ok());
  ASSERT_TRUE(WriteStringToFile(env_.get(), "y", "db/000002.sst").ok());
  ASSERT_TRUE(env_->RenameFile("db/000001.sst", "db/000003.sst").ok());
  EXPECT_FALSE(env_->FileExists("db/000001.sst"));
  EXPECT_TRUE(env_->FileExists("db/000003.sst"));

  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("db", &children).ok());
  EXPECT_EQ(children.size(), 2u);
}

TEST_F(MemEnvTest, TruncatingOverwrite) {
  ASSERT_TRUE(WriteStringToFile(env_.get(), "long old contents", "f").ok());
  ASSERT_TRUE(WriteStringToFile(env_.get(), "new", "f").ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "f", &data).ok());
  EXPECT_EQ(data, "new");
}

TEST(PosixEnvTest, WriteReadRenameRemove) {
  Env* env = Env::Default();
  std::string dir = "/tmp/lethe_env_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);

  std::string f1 = dir + "/a.txt";
  std::string f2 = dir + "/b.txt";
  ASSERT_TRUE(WriteStringToFile(env, "posix bytes", f1).ok());
  EXPECT_TRUE(env->FileExists(f1));

  uint64_t size;
  ASSERT_TRUE(env->GetFileSize(f1, &size).ok());
  EXPECT_EQ(size, 11u);

  ASSERT_TRUE(env->RenameFile(f1, f2).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env, f2, &data).ok());
  EXPECT_EQ(data, "posix bytes");

  std::unique_ptr<RandomWriteFile> wf;
  ASSERT_TRUE(env->NewRandomWriteFile(f2, &wf).ok());
  ASSERT_TRUE(wf->WriteAt(0, "P").ok());
  ASSERT_TRUE(wf->Sync().ok());
  ASSERT_TRUE(wf->Close().ok());
  ASSERT_TRUE(ReadFileToString(env, f2, &data).ok());
  EXPECT_EQ(data, "Posix bytes");

  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren(dir, &children).ok());
  EXPECT_EQ(children.size(), 1u);

  ASSERT_TRUE(env->RemoveFile(f2).ok());
  EXPECT_FALSE(env->FileExists(f2));
}

// Appends of every size class, straddling the writer's buffer: each Flush
// hands every appended byte to the OS (the file size shows them), and a
// fresh reader after Sync and Close sees exactly the appended bytes.
TEST(PosixEnvTest, WritableFileRoundTrip) {
  Env* env = Env::Default();
  std::string dir = "/tmp/lethe_env_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string fname = dir + "/roundtrip";

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  const size_t kSizes[] = {1,         4096,    (64 << 10) - 1, 64 << 10,
                           1 << 20,   1,       (64 << 10) - 1, 4096,
                           64 << 10,  1 << 20, 1,              1};
  std::string expected;
  for (size_t i = 0; i < sizeof(kSizes) / sizeof(kSizes[0]); i++) {
    std::string chunk(kSizes[i], '\0');
    for (size_t j = 0; j < chunk.size(); j++) {
      chunk[j] = static_cast<char>('a' + (i * 7 + j) % 26);
    }
    ASSERT_TRUE(file->Append(chunk).ok());
    expected += chunk;
    if (i % 3 != 2) {
      continue;  // several appends between flushes
    }
    ASSERT_TRUE(file->Flush().ok());
    uint64_t size = 0;
    ASSERT_TRUE(env->GetFileSize(fname, &size).ok());
    EXPECT_EQ(size, expected.size()) << "after append " << i;
  }
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  file.reset();

  std::string data;
  ASSERT_TRUE(ReadFileToString(env, fname, &data).ok());
  EXPECT_EQ(data.size(), expected.size());
  EXPECT_TRUE(data == expected);
  ASSERT_TRUE(env->RemoveFile(fname).ok());
  rmdir(dir.c_str());
}

// Descriptor of the open file whose /proc/self/fd link names `path`, or -1.
int FindOpenFd(const std::string& path) {
  char resolved[PATH_MAX];
  if (realpath(path.c_str(), resolved) == nullptr) {
    return -1;
  }
  int found = -1;
  DIR* fds = opendir("/proc/self/fd");
  if (fds == nullptr) {
    return -1;
  }
  while (struct dirent* entry = readdir(fds)) {
    char target[PATH_MAX];
    const std::string link = std::string("/proc/self/fd/") + entry->d_name;
    const ssize_t n = readlink(link.c_str(), target, sizeof(target) - 1);
    if (n > 0 && std::string(target, n) == resolved) {
      found = atoi(entry->d_name);
    }
  }
  closedir(fds);
  return found;
}

// The octal `flags:` field of /proc/self/fdinfo/<fd>.
long OpenFlags(int fd) {
  std::ifstream info("/proc/self/fdinfo/" + std::to_string(fd));
  std::string field;
  while (info >> field) {
    if (field == "flags:") {
      std::string octal;
      info >> octal;
      return strtol(octal.c_str(), nullptr, 8);
    }
  }
  return -1;
}

// Every descriptor PosixEnv opens is close-on-exec, so a child the
// embedding process forks and execs holds no WAL or table open (which
// would keep a deleted table's disk space allocated until it exits).
TEST(PosixEnvTest, FilesAreOpenedCloseOnExec) {
  constexpr long kCloseOnExec = 02000000;  // O_CLOEXEC as fdinfo shows it
  Env* env = Env::Default();
  std::string dir = "/tmp/lethe_env_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string fname = dir + "/cloexec";

  auto expect_cloexec = [&](const char* kind) {
    const int fd = FindOpenFd(fname);
    ASSERT_GE(fd, 0) << kind;
    const long flags = OpenFlags(fd);
    ASSERT_GE(flags, 0) << kind;
    EXPECT_NE(flags & kCloseOnExec, 0) << kind << " flags 0" << std::oct
                                       << flags;
  };
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
    expect_cloexec("writable");
    ASSERT_TRUE(file->Append("close on exec").ok());
    ASSERT_TRUE(file->Close().ok());
  }
  {
    std::unique_ptr<RandomWriteFile> file;
    ASSERT_TRUE(env->NewRandomWriteFile(fname, &file).ok());
    expect_cloexec("random-write");
  }
  {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(env->NewRandomAccessFile(fname, &file).ok());
    expect_cloexec("random-access");
  }
  {
    std::unique_ptr<SequentialFile> file;
    ASSERT_TRUE(env->NewSequentialFile(fname, &file).ok());
    expect_cloexec("sequential");
  }
  ASSERT_TRUE(env->RemoveFile(fname).ok());
  rmdir(dir.c_str());
}

TEST(IoCountingEnvTest, CountsBytesAndPages) {
  auto base = NewMemEnv();
  IoCountingEnv env(base.get(), /*page_size=*/1024);

  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env.NewWritableFile("f", &wf).ok());
  std::string payload(3000, 'x');
  ASSERT_TRUE(wf->Append(payload).ok());
  ASSERT_TRUE(wf->Close().ok());

  EXPECT_EQ(env.stats().bytes_written.load(), 3000u);
  EXPECT_EQ(env.stats().pages_written.load(), 3u);  // ceil(3000/1024)
  EXPECT_EQ(env.stats().files_created.load(), 1u);

  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &rf).ok());
  char scratch[2048];
  Slice result;
  ASSERT_TRUE(rf->Read(0, 2048, &result, scratch).ok());
  EXPECT_EQ(env.stats().bytes_read.load(), 2048u);
  EXPECT_EQ(env.stats().pages_read.load(), 2u);

  env.stats().Reset();
  EXPECT_EQ(env.stats().bytes_read.load(), 0u);
}

TEST(IoCountingEnvTest, FaultInjectionFailsAppends) {
  auto base = NewMemEnv();
  IoCountingEnv env(base.get());
  env.InjectFaults(test::FailWritesAfter(2, ".sst"));

  std::unique_ptr<WritableFile> table;
  std::unique_ptr<WritableFile> wal;
  ASSERT_TRUE(env.NewWritableFile("1.sst", &table).ok());
  ASSERT_TRUE(env.NewWritableFile("2.wal", &wal).ok());
  EXPECT_TRUE(table->Append("one").ok());
  EXPECT_TRUE(wal->Append("unmatched: consumes nothing").ok());
  EXPECT_TRUE(table->Append("two").ok());
  EXPECT_TRUE(table->Append("three").IsIOError());
  EXPECT_TRUE(table->Append("four").IsIOError());
  EXPECT_TRUE(wal->Append("still unmatched").ok());
  // In-place writes fail like appends.
  std::unique_ptr<RandomWriteFile> rewrite;
  ASSERT_TRUE(env.NewRandomWriteFile("1.sst", &rewrite).ok());
  EXPECT_TRUE(rewrite->WriteAt(0, "x").IsIOError());

  env.ClearFaults();
  EXPECT_TRUE(table->Append("five").ok());
  EXPECT_TRUE(rewrite->WriteAt(0, "x").ok());
}

TEST(IoCountingEnvTest, RemoveCountsAndForwards) {
  auto base = NewMemEnv();
  IoCountingEnv env(base.get());
  ASSERT_TRUE(WriteStringToFile(&env, "x", "f").ok());
  ASSERT_TRUE(env.RemoveFile("f").ok());
  EXPECT_EQ(env.stats().files_removed.load(), 1u);
  EXPECT_FALSE(base->FileExists("f"));
}

}  // namespace
}  // namespace lethe
