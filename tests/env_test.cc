// Tests for the storage env substrate: MemEnv, PosixEnv, and the
// I/O-accounting wrapper used by the benchmarks.

#include <gtest/gtest.h>

#include <cstdlib>

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
