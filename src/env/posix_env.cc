#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/env/env.h"

namespace lethe {

namespace {

Status PosixError(const std::string& context, int error_number) {
  std::string msg = context + ": " + strerror(error_number);
  if (error_number == ENOENT) {
    return Status::NotFound(msg);
  }
  return Status::IOError(msg);
}

// Bytes PosixWritableFile gathers in user space before it calls write():
// one syscall per 64 KB instead of one per 4 KB page a table builder
// appends.
constexpr size_t kWritableFileBufferSize = 64 << 10;

Status WriteFully(const std::string& fname, int fd, const char* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return PosixError(fname, errno);
    }
    p += w;
    n -= w;
  }
  return Status::OK();
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd)
      : fname_(std::move(fname)),
        fd_(fd),
        buf_(std::make_unique_for_overwrite<char[]>(
            kWritableFileBufferSize)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      FlushBuffer().ok();
      ::close(fd_);
    }
  }

  Status Append(const Slice& data) override {
    if (data.size() > kWritableFileBufferSize - pos_) {
      // Flush first so bytes keep their order; an append larger than the
      // buffer then goes straight through. A caller that flushes after
      // each append (RecordLogWriter) thus has every append written in
      // one piece, as if there were no buffer.
      LETHE_RETURN_IF_ERROR(FlushBuffer());
      if (data.size() > kWritableFileBufferSize) {
        return WriteFully(fname_, fd_, data.data(), data.size());
      }
    }
    memcpy(buf_.get() + pos_, data.data(), data.size());
    pos_ += data.size();
    return Status::OK();
  }

  Status Flush() override { return FlushBuffer(); }

  Status Sync() override {
    LETHE_RETURN_IF_ERROR(FlushBuffer());
    if (::fdatasync(fd_) != 0) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) {
      return Status::OK();
    }
    Status s = FlushBuffer();
    if (::close(fd_) != 0 && s.ok()) {
      s = PosixError(fname_, errno);
    }
    fd_ = -1;
    return s;
  }

 private:
  // Writes the buffered bytes. On failure they are dropped, as a torn
  // write would leave them, and the error is returned.
  Status FlushBuffer() {
    const size_t n = pos_;
    pos_ = 0;
    return WriteFully(fname_, fd_, buf_.get(), n);
  }

  std::string fname_;
  int fd_;
  std::unique_ptr<char[]> buf_;
  size_t pos_ = 0;  // bytes buffered in buf_
};

class PosixRandomWriteFile final : public RandomWriteFile {
 public:
  PosixRandomWriteFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}

  ~PosixRandomWriteFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  Status WriteAt(uint64_t offset, const Slice& data) override {
    const char* p = data.data();
    size_t n = data.size();
    off_t off = static_cast<off_t>(offset);
    while (n > 0) {
      ssize_t w = ::pwrite(fd_, p, n, off);
      if (w < 0) {
        if (errno == EINTR) {
          continue;
        }
        return PosixError(fname_, errno);
      }
      p += w;
      n -= w;
      off += w;
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return PosixError(fname_, errno);
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd, uint64_t size)
      : fname_(std::move(fname)), fd_(fd), size_(size) {}

  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ssize_t r = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) {
      return PosixError(fname_, errno);
    }
    *result = Slice(scratch, static_cast<size_t>(r));
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  std::string fname_;
  int fd_;
  uint64_t size_;
};

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}

  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ssize_t r = ::read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) {
          continue;
        }
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, static_cast<size_t>(r));
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) == -1) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
};

class PosixEnv final : public Env {
 public:
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd =
        ::open(fname.c_str(), O_TRUNC | O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      return PosixError(fname, errno);
    }
    *result = std::make_unique<PosixWritableFile>(fname, fd);
    return Status::OK();
  }

  Status NewRandomWriteFile(
      const std::string& fname,
      std::unique_ptr<RandomWriteFile>* result) override {
    int fd = ::open(fname.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) {
      return PosixError(fname, errno);
    }
    *result = std::make_unique<PosixRandomWriteFile>(fname, fd);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return PosixError(fname, errno);
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      return PosixError(fname, err);
    }
    *result = std::make_unique<PosixRandomAccessFile>(
        fname, fd, static_cast<uint64_t>(st.st_size));
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return PosixError(fname, errno);
    }
    *result = std::make_unique<PosixSequentialFile>(fname, fd);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) {
      return PosixError(fname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct stat st;
    if (::stat(fname.c_str(), &st) != 0) {
      return PosixError(fname, errno);
    }
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src, const std::string& target) override {
    if (::rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetChildren(const std::string& dirname,
                     std::vector<std::string>* result) override {
    result->clear();
    DIR* dir = ::opendir(dirname.c_str());
    if (dir == nullptr) {
      return PosixError(dirname, errno);
    }
    struct dirent* entry;
    while ((entry = ::readdir(dir)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") {
        result->push_back(name);
      }
    }
    ::closedir(dir);
    return Status::OK();
  }
};

}  // namespace

Env* Env::Default() {
  static Env* env = new PosixEnv();
  return env;
}

}  // namespace lethe
