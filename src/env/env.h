#ifndef LETHE_ENV_ENV_H_
#define LETHE_ENV_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {

/// Append-only file handle for SSTables, WAL, and MANIFEST writing.
///
/// Append may buffer: appended bytes need not reach the OS, nor be visible
/// to other handles on the file, until the next Flush, Sync or Close.
/// Flush hands every appended byte to the OS, so it survives a crash of
/// this process (not of the machine). Sync flushes, then makes the bytes
/// durable. Close flushes and releases the handle; destroying an unclosed
/// handle flushes too, ignoring errors. After a failed Append or Flush the
/// bytes still buffered are dropped, as a torn write would leave them.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Positional-write handle used exclusively by KiWi partial page drops,
/// which edit 0-1 boundary pages per delete tile in place (§4.2.2). All
/// other file writes in the engine are append-only.
class RandomWriteFile {
 public:
  virtual ~RandomWriteFile() = default;
  virtual Status WriteAt(uint64_t offset, const Slice& data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Positional-read file handle for SSTable page reads.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to `n` bytes starting at `offset`. Sets `*result` to the data
  /// read (which may point into `scratch` or into internal storage). Reading
  /// past EOF yields a shorter (possibly empty) result, not an error.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;

  virtual uint64_t Size() const = 0;
};

/// Forward-only file handle for WAL/MANIFEST replay.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

/// Env abstracts the storage substrate (filesystem). Two concrete backends
/// exist: PosixEnv (real files) and MemEnv (in-process, used by tests and
/// benches for deterministic, laptop-fast experiments). IoCountingEnv wraps
/// either to account every byte moved, which is how the benches measure
/// read/write amplification exactly.
class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;
  /// Opens an existing file for in-place positional writes.
  virtual Status NewRandomWriteFile(const std::string& fname,
                                    std::unique_ptr<RandomWriteFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;
  virtual Status CreateDirIfMissing(const std::string& dirname) = 0;
  virtual Status GetChildren(const std::string& dirname,
                             std::vector<std::string>* result) = 0;

  /// Process-wide POSIX environment.
  static Env* Default();
};

/// Convenience: writes `data` to `fname` (truncating), syncing on close.
Status WriteStringToFile(Env* env, const Slice& data,
                         const std::string& fname);

/// Convenience: reads all of `fname` into `*data`.
Status ReadFileToString(Env* env, const std::string& fname, std::string* data);

/// Creates a fresh in-memory Env. Caller owns the result.
std::unique_ptr<Env> NewMemEnv();

}  // namespace lethe

#endif  // LETHE_ENV_ENV_H_
