#ifndef LETHE_UTIL_RECORD_LOG_H_
#define LETHE_UTIL_RECORD_LOG_H_

#include <memory>
#include <string>

#include "src/env/env.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {

// CRC-framed append-only record log, shared by the WAL and the MANIFEST:
//   fixed32 masked_crc(payload) | varint32 len | payload

/// Appends one frame to *dst; the only writer of the frame layout.
/// `encode(char* payload)` writes exactly `len` payload bytes in place, so a
/// caller that knows its payload size frames it without a staging copy.
template <typename Encode>
void AppendFrame(std::string* dst, size_t len, Encode&& encode) {
  const size_t start = dst->size();
  dst->resize(start + 4 + VarintLength(len) + len);
  char* header = dst->data() + start;
  char* payload = EncodeVarint32(header + 4, static_cast<uint32_t>(len));
  encode(payload);
  EncodeFixed32(header, crc32c::Mask(crc32c::Value(payload, len)));
}

class RecordLogWriter {
 public:
  RecordLogWriter(std::unique_ptr<WritableFile> file, bool sync_on_write)
      : file_(std::move(file)), sync_(sync_on_write) {}

  /// Frames and appends one payload (then syncs in sync mode).
  Status AddRecord(const Slice& payload);

  /// Appends `framed` — one or more frames laid down by AppendFrame — with
  /// a single Append, then a single Sync when `force_sync` or the writer's
  /// sync mode is set, else a Flush: either way the frames reach the OS
  /// before the call returns, so they survive a process crash. This is the
  /// group-commit path: the bytes are those of one AddRecord per frame.
  ///
  /// `appended` (optional) reports whether any bytes may have reached the
  /// file: set true once the Append succeeds, so a subsequent Flush or Sync
  /// failure still reports appended=true. Callers that allocate sequence numbers
  /// before logging use this to decide whether the numbers must be burned
  /// (bytes on disk could replay) or may be reused (nothing was written).
  Status AddFramed(const Slice& framed, bool force_sync,
                   bool* appended = nullptr);

  Status Sync() { return file_->Sync(); }
  Status Close() { return file_->Close(); }

 private:
  std::unique_ptr<WritableFile> file_;
  bool sync_;
};

/// Reads records written by RecordLogWriter. A torn tail (truncated frame or
/// bad checksum at end-of-file, as a crash leaves behind) ends iteration;
/// `status` distinguishes clean EOF (OK) from detected damage (Corruption).
class RecordLogReader {
 public:
  explicit RecordLogReader(std::unique_ptr<SequentialFile> file)
      : file_(std::move(file)) {}

  /// Returns true and fills `*record` on success; false at end of log.
  bool ReadRecord(std::string* record, Status* status);

 private:
  std::unique_ptr<SequentialFile> file_;
};

/// Frame-level scanner over an in-memory copy of a record log. Unlike
/// RecordLogReader it distinguishes *why* iteration stopped — torn tail vs
/// interior checksum damage — and can resynchronize past damage, which is
/// what Options::wal_recovery_mode needs:
///   kRecord   — `*record` points at a CRC-verified payload (into the buffer)
///   kEnd      — clean end of buffer
///   kTornTail — a truncated final frame (header, length, or payload cut
///               short), as a crash leaves behind
///   kCorrupt  — a complete frame whose checksum does not match
/// After kTornTail or kCorrupt the scanner stays positioned at the bad
/// frame; Resync() advances byte-by-byte until a fully CRC-valid frame
/// starts (or the buffer ends) and returns how many bytes were skipped.
class RecordLogScanner {
 public:
  enum class Result { kRecord, kEnd, kTornTail, kCorrupt };

  explicit RecordLogScanner(Slice buffer) : buffer_(buffer) {}

  Result Next(Slice* record);

  /// Skips past damage to the next byte offset where a complete, CRC-valid
  /// frame begins. Returns the number of bytes skipped (0 if already at a
  /// valid frame or at end).
  uint64_t Resync();

  /// Byte offset of the next frame to be scanned.
  uint64_t offset() const { return pos_; }

 private:
  /// Tries to parse one frame at `pos`; on kRecord fills `*record` and
  /// `*next_pos`.
  Result ParseAt(uint64_t pos, Slice* record, uint64_t* next_pos) const;

  Slice buffer_;
  uint64_t pos_ = 0;
};

}  // namespace lethe

#endif  // LETHE_UTIL_RECORD_LOG_H_
