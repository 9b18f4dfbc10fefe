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
  explicit RecordLogWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  /// Frames and appends one payload, without a sync.
  Status AddRecord(const Slice& payload);

  /// Appends `framed` — one or more frames laid down by AppendFrame — with
  /// a single Append, then a single Sync when `force_sync` is set, else a
  /// Flush: either way the frames reach the OS
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

  /// Bytes of the frames this writer has appended.
  uint64_t size() const { return size_; }

 private:
  std::unique_ptr<WritableFile> file_;
  uint64_t size_ = 0;
};

/// The one reader of the record log, over an in-memory copy of the file.
/// It tells *why* iteration stopped — torn tail vs interior damage — so WAL
/// replay and manifest load can forgive the first and refuse the second,
/// and it can resynchronize past damage, which DB::Repair's WAL salvage
/// uses:
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
