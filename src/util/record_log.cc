#include "src/util/record_log.h"

#include <cstring>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace lethe {

Status RecordLogWriter::AddRecord(const Slice& payload) {
  std::string framed;
  AppendFrame(&framed, payload.size(), [&](char* dst) {
    memcpy(dst, payload.data(), payload.size());
  });
  return AddFramed(framed, /*force_sync=*/false);
}

Status RecordLogWriter::AddFramed(const Slice& framed, bool force_sync,
                                  bool* appended) {
  if (appended != nullptr) {
    *appended = false;
  }
  if (framed.empty()) {
    return Status::OK();
  }
  LETHE_RETURN_IF_ERROR(file_->Append(framed));
  size_ += framed.size();
  if (appended != nullptr) {
    *appended = true;
  }
  if (force_sync) {
    return file_->Sync();
  }
  // The file may buffer appends; hand the frames to the OS so an
  // acknowledged write survives a process crash.
  return file_->Flush();
}

RecordLogScanner::Result RecordLogScanner::ParseAt(uint64_t pos, Slice* record,
                                                   uint64_t* next_pos) const {
  const uint64_t size = buffer_.size();
  if (pos >= size) {
    return Result::kEnd;
  }
  if (size - pos < 4) {
    return Result::kTornTail;  // frame header cut short
  }
  const char* base = buffer_.data();
  uint32_t masked_crc = DecodeFixed32(base + pos);
  uint64_t p = pos + 4;

  uint32_t len = 0;
  int shift = 0;
  while (true) {
    if (p >= size) {
      return Result::kTornTail;  // length varint cut short
    }
    uint8_t v = static_cast<uint8_t>(base[p++]);
    len |= static_cast<uint32_t>(v & 0x7f) << shift;
    if (!(v & 0x80)) {
      break;
    }
    shift += 7;
    if (shift > 28) {
      return Result::kCorrupt;  // over-long varint: not a valid frame
    }
  }
  if (size - p < len) {
    return Result::kTornTail;  // payload cut short
  }
  if (crc32c::Unmask(masked_crc) != crc32c::Value(base + p, len)) {
    return Result::kCorrupt;
  }
  *record = Slice(base + p, len);
  *next_pos = p + len;
  return Result::kRecord;
}

RecordLogScanner::Result RecordLogScanner::Next(Slice* record) {
  uint64_t next_pos = pos_;
  Result r = ParseAt(pos_, record, &next_pos);
  if (r == Result::kRecord) {
    pos_ = next_pos;
  }
  return r;
}

uint64_t RecordLogScanner::Resync() {
  const uint64_t start = pos_;
  Slice record;
  uint64_t next_pos = 0;
  while (pos_ < buffer_.size() &&
         ParseAt(pos_, &record, &next_pos) != Result::kRecord) {
    pos_++;
  }
  if (pos_ >= buffer_.size()) {
    pos_ = buffer_.size();
  }
  return pos_ - start;
}

}  // namespace lethe
