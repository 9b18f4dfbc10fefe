#include "src/util/record_log.h"

#include <algorithm>
#include <cstring>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace lethe {

namespace {

// Payload bytes RecordLogReader reads (and allocates) per step.
constexpr size_t kReadChunk = 64 << 10;

}  // namespace

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
  if (appended != nullptr) {
    *appended = true;
  }
  if (sync_ || force_sync) {
    return file_->Sync();
  }
  // The file may buffer appends; hand the frames to the OS so an
  // acknowledged write survives a process crash.
  return file_->Flush();
}

bool RecordLogReader::ReadRecord(std::string* record, Status* status) {
  *status = Status::OK();

  char header_scratch[4];
  Slice header;
  Status s = file_->Read(4, &header, header_scratch);
  if (!s.ok()) {
    *status = s;
    return false;
  }
  if (header.size() < 4) {
    return false;  // clean EOF or torn frame header
  }
  uint32_t masked_crc = DecodeFixed32(header.data());

  uint32_t len = 0;
  int shift = 0;
  while (true) {
    Slice byte;
    char b;
    s = file_->Read(1, &byte, &b);
    if (!s.ok() || byte.empty() || shift > 28) {
      return false;  // torn tail
    }
    uint8_t v = static_cast<uint8_t>(byte[0]);
    len |= static_cast<uint32_t>(v & 0x7f) << shift;
    if (!(v & 0x80)) {
      break;
    }
    shift += 7;
  }

  // Grow the record only as payload arrives: a damaged length can claim up
  // to 4 GiB, and sizing the buffer from it before reading would allocate
  // that much for a log that ends a few bytes later.
  record->clear();
  while (record->size() < len) {
    const size_t have = record->size();
    const size_t want = std::min<size_t>(kReadChunk, len - have);
    record->resize(have + want);
    Slice data;
    s = file_->Read(want, &data, record->data() + have);
    if (!s.ok()) {
      *status = s;
      return false;
    }
    if (data.data() != record->data() + have) {
      memcpy(record->data() + have, data.data(), data.size());
    }
    if (data.size() < want) {
      return false;  // torn tail
    }
  }
  if (crc32c::Unmask(masked_crc) !=
      crc32c::Value(record->data(), record->size())) {
    *status = Status::Corruption("record log checksum mismatch");
    return false;
  }
  return true;
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
