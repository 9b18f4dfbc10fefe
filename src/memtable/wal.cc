#include "src/memtable/wal.h"

#include <cstring>

#include "src/util/coding.h"

namespace lethe {

namespace {

char* EncodeLengthPrefixed(char* dst, const Slice& value) {
  dst = EncodeVarint32(dst, static_cast<uint32_t>(value.size()));
  memcpy(dst, value.data(), value.size());
  return dst + value.size();
}

}  // namespace

void AppendWalRecord(const WalRecordView& record, std::string* framed) {
  // kind | fixed64 seq | fixed64 time | key | end_key | fixed64 delete_key |
  // value, the three slices length-prefixed; kind 4 then appends fixed64
  // delete_key_end. Only that kind carries the trailer, so the classic
  // record kinds stay byte-identical to their original encoding.
  const bool has_end =
      record.kind == WalRecord::Kind::kSecondaryRangeDelete;
  const size_t len = 1 + 8 + 8 + VarintLength(record.key.size()) +
                     record.key.size() + VarintLength(record.end_key.size()) +
                     record.end_key.size() + 8 +
                     VarintLength(record.value.size()) + record.value.size() +
                     (has_end ? 8 : 0);
  AppendFrame(framed, len, [&](char* p) {
    *p++ = static_cast<char>(record.kind);
    EncodeFixed64(p, record.seq);
    EncodeFixed64(p + 8, record.time);
    p = EncodeLengthPrefixed(p + 16, record.key);
    p = EncodeLengthPrefixed(p, record.end_key);
    EncodeFixed64(p, record.delete_key);
    p = EncodeLengthPrefixed(p + 8, record.value);
    if (has_end) {
      EncodeFixed64(p, record.delete_key_end);
    }
  });
}

bool DecodeWalRecord(Slice input, WalRecord* record) {
  if (input.empty()) {
    return false;
  }
  uint8_t kind = static_cast<uint8_t>(input[0]);
  input.remove_prefix(1);
  if (kind < 1 || kind > 4) {
    return false;
  }
  record->kind = static_cast<WalRecord::Kind>(kind);
  Slice key, end_key, value;
  if (!GetFixed64(&input, &record->seq) || !GetFixed64(&input, &record->time) ||
      !GetLengthPrefixedSlice(&input, &key) ||
      !GetLengthPrefixedSlice(&input, &end_key) ||
      !GetFixed64(&input, &record->delete_key) ||
      !GetLengthPrefixedSlice(&input, &value)) {
    return false;
  }
  if (record->kind == WalRecord::Kind::kSecondaryRangeDelete &&
      !GetFixed64(&input, &record->delete_key_end)) {
    return false;
  }
  record->key = key.ToString();
  record->end_key = end_key.ToString();
  record->value = value.ToString();
  return true;
}

}  // namespace lethe
