#include "src/memtable/wal.h"

#include <vector>

#include "src/util/coding.h"

namespace lethe {

void EncodeWalRecord(const WalRecord& record, std::string* dst) {
  dst->push_back(static_cast<char>(record.kind));
  PutFixed64(dst, record.seq);
  PutFixed64(dst, record.time);
  PutLengthPrefixedSlice(dst, record.key);
  PutLengthPrefixedSlice(dst, record.end_key);
  PutFixed64(dst, record.delete_key);
  PutLengthPrefixedSlice(dst, record.value);
  if (record.kind == WalRecord::Kind::kSecondaryRangeDelete) {
    // Appended only for this kind: the classic record kinds stay
    // byte-identical to their original encoding.
    PutFixed64(dst, record.delete_key_end);
  }
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

Status WalWriter::AddRecord(const WalRecord& record) {
  std::string payload;
  EncodeWalRecord(record, &payload);
  return log_.AddRecord(payload);
}

Status WalWriter::AddRecords(const WalRecord* records, size_t n, bool sync,
                             bool* appended) {
  std::vector<std::string> payloads(n);
  std::vector<Slice> slices(n);
  for (size_t i = 0; i < n; i++) {
    EncodeWalRecord(records[i], &payloads[i]);
    slices[i] = Slice(payloads[i]);
  }
  return log_.AddRecords(slices.data(), n, sync, appended);
}

bool WalReader::ReadRecord(WalRecord* record, Status* status) {
  if (!log_.ReadRecord(&buffer_, status)) {
    return false;
  }
  if (!DecodeWalRecord(Slice(buffer_), record)) {
    *status = Status::Corruption("WAL record malformed");
    return false;
  }
  return true;
}

}  // namespace lethe
