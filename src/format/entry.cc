#include "src/format/entry.h"

#include <cstring>

#include "src/util/coding.h"

namespace lethe {

void EncodeEntry(const ParsedEntry& entry, std::string* dst) {
  const size_t start = dst->size();
  dst->resize(start + EncodedEntrySize(entry));
  EncodeEntry(entry, dst->data() + start);
}

char* EncodeEntry(const ParsedEntry& entry, char* dst) {
  dst = EncodeVarint32(dst, static_cast<uint32_t>(entry.user_key.size()));
  memcpy(dst, entry.user_key.data(), entry.user_key.size());
  dst += entry.user_key.size();
  EncodeFixed64(dst, PackSeqAndType(entry.seq, entry.type));
  EncodeFixed64(dst + 8, entry.delete_key);
  dst = EncodeVarint32(dst + 16, static_cast<uint32_t>(entry.value.size()));
  memcpy(dst, entry.value.data(), entry.value.size());
  return dst + entry.value.size();
}

bool DecodeEntry(Slice* input, ParsedEntry* entry) {
  const char* p = input->data();
  const char* const limit = p + input->size();
  uint32_t key_len;
  p = GetVarint32Ptr(p, limit, &key_len);
  // The key, then the fixed64 (seq, type) and fixed64 delete key.
  if (p == nullptr || static_cast<size_t>(limit - p) < size_t{key_len} + 16) {
    return false;
  }
  entry->user_key = Slice(p, key_len);
  p += key_len;
  const uint64_t packed = DecodeFixed64(p);
  entry->seq = UnpackSeq(packed);
  entry->type = UnpackType(packed);
  if (entry->type != ValueType::kValue &&
      entry->type != ValueType::kTombstone) {
    return false;
  }
  entry->delete_key = DecodeFixed64(p + 8);

  uint32_t value_len;
  p = GetVarint32Ptr(p + 16, limit, &value_len);
  if (p == nullptr || static_cast<size_t>(limit - p) < value_len) {
    return false;
  }
  entry->value = Slice(p, value_len);
  p += value_len;
  *input = Slice(p, static_cast<size_t>(limit - p));
  return true;
}

size_t EncodedEntrySize(const ParsedEntry& entry) {
  return VarintLength(entry.user_key.size()) + entry.user_key.size() + 8 + 8 +
         VarintLength(entry.value.size()) + entry.value.size();
}

}  // namespace lethe
