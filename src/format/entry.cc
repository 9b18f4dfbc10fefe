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
  dst = EncodeVarint64(dst + entry.user_key.size(),
                       PackSeqAndType(entry.seq, entry.type));
  dst = EncodeVarint64(dst, entry.delete_key);
  dst = EncodeVarint32(dst, static_cast<uint32_t>(entry.value.size()));
  memcpy(dst, entry.value.data(), entry.value.size());
  return dst + entry.value.size();
}

bool DecodeEntry(Slice* input, ParsedEntry* entry) {
  const char* p = input->data();
  const char* const limit = p + input->size();
  uint32_t key_len;
  p = GetVarint32Ptr(p, limit, &key_len);
  if (p == nullptr || static_cast<size_t>(limit - p) < key_len) {
    return false;
  }
  entry->user_key = Slice(p, key_len);
  uint64_t packed;
  p = GetVarint64Ptr(p + key_len, limit, &packed);
  if (p == nullptr) {
    return false;
  }
  entry->seq = UnpackSeq(packed);
  entry->type = UnpackType(packed);
  if (entry->type != ValueType::kValue &&
      entry->type != ValueType::kTombstone &&
      entry->type != ValueType::kExpiringValue) {
    return false;
  }
  p = GetVarint64Ptr(p, limit, &entry->delete_key);
  if (p == nullptr) {
    return false;
  }
  uint32_t value_len;
  p = GetVarint32Ptr(p, limit, &value_len);
  if (p == nullptr || static_cast<size_t>(limit - p) < value_len) {
    return false;
  }
  entry->value = Slice(p, value_len);
  p += value_len;
  *input = Slice(p, static_cast<size_t>(limit - p));
  return true;
}

size_t EncodedEntrySize(const ParsedEntry& entry) {
  return VarintLength(entry.user_key.size()) + entry.user_key.size() +
         VarintLength(PackSeqAndType(entry.seq, entry.type)) +
         VarintLength(entry.delete_key) + VarintLength(entry.value.size()) +
         entry.value.size();
}

}  // namespace lethe
