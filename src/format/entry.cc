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
  uint32_t key_len;
  if (!GetVarint32(input, &key_len) || input->size() < key_len) {
    return false;
  }
  entry->user_key = Slice(input->data(), key_len);
  input->remove_prefix(key_len);

  uint64_t packed;
  if (!GetFixed64(input, &packed)) {
    return false;
  }
  entry->seq = UnpackSeq(packed);
  entry->type = UnpackType(packed);
  if (entry->type != ValueType::kValue &&
      entry->type != ValueType::kTombstone) {
    return false;
  }

  if (!GetFixed64(input, &entry->delete_key)) {
    return false;
  }

  uint32_t value_len;
  if (!GetVarint32(input, &value_len) || input->size() < value_len) {
    return false;
  }
  entry->value = Slice(input->data(), value_len);
  input->remove_prefix(value_len);
  return true;
}

size_t EncodedEntrySize(const ParsedEntry& entry) {
  return VarintLength(entry.user_key.size()) + entry.user_key.size() + 8 + 8 +
         VarintLength(entry.value.size()) + entry.value.size();
}

}  // namespace lethe
