#include "src/memtable/wal.h"

#include <cstring>

#include "src/util/coding.h"

namespace lethe {

namespace {

using Kind = WalOp::Kind;

size_t LengthPrefixedSize(const Slice& value) {
  return VarintLength(value.size()) + value.size();
}

char* EncodeLengthPrefixed(char* dst, const Slice& value) {
  dst = EncodeVarint32(dst, static_cast<uint32_t>(value.size()));
  memcpy(dst, value.data(), value.size());
  return dst + value.size();
}

bool HasValue(Kind kind) {
  return kind == Kind::kPut || kind == Kind::kPutExpiring;
}

size_t EncodedOpSize(const WalOp& op) {
  size_t size = 1 + LengthPrefixedSize(op.key) + VarintLength(op.delete_key);
  switch (op.kind) {
    case Kind::kPut:
    case Kind::kPutExpiring:
      size += LengthPrefixedSize(op.value);
      break;
    case Kind::kRangeDelete:
      size += LengthPrefixedSize(op.end_key);
      break;
    case Kind::kSecondaryRangeDelete:
      size += VarintLength(op.delete_key_end);
      break;
    case Kind::kDelete:
      break;
  }
  return size;
}

char* EncodeOp(const WalOp& op, char* dst) {
  *dst++ = static_cast<char>(op.kind);
  dst = EncodeLengthPrefixed(dst, op.key);
  if (op.kind == Kind::kRangeDelete) {
    dst = EncodeLengthPrefixed(dst, op.end_key);
  }
  dst = EncodeVarint64(dst, op.delete_key);
  if (HasValue(op.kind)) {
    dst = EncodeLengthPrefixed(dst, op.value);
  }
  if (op.kind == Kind::kSecondaryRangeDelete) {
    dst = EncodeVarint64(dst, op.delete_key_end);
  }
  return dst;
}

/// Decodes one op from the front of *input into *op, which is fresh: the
/// fields its kind does not log keep their defaults.
bool DecodeOp(Slice* input, WalOp* op) {
  if (input->empty()) {
    return false;
  }
  const uint8_t kind = static_cast<uint8_t>((*input)[0]);
  if (kind < 1 || kind > 5) {
    return false;
  }
  input->remove_prefix(1);
  op->kind = static_cast<Kind>(kind);
  return GetLengthPrefixedSlice(input, &op->key) &&
         (op->kind != Kind::kRangeDelete ||
          GetLengthPrefixedSlice(input, &op->end_key)) &&
         GetVarint64(input, &op->delete_key) &&
         (!HasValue(op->kind) || GetLengthPrefixedSlice(input, &op->value)) &&
         (op->kind != Kind::kSecondaryRangeDelete ||
          GetVarint64(input, &op->delete_key_end));
}

}  // namespace

void AppendWalGroup(const WalGroup& group, std::string* framed) {
  size_t len = VarintLength(group.first_seq) + VarintLength(group.time);
  for (const WalOp& op : group.ops) {
    len += EncodedOpSize(op);
  }
  AppendFrame(framed, len, [&](char* p) {
    p = EncodeVarint64(p, group.first_seq);
    p = EncodeVarint64(p, group.time);
    for (const WalOp& op : group.ops) {
      p = EncodeOp(op, p);
    }
  });
}

bool DecodeWalGroup(Slice payload, WalGroup* group) {
  group->ops.clear();
  if (!GetVarint64(&payload, &group->first_seq) ||
      !GetVarint64(&payload, &group->time)) {
    return false;
  }
  while (!payload.empty()) {
    if (!DecodeOp(&payload, &group->ops.emplace_back())) {
      return false;
    }
  }
  // Every op takes a sequence in [1, kMaxSequenceNumber].
  return !group->ops.empty() && group->first_seq != 0 &&
         group->first_seq <= kMaxSequenceNumber &&
         group->ops.size() - 1 <= kMaxSequenceNumber - group->first_seq;
}

}  // namespace lethe
