#include "src/memtable/write_batch.h"

namespace lethe {

void WriteBatch::Add(OpKind kind, const Slice& key, const Slice& end_key,
                     uint64_t delete_key, const Slice& value) {
  records_.push_back({rep_.size(), delete_key,
                      static_cast<uint32_t>(key.size()),
                      static_cast<uint32_t>(end_key.size()),
                      static_cast<uint32_t>(value.size()), kind});
  rep_.append(key.data(), key.size());
  rep_.append(end_key.data(), end_key.size());
  rep_.append(value.data(), value.size());
}

void WriteBatch::Put(const Slice& key, uint64_t delete_key,
                     const Slice& value) {
  Add(OpKind::kPut, key, Slice(), delete_key, value);
  approximate_bytes_ += key.size() + value.size() + 8;
}

void WriteBatch::Delete(const Slice& key) {
  Add(OpKind::kDelete, key, Slice(), 0, Slice());
  approximate_bytes_ += key.size() + 8;
}

void WriteBatch::RangeDelete(const Slice& begin_key, const Slice& end_key) {
  Add(OpKind::kRangeDelete, begin_key, end_key, 0, Slice());
  approximate_bytes_ += begin_key.size() + end_key.size();
}

void WriteBatch::Clear() {
  rep_.clear();
  records_.clear();
  approximate_bytes_ = 0;
}

WriteBatch::Op WriteBatch::op(size_t index) const {
  const OpRecord& r = records_[index];
  const char* p = rep_.data() + r.offset;
  Op op;
  op.kind = r.kind;
  op.key = Slice(p, r.key_size);
  op.end_key = Slice(p + r.key_size, r.end_key_size);
  op.delete_key = r.delete_key;
  op.value = Slice(p + r.key_size + r.end_key_size, r.value_size);
  return op;
}

}  // namespace lethe
