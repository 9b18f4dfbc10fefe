#include "src/memtable/memtable.h"

#include <algorithm>
#include <cstring>

#include "src/format/file_meta.h"
#include "src/util/coding.h"

namespace lethe {

namespace {

constexpr uint8_t kLive = 1;
constexpr uint8_t kPurged = 0;

// A record is the live flag, then the entry in a fixed-width layout of its
// own (not a page's varint one, see entry.h):
//   flag | varint32 key_len | key | fixed64 (seq<<8 | type) |
//   fixed64 delete_key | varint32 value_len | value
// The comparator finds seq at a fixed offset past the key, and the arena
// bytes these records take decide when a buffer is full.

/// Bytes EncodeRecord writes for `entry`.
size_t RecordSize(const ParsedEntry& entry) {
  return 1 + VarintLength(entry.user_key.size()) + entry.user_key.size() +
         16 + VarintLength(entry.value.size()) + entry.value.size();
}

/// Writes entry's record to dst[0, RecordSize(entry)).
void EncodeRecord(const ParsedEntry& entry, char* dst) {
  *dst++ = static_cast<char>(kLive);
  dst = EncodeVarint32(dst, static_cast<uint32_t>(entry.user_key.size()));
  memcpy(dst, entry.user_key.data(), entry.user_key.size());
  dst += entry.user_key.size();
  EncodeFixed64(dst, PackSeqAndType(entry.seq, entry.type));
  EncodeFixed64(dst + 8, entry.delete_key);
  dst = EncodeVarint32(dst + 16, static_cast<uint32_t>(entry.value.size()));
  memcpy(dst, entry.value.data(), entry.value.size());
}

/// Decodes a record (EncodeRecord wrote it, so it is well-formed) without
/// copying: the slices alias the arena.
void DecodeRecord(const char* record, ParsedEntry* entry) {
  uint32_t len;
  const char* p = GetVarint32Ptr(record + 1, record + 6, &len);
  entry->user_key = Slice(p, len);
  p += len;
  const uint64_t packed = DecodeFixed64(p);
  entry->seq = UnpackSeq(packed);
  entry->type = UnpackType(packed);
  entry->delete_key = DecodeFixed64(p + 8);
  p = GetVarint32Ptr(p + 16, p + 21, &len);
  entry->value = Slice(p, len);
}

inline bool IsLive(const char* record) {
  return std::atomic_ref<const uint8_t>(
             *reinterpret_cast<const uint8_t*>(record))
             .load(std::memory_order_acquire) == kLive;
}

inline void MarkPurged(char* record) {
  std::atomic_ref<uint8_t>(*reinterpret_cast<uint8_t*>(record))
      .store(kPurged, std::memory_order_release);
}

/// The internal key of a record: its user key, returned, and its seq. Reads
/// the key length, the key and the (seq, type) trailer, nothing after.
inline Slice RecordKey(const char* record, SequenceNumber* seq) {
  uint32_t key_len;
  const char* p = GetVarint32Ptr(record + 1, record + 6, &key_len);
  *seq = UnpackSeq(DecodeFixed64(p + key_len));
  return Slice(p, key_len);
}

/// Bytes of the seek target EncodeProbe writes for `user_key`.
size_t ProbeSize(const Slice& user_key) {
  return 1 + VarintLength(user_key.size()) + user_key.size() + 8;
}

/// A seek target: flag | key length | key | (seq, type) trailer — the part
/// of a record KeyComparator reads. Writes dst[0, ProbeSize(user_key)).
void EncodeProbe(const Slice& user_key, SequenceNumber seq, char* dst) {
  *dst++ = static_cast<char>(kLive);
  dst = EncodeVarint32(dst, static_cast<uint32_t>(user_key.size()));
  memcpy(dst, user_key.data(), user_key.size());
  EncodeFixed64(dst + user_key.size(), PackSeqAndType(seq, ValueType::kValue));
}

void EncodeProbe(const Slice& user_key, SequenceNumber seq, std::string* dst) {
  dst->resize(ProbeSize(user_key));
  EncodeProbe(user_key, seq, dst->data());
}

}  // namespace

int MemTable::KeyComparator::operator()(const char* a, const char* b) const {
  // Both records are well-formed (we encoded them): compare internal keys
  // without decoding the delete key or the value.
  SequenceNumber seq_a, seq_b;
  const Slice key_a = RecordKey(a, &seq_a);
  const Slice key_b = RecordKey(b, &seq_b);
  return CompareInternal(key_a, seq_a, key_b, seq_b);
}

MemTable::MemTable()
    : table_(comparator_, &arena_),
      rts_(std::make_shared<BufferedRangeTombstones>()),
      oldest_tombstone_time_(kNoTombstoneTime) {}

namespace {
/// Relaxed-min update for the oldest-tombstone clock (single writer, but
/// readers poll concurrently).
void AtomicMin(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_release)) {
  }
}
}  // namespace

bool MemTable::Add(SequenceNumber seq, ValueType type, const Slice& user_key,
                   uint64_t delete_key, const Slice& value, uint64_t time) {
  ParsedEntry entry;
  entry.user_key = user_key;
  entry.delete_key = delete_key;
  entry.seq = seq;
  entry.type = type;
  entry.value = value;

  // Encoded once, in place in the arena.
  char* record = arena_.Allocate(RecordSize(entry));
  EncodeRecord(entry, record);
  const bool at_tail = table_.Insert(record);
  num_entries_.fetch_add(1, std::memory_order_release);
  if (type == ValueType::kTombstone) {
    num_point_tombstones_.fetch_add(1, std::memory_order_release);
    AtomicMin(&oldest_tombstone_time_, time);
  }
  return at_tail;
}

void BufferedRangeTombstones::AppendTo(
    std::vector<RangeTombstone>* out) const {
  out->reserve(out->size() + size());
  // The chain links newest-first; flush order is insertion order, so walk
  // it once to collect and emit oldest-first.
  std::vector<const RtChunk*> chunks;
  for (const RtChunk* c = sealed.get(); c != nullptr; c = c->prev.get()) {
    chunks.push_back(c);
  }
  for (auto it = chunks.rbegin(); it != chunks.rend(); ++it) {
    out->insert(out->end(), (*it)->list.begin(), (*it)->list.end());
  }
  out->insert(out->end(), active.begin(), active.end());
}

std::vector<RangeTombstone> BufferedRangeTombstones::ToVector() const {
  std::vector<RangeTombstone> out;
  AppendTo(&out);
  return out;
}

bool BufferedRangeTombstones::Covers(const Slice& user_key,
                                     SequenceNumber seq,
                                     SequenceNumber max_seq) const {
  for (const RtChunk* c = sealed.get(); c != nullptr; c = c->prev.get()) {
    if (c->fragmented.Covers(user_key, seq, max_seq)) {
      return true;
    }
  }
  for (const RangeTombstone& t : active) {
    if (t.Contains(user_key) && t.seq > seq && t.seq <= max_seq) {
      return true;
    }
  }
  return false;
}

SequenceNumber BufferedRangeTombstones::MaxCoverSeq(
    const Slice& user_key, SequenceNumber max_seq) const {
  SequenceNumber cover = 0;
  for (const RtChunk* c = sealed.get(); c != nullptr; c = c->prev.get()) {
    cover = std::max(cover, c->fragmented.MaxCoverSeq(user_key, max_seq));
  }
  for (const RangeTombstone& t : active) {
    if (t.Contains(user_key) && t.seq <= max_seq) {
      cover = std::max(cover, t.seq);
    }
  }
  return cover;
}

void MemTable::AddRangeTombstone(const RangeTombstone& tombstone) {
  // Copy-on-write publish: the token holder is the only writer, but readers
  // hold snapshots of the previous state, which must stay intact. Only the
  // active chunk (< kRtChunkSize entries) is copied; sealed chunks travel
  // by shared pointer, so the publish cost no longer grows with the number
  // of buffered tombstones.
  auto cur = range_tombstones();
  auto next = std::make_shared<BufferedRangeTombstones>();
  next->sealed = cur->sealed;
  next->sealed_count = cur->sealed_count;
  next->active = cur->active;
  next->active.push_back(tombstone);
  size_t sealed_charge = 0;
  if (next->active.size() >= BufferedRangeTombstones::kRtChunkSize) {
    // Seal: fragment the chunk once, then share it forever. The new chunk
    // is prepended to the immutable chain with one pointer link, so the
    // seal itself is O(1) regardless of how many chunks exist.
    auto chunk = std::make_shared<RtChunk>();
    chunk->list = std::move(next->active);
    chunk->fragmented = FragmentedRangeTombstoneList(chunk->list);
    chunk->prev = std::move(next->sealed);
    sealed_charge = chunk->fragmented.ApproximateMemoryUsage();
    next->sealed_count += BufferedRangeTombstones::kRtChunkSize;
    next->sealed = std::move(chunk);
    next->active.clear();
  }
  {
    std::lock_guard<std::mutex> lock(rts_mu_);
    rts_ = std::move(next);
  }
  num_range_tombstones_.fetch_add(1, std::memory_order_release);
  // Logical charge (keys + fixed fields, plus each sealed chunk's
  // fragmented index), not the transient publish-copy cost: it is what the
  // buffered state actually retains until the flush.
  rts_bytes_.fetch_add(tombstone.begin_key.size() + tombstone.end_key.size() +
                           sizeof(RangeTombstone) + sealed_charge,
                       std::memory_order_release);
  AtomicMin(&oldest_tombstone_time_, tombstone.time);
}

bool MemTable::Get(const Slice& user_key, ParsedEntry* entry,
                   SequenceNumber max_seq) const {
  // Seek to the first record with this user key and seq <= max_seq; records
  // for the same key are ordered newest-first. The probe is built on the
  // stack unless the key is too long for it.
  char stack_probe[128];
  std::string heap_probe;
  char* probe = stack_probe;
  if (ProbeSize(user_key) > sizeof(stack_probe)) {
    heap_probe.resize(ProbeSize(user_key));
    probe = heap_probe.data();
  }
  EncodeProbe(user_key, max_seq, probe);

  SkipList<KeyComparator>::Iterator it(&table_);
  it.Seek(probe);
  while (it.Valid()) {
    ParsedEntry candidate;
    DecodeRecord(it.key(), &candidate);
    if (candidate.user_key != user_key) {
      return false;
    }
    if (IsLive(it.key())) {
      *entry = candidate;
      return true;
    }
    it.Next();  // newest version purged by a secondary delete; try older
  }
  return false;
}

uint64_t MemTable::PurgeDeleteKeyRange(uint64_t lo, uint64_t hi) {
  uint64_t purged = 0;
  SkipList<KeyComparator>::Iterator it(&table_);
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    ParsedEntry entry;
    DecodeRecord(it.key(), &entry);
    if (entry.delete_key >= lo && entry.delete_key < hi && IsLive(it.key())) {
      MarkPurged(const_cast<char*>(it.key()));
      purged++;
    }
  }
  num_purged_.fetch_add(purged, std::memory_order_release);
  return purged;
}

bool MemTable::KeySpan(std::string* smallest, std::string* largest) const {
  SkipList<KeyComparator>::Iterator it(&table_);
  const char* first = nullptr;
  const char* last = nullptr;
  if (num_purged_.load(std::memory_order_acquire) == 0) {
    it.SeekToFirst();
    first = it.Valid() ? it.key() : nullptr;
    it.SeekToLast();
    last = it.Valid() ? it.key() : nullptr;
  } else {
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      if (!IsLive(it.key())) {
        continue;
      }
      if (first == nullptr) {
        first = it.key();
      }
      last = it.key();
    }
  }
  if (first == nullptr || last == nullptr) {
    return false;
  }
  SequenceNumber seq;
  const Slice first_key = RecordKey(first, &seq);
  const Slice last_key = RecordKey(last, &seq);
  smallest->assign(first_key.data(), first_key.size());
  largest->assign(last_key.data(), last_key.size());
  return true;
}

void MemTable::Freeze() {
  has_span_ = KeySpan(&smallest_, &largest_);
  auto widen = [&](const RangeTombstone& rt) {
    if (!has_span_ || Slice(rt.begin_key).compare(Slice(smallest_)) < 0) {
      smallest_ = rt.begin_key;
    }
    if (!has_span_ || Slice(rt.end_key).compare(Slice(largest_)) > 0) {
      largest_ = rt.end_key;
    }
    has_span_ = true;
  };
  const std::shared_ptr<const BufferedRangeTombstones> rts =
      range_tombstones();
  for (const RtChunk* c = rts->sealed.get(); c != nullptr; c = c->prev.get()) {
    for (const RangeTombstone& rt : c->list) {
      widen(rt);
    }
  }
  for (const RangeTombstone& rt : rts->active) {
    widen(rt);
  }
}

// Named (not anonymous-namespace) so the friend declaration in MemTable
// grants it access to the private KeyComparator type.
class MemTableIterator final : public InternalIterator {
 public:
  MemTableIterator(const SkipList<MemTable::KeyComparator>* table)
      : iter_(table) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    iter_.SeekToFirst();
    SkipDead();
  }

  void Seek(const Slice& target) override {
    EncodeProbe(target, kMaxSequenceNumber, &encoded_probe_);
    iter_.Seek(encoded_probe_.data());
    SkipDead();
  }

  void Next() override {
    iter_.Next();
    SkipDead();
  }

  const ParsedEntry& entry() const override { return entry_; }

  Status status() const override { return Status::OK(); }

 private:
  void SkipDead() {
    valid_ = false;
    while (iter_.Valid()) {
      if (IsLive(iter_.key())) {
        DecodeRecord(iter_.key(), &entry_);
        valid_ = true;
        return;
      }
      iter_.Next();
    }
  }

  SkipList<MemTable::KeyComparator>::Iterator iter_;
  ParsedEntry entry_;
  bool valid_ = false;
  std::string encoded_probe_;
};

std::unique_ptr<InternalIterator> MemTable::NewIterator() const {
  return std::make_unique<MemTableIterator>(&table_);
}

}  // namespace lethe
