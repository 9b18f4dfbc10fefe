#include "src/lsm/read_path.h"

#include <algorithm>

#include "src/lsm/merging_iterator.h"

namespace lethe {

namespace {

class RunIterator final : public InternalIterator {
 public:
  RunIterator(TableCache* cache, std::vector<std::shared_ptr<FileMeta>> files,
              bool fill_cache)
      : cache_(cache), files_(std::move(files)), fill_cache_(fill_cache) {}

  bool Valid() const override {
    return status_.ok() && file_iter_ != nullptr && file_iter_->Valid();
  }

  void SeekToFirst() override {
    file_index_ = -1;
    file_iter_.reset();
    AdvanceFile(/*seek_target=*/nullptr);
  }

  void Seek(const Slice& target) override {
    // Start from the first file with largest_key >= target.
    const auto first = std::partition_point(
        files_.begin(), files_.end(), [&](const auto& file) {
          return Slice(file->largest_key).compare(target) < 0;
        });
    file_index_ = static_cast<int>(first - files_.begin()) - 1;
    file_iter_.reset();
    AdvanceFile(&target);
  }

  void Next() override {
    file_iter_->Next();
    if (!file_iter_->Valid() && file_iter_->status().ok()) {
      AdvanceFile(nullptr);
    }
  }

  const ParsedEntry& entry() const override { return file_iter_->entry(); }

  Status status() const override {
    if (!status_.ok()) {
      return status_;
    }
    return file_iter_ != nullptr ? file_iter_->status() : Status::OK();
  }

 private:
  void AdvanceFile(const Slice* seek_target) {
    while (true) {
      file_index_++;
      if (file_index_ >= static_cast<int>(files_.size())) {
        file_iter_.reset();
        return;
      }
      std::shared_ptr<SSTableReader> table;
      Status s = cache_->GetTable(*files_[file_index_], &table);
      if (!s.ok()) {
        status_ = s;
        file_iter_.reset();
        return;
      }
      table_ = table;  // keep reader alive
      file_iter_ =
          table->NewIterator(files_[file_index_].get(), fill_cache_);
      if (seek_target != nullptr) {
        file_iter_->Seek(*seek_target);
        seek_target = nullptr;  // later files start from their beginning
      } else {
        file_iter_->SeekToFirst();
      }
      if (file_iter_->Valid() || !file_iter_->status().ok()) {
        return;
      }
      // Fully-dropped or tombstone-only file: move on.
    }
  }

  TableCache* cache_;
  std::vector<std::shared_ptr<FileMeta>> files_;
  bool fill_cache_;
  int file_index_ = -1;
  std::shared_ptr<SSTableReader> table_;
  std::unique_ptr<InternalIterator> file_iter_;
  Status status_;
};

/// User-facing iterator: filters superseded versions, tombstones, and
/// range-tombstone-covered entries out of the merged internal stream.
class DBIter final : public Iterator {
 public:
  /// `setup_status`, when not OK, poisons the iterator: the tombstone set
  /// could not be assembled completely (a table or its metadata failed to
  /// load), and iterating anyway could resurrect range-deleted keys.
  /// `snap` pins the sources and the point in time: entries (and range
  /// tombstones) with seq > snap.bound are invisible, so writes committed
  /// after creation can never leak into an open scan.
  /// The collected tombstones of every source become one fragmented index,
  /// so each skipped entry costs one O(log F) cover probe.
  DBIter(ReadSnapshot snap, std::unique_ptr<InternalIterator> internal,
         const std::vector<RangeTombstone>& rts, Statistics* stats,
         Status setup_status)
      : snap_(std::move(snap)),
        internal_(std::move(internal)),
        rts_(rts),
        stats_(stats),
        setup_status_(std::move(setup_status)) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override { SeekTo(nullptr); }
  void Seek(const Slice& target) override { SeekTo(&target); }

  void Next() override {
    internal_->Next();
    FindNextLiveEntry();
  }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return Slice(value_); }
  uint64_t delete_key() const override { return delete_key_; }
  Status status() const override {
    return setup_status_.ok() ? internal_->status() : setup_status_;
  }

 private:
  /// Positions at the first live entry at or after `target` (null: the
  /// first of all).
  void SeekTo(const Slice* target) {
    if (!setup_status_.ok()) {
      return;
    }
    stats_->range_lookups.fetch_add(1, std::memory_order_relaxed);
    if (target != nullptr) {
      internal_->Seek(*target);
    } else {
      internal_->SeekToFirst();
    }
    last_key_.clear();
    has_last_key_ = false;
    FindNextLiveEntry();
  }

  void FindNextLiveEntry() {
    valid_ = false;
    while (internal_->Valid()) {
      const ParsedEntry& entry = internal_->entry();
      if (entry.seq > snap_.bound) {
        internal_->Next();  // committed after this scan's snapshot
        continue;
      }
      if (has_last_key_ && entry.user_key == Slice(last_key_)) {
        internal_->Next();  // older version of an already-decided key
        continue;
      }
      last_key_ = entry.user_key.ToString();
      has_last_key_ = true;
      if (entry.IsTombstone() || RtCovers(entry.user_key, entry.seq)) {
        internal_->Next();  // deleted key: skip all its versions
        continue;
      }
      key_ = last_key_;
      value_ = entry.value.ToString();
      delete_key_ = entry.delete_key;
      valid_ = true;
      return;
    }
  }

  bool RtCovers(const Slice& user_key, SequenceNumber seq) {
    stats_->rt_cover_probes.fetch_add(1, std::memory_order_relaxed);
    return rts_.Covers(user_key, seq, snap_.bound);
  }

  ReadSnapshot snap_;  // pins the memtables and the file set
  std::unique_ptr<InternalIterator> internal_;
  FragmentedRangeTombstoneList rts_;
  Statistics* stats_;
  Status setup_status_;

  bool valid_ = false;
  std::string last_key_;
  bool has_last_key_ = false;
  std::string key_;
  std::string value_;
  uint64_t delete_key_ = 0;
};

/// Calls `fn(file)` for every table that may hold `key`, newest source
/// first: levels top-down, runs newest first, and within a run the file
/// whose fences contain the key (plus any successor sharing that boundary
/// key). Stops as soon as `fn` returns true and reports whether it did.
/// The one candidate-file iteration behind every point probe.
template <typename Fn>
bool ForEachCandidateFile(const Version& version, const Slice& key, Fn&& fn) {
  for (int level = 0; level < version.num_levels(); level++) {
    const auto& runs = version.levels()[level];
    for (auto run = runs.rbegin(); run != runs.rend(); ++run) {
      const int idx = run->FindFile(key);
      if (idx < 0) {
        continue;
      }
      for (size_t i = idx; i < run->files.size() &&
                           Slice(run->files[i]->smallest_key).compare(key) <= 0;
           i++) {
        if (fn(run->files[i])) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

std::unique_ptr<InternalIterator> NewRunIterator(
    TableCache* tables, std::vector<std::shared_ptr<FileMeta>> files,
    bool fill_cache) {
  return std::make_unique<RunIterator>(tables, std::move(files), fill_cache);
}

Status AppendRangeTombstones(TableCache* tables, const FileMeta& file,
                             std::vector<RangeTombstone>* rts) {
  if (file.num_range_tombstones == 0) {
    return Status::OK();
  }
  std::shared_ptr<SSTableReader> table;
  LETHE_RETURN_IF_ERROR(tables->GetTable(file, &table));
  TableIndexHandle index;
  LETHE_RETURN_IF_ERROR(table->GetIndex(&index));
  rts->insert(rts->end(), index->range_tombstones.begin(),
              index->range_tombstones.end());
  return Status::OK();
}

bool ReadPath::KeyMayExist(const ReadSnapshot& snap, const Slice& key) const {
  ParsedEntry entry;
  if (snap.mem->Get(key, &entry, snap.bound)) {
    // A live value means a tombstone is useful; an existing tombstone means
    // the new delete would be blind.
    return !entry.IsTombstone();
  }
  for (auto it = snap.imm.rbegin(); it != snap.imm.rend(); ++it) {
    if ((*it)->Get(key, &entry, snap.bound)) {
      return !entry.IsTombstone();
    }
  }
  // Filter-only probe per candidate table; a table that fails to open is
  // conservatively assumed to hold the key.
  return ForEachCandidateFile(
      *snap.version, key, [&](const std::shared_ptr<FileMeta>& file) {
        std::shared_ptr<SSTableReader> table;
        return !tables_->GetTable(*file, &table).ok() ||
               table->KeyMayExist(key, file.get(), stats_);
      });
}

Status ReadPath::FindNewestVersion(const ReadSnapshot& snap, const Slice& key,
                                   bool fill_cache, NewestVersion* out) const {
  const SequenceNumber bound = snap.bound;
  auto probe_memtable = [&](const MemTable& mem) {
    out->cover_seq =
        std::max(out->cover_seq, mem.MaxRangeTombstoneCoverSeq(key, bound));
    ParsedEntry entry;
    if (!mem.Get(key, &entry, bound)) {
      return false;
    }
    out->found = true;
    out->entry.type = entry.type;
    out->entry.seq = entry.seq;
    out->entry.delete_key = entry.delete_key;
    out->entry.value = entry.value;  // aliases the pinned memtable's arena
    return true;
  };
  if (probe_memtable(*snap.mem)) {
    return Status::OK();
  }
  for (auto it = snap.imm.rbegin(); it != snap.imm.rend(); ++it) {
    if (probe_memtable(**it)) {
      return Status::OK();
    }
  }
  Status s;
  ForEachCandidateFile(
      *snap.version, key, [&](const std::shared_ptr<FileMeta>& file) {
        std::shared_ptr<SSTableReader> table;
        s = tables_->GetTable(*file, &table);
        // Accumulate this file's range-tombstone coverage before deciding.
        // The FileMeta count gates the index fetch, so rt-free files cost
        // no metadata access at all on this hot path.
        if (s.ok() && file->num_range_tombstones > 0) {
          FragmentedRtHandle frt;
          s = table->GetFragmentedRangeTombstones(stats_, &frt);
          if (s.ok()) {
            stats_->rt_cover_probes.fetch_add(1, std::memory_order_relaxed);
            out->cover_seq =
                std::max(out->cover_seq, frt->MaxCoverSeq(key, bound));
          }
        }
        if (s.ok()) {
          s = table->Get(key, file.get(), stats_, &out->found, &out->entry,
                         fill_cache, bound);
        }
        return !s.ok() || out->found;
      });
  return s;
}

Status ReadPath::Get(const ReadSnapshot& snap, const Slice& key,
                     bool fill_cache, std::string* value,
                     uint64_t* delete_key) const {
  stats_->point_lookups.fetch_add(1, std::memory_order_relaxed);
  NewestVersion newest;
  LETHE_RETURN_IF_ERROR(FindNewestVersion(snap, key, fill_cache, &newest));
  if (!newest.Live()) {
    return Status::NotFound(key);
  }
  // The value aliases the memtable arena or the (possibly cached) decoded
  // page; this assign is the only copy on the whole lookup path.
  value->assign(newest.entry.value.data(), newest.entry.value.size());
  *delete_key = newest.entry.delete_key;
  return Status::OK();
}

std::unique_ptr<Iterator> ReadPath::NewIterator(ReadSnapshot snap,
                                                bool fill_cache) const {
  std::vector<std::unique_ptr<InternalIterator>> children;
  std::vector<RangeTombstone> rts;
  children.push_back(snap.mem->NewIterator());
  snap.mem->range_tombstones()->AppendTo(&rts);
  for (const auto& imm : snap.imm) {
    children.push_back(imm->NewIterator());
    imm->range_tombstones()->AppendTo(&rts);
  }

  Status setup_status;
  for (int level = 0; level < snap.version->num_levels(); level++) {
    for (const SortedRun& run : snap.version->levels()[level]) {
      children.push_back(NewRunIterator(tables_, run.files, fill_cache));
      for (const auto& file : run.files) {
        // A failure here may not be swallowed: missing range tombstones
        // would silently resurrect deleted keys, so it poisons the
        // iterator instead (surfaced through status()).
        if (setup_status.ok()) {
          setup_status = AppendRangeTombstones(tables_, *file, &rts);
        }
      }
    }
  }

  auto merged = NewMergingIterator(std::move(children));
  return std::make_unique<DBIter>(std::move(snap), std::move(merged), rts,
                                  stats_, std::move(setup_status));
}

}  // namespace lethe
