#include "src/lsm/txn.h"

#include <utility>
#include <vector>

#include "src/lsm/db_impl.h"

namespace lethe {

/// Forward merge of the staged-write map over a snapshot-bound DB iterator.
/// Staged entries shadow committed ones at the same key; staged deletes hide
/// them. Both sources are key-ordered, so this is a two-way merge.
class OptimisticTransaction::OverlayIterator final : public Iterator {
 public:
  OverlayIterator(std::unique_ptr<Iterator> base,
                  const std::map<std::string, StagedValue>* staged)
      : base_(std::move(base)), staged_(staged) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    base_->SeekToFirst();
    staged_it_ = staged_->begin();
    FindNext();
  }

  void Seek(const Slice& target) override {
    base_->Seek(target);
    staged_it_ = staged_->lower_bound(target.ToString());
    FindNext();
  }

  void Next() override {
    if (!valid_) {
      return;
    }
    if (current_is_staged_) {
      ++staged_it_;
    } else {
      base_->Next();
    }
    FindNext();
  }

  Slice key() const override {
    return current_is_staged_ ? Slice(staged_it_->first) : base_->key();
  }
  Slice value() const override {
    return current_is_staged_ ? Slice(staged_it_->second.value)
                              : base_->value();
  }
  uint64_t delete_key() const override {
    return current_is_staged_ ? staged_it_->second.delete_key
                              : base_->delete_key();
  }
  Status status() const override { return base_->status(); }

 private:
  void FindNext() {
    valid_ = false;
    while (true) {
      const bool have_staged = staged_it_ != staged_->end();
      const bool have_base = base_->Valid();
      if (!have_staged && !have_base) {
        return;
      }
      int cmp;
      if (!have_staged) {
        cmp = +1;  // base only
      } else if (!have_base) {
        cmp = -1;  // staged only
      } else {
        cmp = Slice(staged_it_->first).compare(base_->key());
      }
      if (cmp == 0) {
        base_->Next();  // staged version shadows the committed one
        cmp = -1;
      }
      if (cmp < 0) {
        if (staged_it_->second.deleted) {
          ++staged_it_;  // staged delete: key is gone for this txn
          continue;
        }
        current_is_staged_ = true;
      } else {
        current_is_staged_ = false;
      }
      valid_ = true;
      return;
    }
  }

  std::unique_ptr<Iterator> base_;
  const std::map<std::string, StagedValue>* staged_;
  std::map<std::string, StagedValue>::const_iterator staged_it_;
  bool current_is_staged_ = false;
  bool valid_ = false;
};

OptimisticTransaction::OptimisticTransaction(DB* db)
    : db_(dynamic_cast<DBImpl*>(db)) {
  if (db_ != nullptr) {
    snapshot_ = db_->GetSnapshot();
  }
}

OptimisticTransaction::~OptimisticTransaction() {
  if (!finished_ && db_ != nullptr && snapshot_ != nullptr) {
    db_->ReleaseSnapshot(snapshot_);
  }
}

Status OptimisticTransaction::Get(const ReadOptions& options, const Slice& key,
                                  std::string* value) {
  uint64_t delete_key;
  return GetWithDeleteKey(options, key, value, &delete_key);
}

Status OptimisticTransaction::GetWithDeleteKey(const ReadOptions& options,
                                               const Slice& key,
                                               std::string* value,
                                               uint64_t* delete_key) {
  if (db_ == nullptr) {
    return Status::InvalidArgument("not an engine DB instance");
  }
  if (finished_) {
    return Status::InvalidArgument("transaction already finished");
  }
  read_keys_.insert(key.ToString());
  auto it = staged_.find(key.ToString());
  if (it != staged_.end()) {
    if (it->second.deleted) {
      return Status::NotFound(key);
    }
    *value = it->second.value;
    *delete_key = it->second.delete_key;
    return Status::OK();
  }
  ReadOptions snap_options = options;
  snap_options.snapshot = snapshot_;
  return db_->GetWithDeleteKey(snap_options, key, value, delete_key);
}

Status OptimisticTransaction::Put(const Slice& key, uint64_t delete_key,
                                  const Slice& value) {
  if (db_ == nullptr) {
    return Status::InvalidArgument("not an engine DB instance");
  }
  if (finished_) {
    return Status::InvalidArgument("transaction already finished");
  }
  batch_.Put(key, delete_key, value);
  StagedValue& staged = staged_[key.ToString()];
  staged.deleted = false;
  staged.delete_key = delete_key;
  staged.value = value.ToString();
  return Status::OK();
}

Status OptimisticTransaction::Delete(const Slice& key) {
  if (db_ == nullptr) {
    return Status::InvalidArgument("not an engine DB instance");
  }
  if (finished_) {
    return Status::InvalidArgument("transaction already finished");
  }
  batch_.Delete(key);
  StagedValue& staged = staged_[key.ToString()];
  staged.deleted = true;
  staged.value.clear();
  return Status::OK();
}

std::unique_ptr<Iterator> OptimisticTransaction::NewIterator(
    const ReadOptions& options) {
  if (db_ == nullptr || finished_) {
    return nullptr;
  }
  ReadOptions snap_options = options;
  snap_options.snapshot = snapshot_;
  return std::make_unique<OverlayIterator>(db_->NewIterator(snap_options),
                                           &staged_);
}

Status OptimisticTransaction::Commit(const WriteOptions& options) {
  if (db_ == nullptr) {
    return Status::InvalidArgument("not an engine DB instance");
  }
  if (finished_) {
    return Status::InvalidArgument("transaction already finished");
  }
  finished_ = true;

  // Validated keyset: everything read plus everything written (staged_
  // holds exactly the written keys). Write validation gives first-committer
  // -wins on write-write races even for keys the transaction never read.
  std::vector<std::string> keys;
  keys.reserve(read_keys_.size() + staged_.size());
  for (const std::string& key : read_keys_) {
    keys.push_back(key);
  }
  for (const auto& [key, staged] : staged_) {
    if (read_keys_.find(key) == read_keys_.end()) {
      keys.push_back(key);
    }
  }

  Status s = db_->WriteValidated(options, &batch_, snapshot_->sequence(), keys,
                                 &commit_seq_);
  db_->ReleaseSnapshot(snapshot_);
  snapshot_ = nullptr;
  return s;
}

Status OptimisticTransaction::Rollback() {
  if (db_ == nullptr) {
    return Status::InvalidArgument("not an engine DB instance");
  }
  if (finished_) {
    return Status::InvalidArgument("transaction already finished");
  }
  finished_ = true;
  batch_.Clear();
  staged_.clear();
  db_->ReleaseSnapshot(snapshot_);
  snapshot_ = nullptr;
  return Status::OK();
}

}  // namespace lethe
