#include "tests/model/key_model.h"

#include <algorithm>
#include <memory>

#include "src/workload/generator.h"

namespace lethe::test {

using workload::DecodeKey;
using workload::EncodeKey;

ModelOp ModelOp::Put(uint64_t key, uint64_t delete_key,
                     const std::string& value) {
  WriteBatch batch;
  batch.Put(EncodeKey(key), delete_key, value);
  return {Kind::kPut, 0, 0, std::move(batch)};
}

ModelOp ModelOp::Delete(uint64_t key) {
  WriteBatch batch;
  batch.Delete(EncodeKey(key));
  return {Kind::kDelete, 0, 0, std::move(batch)};
}

ModelOp ModelOp::RangeDelete(uint64_t begin, uint64_t end) {
  WriteBatch batch;
  batch.RangeDelete(EncodeKey(begin), EncodeKey(end));
  return {Kind::kRangeDelete, 0, 0, std::move(batch)};
}

ModelOp ModelOp::SecondaryRangeDelete(uint64_t lo, uint64_t hi) {
  return {Kind::kSecondaryRangeDelete, lo, hi, WriteBatch()};
}

ModelOp ModelOp::Batch(WriteBatch batch) {
  return {Kind::kBatch, 0, 0, std::move(batch)};
}

Status ModelOp::IssueTo(DB* db) const {
  switch (kind) {
    case Kind::kPut: {
      const WriteBatch::Op& w = writes.ops().front();
      return db->Put(WriteOptions(), w.key, w.delete_key, w.value);
    }
    case Kind::kDelete:
      return db->Delete(WriteOptions(), writes.ops().front().key);
    case Kind::kRangeDelete: {
      const WriteBatch::Op& w = writes.ops().front();
      return db->RangeDelete(WriteOptions(), w.key, w.end_key);
    }
    case Kind::kSecondaryRangeDelete:
      return db->SecondaryRangeDelete(WriteOptions(), srd_lo, srd_hi);
    case Kind::kBatch: {
      WriteBatch copy = writes;
      return db->Write(WriteOptions(), &copy);
    }
  }
  return Status::InvalidArgument("unknown model op");
}

namespace {

using State = KeyModel::State;

/// The keys [begin, end) one point or range write covers.
std::pair<uint64_t, uint64_t> Span(const WriteBatch::Op& w) {
  const uint64_t begin = DecodeKey(w.key);
  return {begin, w.kind == WriteBatch::OpKind::kRangeDelete
                     ? DecodeKey(w.end_key)
                     : begin + 1};
}

/// State of `key` after `op` commits, given its state `s` before.
State After(const ModelOp& op, uint64_t key, State s) {
  if (op.kind == ModelOp::Kind::kSecondaryRangeDelete) {
    return s && s->delete_key >= op.srd_lo && s->delete_key < op.srd_hi
               ? std::nullopt
               : s;
  }
  for (const WriteBatch::Op& w : op.writes.ops()) {
    const auto [begin, end] = Span(w);
    if (key >= begin && key < end) {
      s = w.kind == WriteBatch::OpKind::kPut
              ? State(KeyModel::Entry{w.value, w.delete_key})
              : std::nullopt;
    }
  }
  return s;
}

std::string Describe(const State& s) {
  return s ? "'" + s->value + "'/dk=" + std::to_string(s->delete_key)
           : "absent";
}

}  // namespace

KeyModel::KeyModel(uint64_t lo, uint64_t hi, std::string context)
    : lo_(lo), hi_(hi), context_(std::move(context)) {}

State KeyModel::Live(uint64_t key) const {
  auto it = live_.find(key);
  return it == live_.end() ? std::nullopt : State(it->second);
}

std::set<uint64_t> KeyModel::Touched(const ModelOp& op) const {
  if (op.kind == ModelOp::Kind::kSecondaryRangeDelete) {
    return KnownKeys(lo_, hi_);
  }
  std::set<uint64_t> keys;
  for (const WriteBatch::Op& w : op.writes.ops()) {
    const auto [begin, end] = Span(w);
    for (uint64_t k = std::max(begin, lo_); k < std::min(end, hi_); k++) {
      keys.insert(k);
    }
  }
  return keys;
}

std::set<uint64_t> KeyModel::KnownKeys(uint64_t lo, uint64_t hi) const {
  std::set<uint64_t> keys;
  for (auto it = live_.lower_bound(lo); it != live_.end() && it->first < hi;
       ++it) {
    keys.insert(it->first);
  }
  for (auto it = alternatives_.lower_bound(lo);
       it != alternatives_.end() && it->first < hi; ++it) {
    keys.insert(it->first);
  }
  return keys;
}

void KeyModel::Apply(const ModelOp& op) {
  for (uint64_t k : Touched(op)) {
    const State now = After(op, k, Live(k));
    if (now) {
      live_[k] = *now;
    } else {
      live_.erase(k);
    }
    auto alt = alternatives_.find(k);
    if (alt == alternatives_.end()) {
      continue;
    }
    // Map each alternative through the op too; a point write collapses
    // them all onto the acknowledged state, which revokes them.
    std::vector<State> kept;
    for (const State& s : alt->second) {
      const State after = After(op, k, s);
      if (after != now &&
          std::find(kept.begin(), kept.end(), after) == kept.end()) {
        kept.push_back(after);
      }
    }
    if (kept.empty()) {
      alternatives_.erase(alt);
    } else {
      alt->second = std::move(kept);
    }
  }
}

void KeyModel::Failed(const ModelOp& op) {
  for (uint64_t k : Touched(op)) {
    const State now = Live(k);
    std::vector<State>& alts = alternatives_[k];
    auto add = [&](State s) {
      if (s != now && std::find(alts.begin(), alts.end(), s) == alts.end()) {
        alts.push_back(std::move(s));
      }
    };
    const size_t before = alts.size();
    add(After(op, k, now));
    for (size_t i = 0; i < before; i++) {
      add(After(op, k, alts[i]));
    }
    if (alts.empty()) {
      alternatives_.erase(k);
    }
  }
}

Status KeyModel::Write(DB* db, const ModelOp& op) {
  Status s = op.IssueTo(db);
  if (s.ok()) {
    Apply(op);
  } else {
    Failed(op);
  }
  return s;
}

std::string KeyModel::Mismatch(uint64_t key, const State& observed,
                               Mode mode) const {
  const State want = Live(key);
  auto alt = alternatives_.find(key);
  const std::vector<State> none;
  const std::vector<State>& alts =
      alt == alternatives_.end() ? none : alt->second;
  if (observed == want ||
      (mode == kAllowAmbiguous &&
       std::find(alts.begin(), alts.end(), observed) != alts.end())) {
    return std::string();
  }
  std::string mismatch = "key " + std::to_string(key) + ": read " +
                         Describe(observed) + ", expected " + Describe(want);
  if (alts.empty()) {
    return mismatch;
  }
  std::string others;
  for (const State& s : alts) {
    others += (others.empty() ? "" : ", ") + Describe(s);
  }
  return mismatch + (mode == kAllowAmbiguous
                         ? " or a failed write's outcome {" + others + "}"
                         : " (exact check; failed writes' outcomes {" +
                               others + "} not allowed)");
}

::testing::AssertionResult KeyModel::CheckRead(uint64_t key, const Status& s,
                                               const std::string& value,
                                               uint64_t delete_key,
                                               Mode mode) const {
  if (!s.ok() && !s.IsNotFound()) {
    return ::testing::AssertionFailure()
           << context_ << ": key " << key << ": read failed: "
           << s.ToString();
  }
  const std::string mismatch = Mismatch(
      key, s.ok() ? State(Entry{value, delete_key}) : std::nullopt, mode);
  if (!mismatch.empty()) {
    return ::testing::AssertionFailure() << context_ << ": " << mismatch;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult KeyModel::CheckGet(
    DB* db, uint64_t key, Mode mode, const ReadOptions& options) const {
  std::string value;
  uint64_t dk = 0;
  Status s = db->GetWithDeleteKey(options, EncodeKey(key), &value, &dk);
  return CheckRead(key, s, value, dk, mode);
}

::testing::AssertionResult KeyModel::CheckScan(
    DB* db, uint64_t lo, uint64_t hi, Mode mode,
    const ReadOptions& options) const {
  const std::string where = context_ + ": scan [" + std::to_string(lo) +
                            ", " + std::to_string(hi) + ") ";
  auto check = [&](uint64_t key, const State& observed) {
    const std::string mismatch = Mismatch(key, observed, mode);
    if (mismatch.empty()) {
      return ::testing::AssertionSuccess();
    }
    // A Get of the key tells a broken iterator view apart from lost data.
    std::string value;
    uint64_t dk = 0;
    Status s = db->GetWithDeleteKey(options, EncodeKey(key), &value, &dk);
    return ::testing::AssertionFailure()
           << where << (observed ? "" : "skipped ") << mismatch
           << "; a Get of the key reads "
           << (s.ok() ? Describe(Entry{value, dk})
                      : s.IsNotFound() ? "absent" : s.ToString());
  };
  // The model's keys, walked in lockstep with the scan: each one the scan
  // passes over must be allowed to be absent.
  const std::set<uint64_t> known = KnownKeys(lo, hi);
  auto next = known.begin();
  auto pass_over = [&](uint64_t below) {
    ::testing::AssertionResult r = ::testing::AssertionSuccess();
    for (; r && next != known.end() && *next < below; ++next) {
      r = check(*next, std::nullopt);
    }
    return r;
  };
  std::optional<uint64_t> prev;
  std::unique_ptr<Iterator> it = db->NewIterator(options);
  const std::string end_key = EncodeKey(hi);
  for (it->Seek(EncodeKey(lo));
       it->Valid() && it->key().compare(Slice(end_key)) < 0; it->Next()) {
    const uint64_t k = DecodeKey(it->key().ToString());
    if (EncodeKey(k) != it->key().ToString()) {
      return ::testing::AssertionFailure()
             << where << "returned key '" << it->key().ToString()
             << "', which no model key encodes to";
    }
    if (prev && k <= *prev) {
      return ::testing::AssertionFailure()
             << where << "returned key " << k << " after key " << *prev
             << (k == *prev ? " (a duplicate)" : " (out of order)");
    }
    prev = k;
    const State read = Entry{it->value().ToString(), it->delete_key()};
    ::testing::AssertionResult r = pass_over(k);
    if (!r || !(r = check(k, read))) {
      return r;
    }
    next = known.upper_bound(k);
  }
  if (!it->status().ok()) {
    return ::testing::AssertionFailure()
           << where << "failed: " << it->status().ToString();
  }
  return pass_over(hi);
}

::testing::AssertionResult KeyModel::CheckAll(
    DB* db, Mode mode, const ReadOptions& options) const {
  for (uint64_t k = lo_; k < hi_; k++) {
    ::testing::AssertionResult r = CheckGet(db, k, mode, options);
    if (!r) {
      return r;
    }
  }
  return CheckScan(db, lo_, hi_, mode, options);
}

}  // namespace lethe::test
