#ifndef LETHE_TESTS_MODEL_KEY_MODEL_H_
#define LETHE_TESTS_MODEL_KEY_MODEL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/memtable/write_batch.h"

namespace lethe::test {

/// One write, in the form both the engine and the model take it. Keys are
/// integers; the engine sees them through workload::EncodeKey.
struct ModelOp {
  enum class Kind {
    kPut, kDelete, kRangeDelete, kSecondaryRangeDelete, kBatch
  };

  static ModelOp Put(uint64_t key, uint64_t delete_key,
                     const std::string& value);
  static ModelOp Delete(uint64_t key);
  /// Sort-key range delete over [begin, end).
  static ModelOp RangeDelete(uint64_t begin, uint64_t end);
  /// Purges every entry whose delete key lies in [lo, hi).
  static ModelOp SecondaryRangeDelete(uint64_t lo, uint64_t hi);
  /// Puts, deletes and range deletes that commit together.
  static ModelOp Batch(WriteBatch batch);

  /// Issues the op through the matching DB call: Put, Delete, RangeDelete,
  /// SecondaryRangeDelete or Write.
  Status IssueTo(DB* db) const;

  Kind kind = Kind::kPut;
  // kSecondaryRangeDelete: the delete-key band [srd_lo, srd_hi).
  uint64_t srd_lo = 0;
  uint64_t srd_hi = 0;
  // Every other kind: its point and range writes, in commit order.
  WriteBatch writes;
};

/// Reference model of the key slice [lo, hi) of one DB: each key's value
/// and delete key under Lethe's delete semantics (point and range
/// tombstones hide a key; a secondary range delete purges by delete key).
///
/// A write the engine acknowledged is Apply()d. A write it rejected is
/// Failed(): the engine may still have logged it, and WAL replay may bring
/// it back, so each key it touches gains the op's outcome as an allowed
/// alternative state. A later acknowledged write to that key revokes the
/// alternatives, because replay runs in sequence order. Checks in kExact
/// mode accept only the acknowledged state; kAllowAmbiguous also accepts
/// the alternatives. The model is a value: a copy is a frozen shadow, e.g.
/// of a snapshot.
class KeyModel {
 public:
  struct Entry {
    std::string value;
    uint64_t delete_key = 0;
    bool operator==(const Entry&) const = default;
  };
  /// A key's state; nullopt when the key is absent.
  using State = std::optional<Entry>;

  enum Mode { kExact, kAllowAmbiguous };

  /// `context` starts every failure message (seed, thread, repro hint).
  KeyModel(uint64_t lo, uint64_t hi, std::string context);

  const std::string& context() const { return context_; }
  /// Number of keys with an acknowledged entry.
  size_t size() const { return live_.size(); }

  void Apply(const ModelOp& op);
  void Failed(const ModelOp& op);

  /// Issues `op` against `db`, then Apply()s it if the engine acknowledged
  /// it and Failed()s it otherwise. Returns the engine's status.
  Status Write(DB* db, const ModelOp& op);

  /// Checks one observed read of `key` (OK or NotFound, with the value and
  /// delete key read) against the model.
  ::testing::AssertionResult CheckRead(uint64_t key, const Status& s,
                                       const std::string& value,
                                       uint64_t delete_key,
                                       Mode mode = kExact) const;
  ::testing::AssertionResult CheckGet(
      DB* db, uint64_t key, Mode mode = kExact,
      const ReadOptions& options = ReadOptions()) const;
  /// Scans the sort keys [lo, hi) and checks every key the scan returns or
  /// the model holds there: a wrong value or delete key, an extra key, a
  /// skipped key and a key returned twice or out of order all fail.
  ::testing::AssertionResult CheckScan(
      DB* db, uint64_t lo, uint64_t hi, Mode mode = kExact,
      const ReadOptions& options = ReadOptions()) const;
  /// A Get of every key in the slice, then a scan of the slice.
  ::testing::AssertionResult CheckAll(
      DB* db, Mode mode = kExact,
      const ReadOptions& options = ReadOptions()) const;

 private:
  State Live(uint64_t key) const;
  /// Keys of the slice `op` can change.
  std::set<uint64_t> Touched(const ModelOp& op) const;
  /// Keys in [lo, hi) with an acknowledged entry or an alternative state.
  std::set<uint64_t> KnownKeys(uint64_t lo, uint64_t hi) const;
  /// Empty if `observed` is an allowed state of `key`, otherwise a
  /// description of the mismatch.
  std::string Mismatch(uint64_t key, const State& observed, Mode mode) const;

  uint64_t lo_;
  uint64_t hi_;
  std::string context_;
  std::map<uint64_t, Entry> live_;
  // Outcomes of failed writes that replay may still produce, per key.
  std::map<uint64_t, std::vector<State>> alternatives_;
};

}  // namespace lethe::test

#endif  // LETHE_TESTS_MODEL_KEY_MODEL_H_
