#ifndef LETHE_LSM_DB_IMPL_INTERNAL_H_
#define LETHE_LSM_DB_IMPL_INTERNAL_H_

// Helpers shared by the files that implement DBImpl (db_impl*.cc). Not
// part of any public interface.

#include <string>

#include "src/env/env.h"
#include "src/lsm/version_edit.h"
#include "src/lsm/version_set.h"
#include "src/memtable/memtable.h"
#include "src/memtable/wal.h"
#include "src/memtable/write_batch.h"

namespace lethe {

/// Best-effort removal of a failed merge's finished outputs — the edit was
/// never installed, so nothing references them. Partially written outputs
/// (not yet in the edit) are reaped by recovery's orphan sweep instead.
inline void RemoveFailedMergeOutputs(Env* env, const std::string& dbname,
                                     const VersionEdit& edit) {
  for (const auto& [level, meta] : edit.added_files) {
    env->RemoveFile(TableFileName(dbname, meta.file_number)).ok();
  }
}

// WAL record kinds 1-3 mirror the WriteBatch op kinds, so the write path logs
// an op's kind and replay applies a record's kind by value.
static_assert(static_cast<int>(WalRecord::Kind::kPut) ==
                  static_cast<int>(WriteBatch::OpKind::kPut) &&
              static_cast<int>(WalRecord::Kind::kDelete) ==
                  static_cast<int>(WriteBatch::OpKind::kDelete) &&
              static_cast<int>(WalRecord::Kind::kRangeDelete) ==
                  static_cast<int>(WriteBatch::OpKind::kRangeDelete));

/// The one op-kind → memtable mutation, shared by the write path and WAL
/// replay. Requires the write token (or single-threaded recovery). Returns
/// true when a point write appended at the memtable's tail.
inline bool ApplyToMemTable(MemTable* mem, WriteBatch::OpKind kind,
                            SequenceNumber seq, uint64_t time,
                            const Slice& key, const Slice& end_key,
                            uint64_t delete_key, const Slice& value) {
  switch (kind) {
    case WriteBatch::OpKind::kPut:
      return mem->Add(seq, ValueType::kValue, key, delete_key, value, time);
    case WriteBatch::OpKind::kDelete:
      return mem->Add(seq, ValueType::kTombstone, key, delete_key, Slice(),
                      time);
    case WriteBatch::OpKind::kRangeDelete: {
      RangeTombstone rt;
      rt.begin_key = key.ToString();
      rt.end_key = end_key.ToString();
      rt.seq = seq;
      rt.time = time;
      mem->AddRangeTombstone(rt);
      break;
    }
  }
  return false;
}

}  // namespace lethe

#endif  // LETHE_LSM_DB_IMPL_INTERNAL_H_
