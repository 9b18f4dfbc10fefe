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
/// (not yet in the edit) are reaped by recovery's orphan sweep instead. A
/// flush may already have opened an output's reader, so each is evicted.
inline void RemoveFailedMergeOutputs(Env* env, const std::string& dbname,
                                     TableCache* tables,
                                     const VersionEdit& edit) {
  for (const auto& [level, meta] : edit.added_files) {
    tables->Evict(meta.file_number);
    env->RemoveFile(TableFileName(dbname, meta.file_number)).ok();
  }
}

// The WAL op kinds mirror the WriteBatch op kinds, so the write path logs
// an op's kind by value.
static_assert(static_cast<int>(WalOp::Kind::kPut) ==
                  static_cast<int>(WriteBatch::OpKind::kPut) &&
              static_cast<int>(WalOp::Kind::kDelete) ==
                  static_cast<int>(WriteBatch::OpKind::kDelete) &&
              static_cast<int>(WalOp::Kind::kRangeDelete) ==
                  static_cast<int>(WriteBatch::OpKind::kRangeDelete) &&
              static_cast<int>(WalOp::Kind::kPutExpiring) ==
                  static_cast<int>(WriteBatch::OpKind::kPutExpiring));

/// The one op → memtable mutation, shared by the write path and WAL replay
/// (which re-applies a secondary range delete's purge itself). Requires the
/// write token (or single-threaded recovery). Returns true when a point
/// write appended at the memtable's tail.
inline bool ApplyToMemTable(MemTable* mem, const WalOp& op,
                            SequenceNumber seq, uint64_t time) {
  switch (op.kind) {
    case WalOp::Kind::kPut:
      return mem->Add(seq, ValueType::kValue, op.key, op.delete_key, op.value,
                      time);
    case WalOp::Kind::kPutExpiring:
      return mem->Add(seq, ValueType::kExpiringValue, op.key, op.delete_key,
                      op.value, time);
    case WalOp::Kind::kDelete:
      return mem->Add(seq, ValueType::kTombstone, op.key, op.delete_key,
                      Slice(), time);
    case WalOp::Kind::kRangeDelete: {
      RangeTombstone rt;
      rt.begin_key = op.key.ToString();
      rt.end_key = op.end_key.ToString();
      rt.seq = seq;
      rt.time = time;
      mem->AddRangeTombstone(rt);
      break;
    }
    case WalOp::Kind::kSecondaryRangeDelete:
      break;
  }
  return false;
}

}  // namespace lethe

#endif  // LETHE_LSM_DB_IMPL_INTERNAL_H_
