#include <algorithm>
#include <set>

#include "src/lsm/db_impl.h"
#include "src/lsm/db_impl_internal.h"

namespace lethe {

Status DBImpl::Init() {
  // One budget number: memory_budget_bytes sizes the page cache and, via
  // the reservation below, also accounts the write buffers against it;
  // page_cache_bytes alone sizes the page cache with no reservation.
  const uint64_t cache_capacity = options_.memory_budget_bytes > 0
                                      ? options_.memory_budget_bytes
                                      : options_.page_cache_bytes;
  if (shard_.page_cache != nullptr) {
    // ShardedDB: every shard stakes reservations against the one facade-
    // owned cache, so a single budget bounds the whole sharded engine.
    page_cache_ = shard_.page_cache;
    if (options_.memory_budget_bytes > 0) {
      memtable_reservation_ = CacheReservation(page_cache_.get());
    }
  } else if (cache_capacity > 0) {
    page_cache_ = std::make_shared<PageCache>(
        cache_capacity, PageCache::kDefaultShardBits, &stats_);
    if (options_.memory_budget_bytes > 0) {
      memtable_reservation_ = CacheReservation(page_cache_.get());
    }
  }
  versions_ = std::make_unique<VersionSet>(options_, dbname_,
                                           page_cache_.get(), &stats_,
                                           shard_.file_number_origin);
  // Inline mode is background mode plus a barrier: the same scheduler (one
  // worker, see Options::WithDefaults) runs every flush and compaction, and
  // each write or maintenance call waits for it to go quiet (DrainLocked).
  barrier_mode_ = options_.inline_compactions;
  picker_ = std::make_unique<CompactionPicker>(options_, versions_.get(),
                                               CutsFlushesAtL1());
  LETHE_RETURN_IF_ERROR(versions_->Recover());
  mem_ = std::make_shared<MemTable>();

  std::lock_guard<std::mutex> lock(mu_);
  PublishReadStateLocked();
  LETHE_RETURN_IF_ERROR(RemoveOrphanFilesLocked());
  if (options_.enable_wal) {
    LETHE_RETURN_IF_ERROR(ReplayWalsLocked());
  }
  // Replay refills the memtable without passing the write path; stake its
  // bytes against the budget before the first user write (single-threaded
  // here, so sizing mem_ directly is safe).
  mem_staked_bytes_ = mem_->ApproximateMemoryUsage();
  UpdateMemtableReservationLocked();
  RefreshTriggerStateLocked();
  if (versions_->current()->secondary_deletes() != nullptr) {
    // Deletes a crash left pending: the next seal applies them.
    ArmSecondaryDeleteBatchLocked();
  }
  return Status::OK();
}

Status DBImpl::RemoveOrphanFilesLocked() {
  // A crash between a merge's output writes and its manifest install leaves
  // table files no version references; a crash after recovery leaves the
  // previous MANIFEST behind. Neither is reachable (the manifest is the
  // source of truth), so both are garbage — but their numbers may exceed
  // the persisted file-number counter, so the counter must move past them
  // before this DB allocates fresh names.
  std::vector<std::string> children;
  if (!options_.env->GetChildren(dbname_, &children).ok()) {
    return Status::OK();  // list-less env: nothing to sweep
  }
  std::set<uint64_t> live;
  for (const auto& [level, file] : versions_->current()->AllFiles()) {
    live.insert(file->file_number);
  }
  // Empty at Init; populated when the resume path re-runs this sweep on a
  // live DB, where retired-but-pinned files are not garbage.
  for (uint64_t number : versions_->GraveyardFiles()) {
    live.insert(number);
  }
  for (const std::string& child : children) {
    FileType type;
    uint64_t number = 0;
    if (!ParseFileName(child, &type, &number) || type == FileType::kWal) {
      continue;  // WAL numbers are ReplayWalsLocked's to account for
    }
    versions_->EnsureFileNumberPast(number);
    if (type == FileType::kManifest) {
      if (number != versions_->manifest_number()) {
        options_.env->RemoveFile(ManifestFileName(dbname_, number)).ok();
      }
    } else if (live.count(number) == 0) {
      options_.env->RemoveFile(TableFileName(dbname_, number)).ok();
    }
  }
  return Status::OK();
}

Status DBImpl::ReplayWalsLocked() {
  // The manifest names the oldest WAL still needed; a crash can leave
  // several live WALs behind (one per unflushed memtable plus the active
  // one), so recovery scans the directory and replays every log with
  // number >= the manifest's, in number (= age) order.
  const uint64_t min_wal = versions_->wal_number();
  std::vector<uint64_t> to_replay;
  std::vector<uint64_t> obsolete;
  // Without a listing recovery cannot know which WALs exist, and the fresh
  // WAL below could take the number of one it never saw: fail, and let a
  // retry of Open list again.
  std::vector<std::string> children;
  LETHE_RETURN_IF_ERROR(options_.env->GetChildren(dbname_, &children));
  for (const std::string& child : children) {
    FileType type;
    uint64_t number = 0;
    if (!ParseFileName(child, &type, &number) || type != FileType::kWal) {
      continue;
    }
    if (min_wal != 0 && number >= min_wal) {
      to_replay.push_back(number);
    } else {
      obsolete.push_back(number);
    }
  }
  std::sort(to_replay.begin(), to_replay.end());
  // Crash-surviving WAL numbers may exceed the manifest's file-number
  // counter (background-mode swaps allocate them without a manifest write).
  // Bump the counter so the fresh WAL/table numbers below cannot collide
  // with a file this loop is about to replay and delete.
  for (uint64_t number : to_replay) {
    versions_->EnsureFileNumberPast(number);
  }
  for (uint64_t number : obsolete) {
    versions_->EnsureFileNumberPast(number);
  }

  // A torn tail — the append a crash cut short — ends the newest log;
  // everything acknowledged before it is intact. A frame is one commit
  // group, so a torn group drops whole. Any other damage fails Open:
  // skipping a group could drop a tombstone and resurrect a deleted key, so
  // salvage is the operator's explicit DB::Repair.
  std::vector<std::string> logs(to_replay.size());  // the groups alias them
  std::vector<WalGroup> replayed;
  std::string relog;  // the intact frames, byte for byte
  for (size_t i = 0; i < to_replay.size(); i++) {
    const std::string fname = WalFileName(dbname_, to_replay[i]);
    LETHE_RETURN_IF_ERROR(ReadFileToString(options_.env, fname, &logs[i]));
    RecordLogScanner scanner{Slice(logs[i])};
    RecordLogScanner::Result result;
    while (true) {
      const uint64_t frame_begin = scanner.offset();
      Slice payload;
      result = scanner.Next(&payload);
      if (result != RecordLogScanner::Result::kRecord) {
        break;
      }
      WalGroup group;
      if (!DecodeWalGroup(payload, &group)) {
        result = RecordLogScanner::Result::kCorrupt;
        break;
      }
      replayed.push_back(std::move(group));
      relog.append(logs[i], frame_begin, scanner.offset() - frame_begin);
    }
    const bool newest = i + 1 == to_replay.size();
    if (result == RecordLogScanner::Result::kCorrupt ||
        (result == RecordLogScanner::Result::kTornTail && !newest)) {
      return Status::Corruption("WAL damaged before its end: " + fname +
                                "; run DB::Repair to salvage its intact "
                                "groups");
    }
  }

  // Re-apply into the fresh memtable, tracking checkpoint info.
  for (const WalGroup& group : replayed) {
    for (size_t i = 0; i < group.ops.size(); i++) {
      const WalOp& op = group.ops[i];
      const SequenceNumber seq = group.first_seq + i;
      if (op.kind == WalOp::Kind::kSecondaryRangeDelete) {
        // Re-apply the in-place purge at its original position in the
        // timeline: it covers exactly the entries replayed before it.
        mem_->PurgeDeleteKeyRange(op.delete_key, op.delete_key_end);
      } else {
        if (mem_->empty()) {
          mem_first_seq_ = seq;
          mem_first_time_ = group.time;
        }
        ApplyToMemTable(mem_.get(), op, seq, group.time);
      }
      if (seq > versions_->LastSequence()) {
        versions_->SetLastSequence(seq);
      }
    }
  }

  // Start a fresh log containing the replayed groups, then retire the old
  // ones, so a second crash before the next flush still recovers everything.
  LETHE_RETURN_IF_ERROR(RotateWalLocked());
  VersionEdit edit;
  edit.wal_number = wal_number_;
  LETHE_RETURN_IF_ERROR(wal_->AddFramed(relog, /*sync=*/false));
  LETHE_RETURN_IF_ERROR(LogAndApplyLocked(&edit));
  for (uint64_t number : to_replay) {
    options_.env->RemoveFile(WalFileName(dbname_, number)).ok();
  }
  for (uint64_t number : obsolete) {
    options_.env->RemoveFile(WalFileName(dbname_, number)).ok();
  }
  return Status::OK();
}

Status DBImpl::RotateWalLocked() {
  if (!options_.enable_wal) {
    return Status::OK();
  }
  const uint64_t number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> file;
  LETHE_RETURN_IF_ERROR(
      options_.env->NewWritableFile(WalFileName(dbname_, number), &file));
  if (wal_ != nullptr) {
    wal_->Close().ok();
  }
  wal_ = std::make_unique<WalWriter>(std::move(file));
  wal_number_ = number;
  return Status::OK();
}

}  // namespace lethe
