#include "src/lsm/compaction.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "src/format/sstable_builder.h"
#include "src/lsm/read_path.h"

namespace lethe {

Status CollectFileInputs(VersionSet* versions,
                         const std::vector<std::shared_ptr<FileMeta>>& files,
                         std::vector<std::unique_ptr<InternalIterator>>* iters,
                         std::vector<RangeTombstone>* rts) {
  for (const auto& meta : files) {
    // fill_cache=false: a merge streams each input page exactly once and
    // then deletes the file — inserting those decodes would churn the
    // LRU against the pages point lookups are actually hot on.
    iters->push_back(
        NewRunIterator(versions->table_cache(), {meta}, /*fill_cache=*/false));
    LETHE_RETURN_IF_ERROR(
        AppendRangeTombstones(versions->table_cache(), *meta, rts));
  }
  return Status::OK();
}

std::vector<RangeTombstone> ClipRangeTombstones(
    const std::vector<RangeTombstone>& rts,
    const std::optional<std::string>& begin,
    const std::optional<std::string>& end) {
  std::vector<RangeTombstone> clipped;
  for (const RangeTombstone& rt : rts) {
    RangeTombstone piece = rt;
    if (begin && Slice(*begin).compare(Slice(piece.begin_key)) > 0) {
      piece.begin_key = *begin;
    }
    if (end && Slice(*end).compare(Slice(piece.end_key)) < 0) {
      piece.end_key = *end;
    }
    if (Slice(piece.begin_key).compare(Slice(piece.end_key)) < 0) {
      clipped.push_back(std::move(piece));
    }
  }
  return clipped;
}

uint64_t ExpiryDue(std::vector<std::pair<uint64_t, uint64_t>>* expiring,
                   uint64_t entry_bytes) {
  uint64_t expiring_bytes = 0;
  for (const auto& [deadline, bytes] : *expiring) {
    expiring_bytes += bytes;
  }
  if (expiring->empty() || 2 * expiring_bytes < entry_bytes) {
    return FileMeta::kNever;
  }
  std::sort(expiring->begin(), expiring->end());
  uint64_t due_bytes = 0;
  for (const auto& [deadline, bytes] : *expiring) {
    due_bytes += bytes;
    if (2 * due_bytes >= entry_bytes) {
      return deadline;
    }
  }
  return FileMeta::kNever;  // unreachable: the sum covered half above
}

void SetTableMeta(const TableProperties& props,
                  const std::vector<RangeTombstone>& rts, FileMeta* meta) {
  meta->file_size = props.file_size;
  meta->num_entries = props.num_entries;
  meta->num_point_tombstones = props.num_point_tombstones;
  meta->num_range_tombstones = props.num_range_tombstones;
  meta->smallest_key = props.smallest_key;
  meta->largest_key = props.largest_key;
  meta->min_delete_key = props.min_delete_key;
  meta->max_delete_key = props.max_delete_key;
  meta->smallest_seq = props.smallest_seq;
  meta->largest_seq = props.largest_seq;
  meta->num_pages = props.num_pages;
  SequenceNumber oldest_seq = props.num_point_tombstones > 0
                                  ? props.oldest_point_tombstone_seq
                                  : kMaxSequenceNumber;
  bool has_span = props.num_entries > 0;
  for (const RangeTombstone& rt : rts) {
    if (!has_span ||
        Slice(rt.begin_key).compare(Slice(meta->smallest_key)) < 0) {
      meta->smallest_key = rt.begin_key;
    }
    if (!has_span || Slice(rt.end_key).compare(Slice(meta->largest_key)) > 0) {
      meta->largest_key = rt.end_key;
    }
    has_span = true;
    oldest_seq = std::min(oldest_seq, rt.seq);
  }
  if (meta->HasTombstones()) {
    meta->oldest_tombstone_seq = oldest_seq;
  }
}

Status MergeExecutor::OpenOutput(std::unique_ptr<Output>* output,
                                 std::optional<std::string> window_begin) {
  auto out = std::make_unique<Output>();
  out->file_number = versions_->NewFileNumber();
  LETHE_RETURN_IF_ERROR(options_.env->NewWritableFile(
      TableFileName(versions_->dbname(), out->file_number), &out->file));
  out->builder =
      std::make_unique<SSTableBuilder>(options_.table, out->file.get());
  out->window_begin = std::move(window_begin);
  *output = std::move(out);
  return Status::OK();
}

Status MergeExecutor::FinishOutput(Output* output,
                                   const std::vector<RangeTombstone>& rts,
                                   std::optional<std::string> window_end,
                                   const MergeConfig& config,
                                   VersionEdit* edit) {
  // Clip each surviving range tombstone to this output's window so the set
  // of output files covers exactly the union of input tombstone ranges. At
  // the bottommost level tombstones are normally persistent (not written),
  // but one pinned by a live snapshot still has versions to hide and must
  // be carried forward until the snapshot is released.
  const SequenceNumber oldest_snapshot = config.snapshots.empty()
                                             ? kMaxSequenceNumber
                                             : config.snapshots.front();
  for (const RangeTombstone& piece :
       ClipRangeTombstones(rts, output->window_begin, window_end)) {
    if (config.bottommost && piece.seq <= oldest_snapshot) {
      continue;  // persistent: nothing below the last level to invalidate
    }
    output->builder->AddRangeTombstone(piece);
  }

  TableProperties props;
  LETHE_RETURN_IF_ERROR(output->builder->Finish(&props));
  LETHE_RETURN_IF_ERROR(output->file->Sync());
  LETHE_RETURN_IF_ERROR(output->file->Close());

  if (props.num_entries == 0 && props.num_range_tombstones == 0) {
    // Nothing survived into this output; drop the empty file.
    options_.env
        ->RemoveFile(TableFileName(versions_->dbname(), output->file_number))
        .ok();
    return Status::OK();
  }

  FileMeta meta;
  meta.file_number = output->file_number;
  meta.run_id = config.output_run_id;
  SetTableMeta(props, output->builder->range_tombstones(), &meta);
  meta.expiry_due = ExpiryDue(&output->expiring, output->entry_bytes);

  // Resolve the oldest tombstone's insertion time: point tombstones via the
  // seq→time checkpoint map (conservative floor), expired values at the
  // merge's clock, range tombstones exactly.
  uint64_t oldest = kNoTombstoneTime;
  if (output->oldest_deleted_seq != kMaxSequenceNumber) {
    oldest = versions_->TimeOfSeq(output->oldest_deleted_seq);
  }
  if (output->has_expired) {
    oldest = std::min(oldest, config.now);
  }
  if (props.num_range_tombstones > 0) {
    oldest = std::min(oldest, props.oldest_range_tombstone_time);
  }
  meta.oldest_tombstone_time = oldest;

  if (config.is_flush) {
    stats_->flush_bytes_written.fetch_add(props.file_size,
                                          std::memory_order_relaxed);
    stats_->flush_output_files.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_->compaction_bytes_written.fetch_add(props.file_size,
                                               std::memory_order_relaxed);
  }

  edit->added_files.emplace_back(config.output_level, std::move(meta));
  return Status::OK();
}

Status MergeExecutor::Run(
    InternalIterator* input,
    const std::vector<RangeTombstone>& input_range_tombstones,
    const MergeConfig& config, VersionEdit* edit) {
  // The cut loop below passes each key once, in order.
  assert(std::adjacent_find(config.cut_keys.begin(), config.cut_keys.end(),
                            std::greater_equal<>()) == config.cut_keys.end());
  if (!config.count_merge_stats) {
    // Secondary partition of a fanned-out merge: the primary already
    // counted the merge itself.
  } else if (config.is_flush) {
    stats_->flushes.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_->compactions.fetch_add(1, std::memory_order_relaxed);
    if (config.trigger == CompactionPick::Trigger::kTtlExpiry) {
      stats_->compactions_ttl_triggered.fetch_add(1,
                                                  std::memory_order_relaxed);
    } else {
      stats_->compactions_saturation_triggered.fetch_add(
          1, std::memory_order_relaxed);
    }
    stats_->compaction_bytes_read.fetch_add(config.input_bytes,
                                            std::memory_order_relaxed);
  }

  // The drop rule below probes MinCoverSeqAbove once per input entry; the
  // fragmented index makes that O(log F) against tombstone-heavy inputs.
  const FragmentedRangeTombstoneList rts(input_range_tombstones);

  // Snapshot stripes: two sequences are in the same stripe when no pinned
  // snapshot separates them (no S with lo <= S < hi), in which case no
  // reader can ever see the older one without the newer one also applying.
  const std::vector<SequenceNumber>& snapshots = config.snapshots;
  const SequenceNumber oldest_snapshot =
      snapshots.empty() ? kMaxSequenceNumber : snapshots.front();
  auto same_stripe = [&snapshots](SequenceNumber a, SequenceNumber b) {
    if (a > b) {
      std::swap(a, b);
    }
    auto it = std::lower_bound(snapshots.begin(), snapshots.end(), a);
    return it == snapshots.end() || *it >= b;
  };
  // Whether every snapshot that can see `seq` was created at or after
  // `time`: the oldest of them was (creation times ascend with sequences).
  auto seen_only_after = [&](SequenceNumber seq, uint64_t time) {
    auto it = std::lower_bound(snapshots.begin(), snapshots.end(), seq);
    return it == snapshots.end() ||
           config.snapshot_times[it - snapshots.begin()] >= time;
  };

  std::unique_ptr<Output> current;
  std::unique_ptr<Output> pending;  // awaits its window-end boundary
  size_t next_cut = 0;              // first cut key not yet passed

  std::string last_user_key;
  bool has_last_key = false;
  SequenceNumber last_version_seq = 0;
  uint64_t entries_in = 0, entries_out = 0;
  uint64_t invalid_purged = 0, tombstones_dropped = 0, expired = 0;
  uint64_t secondary_deleted = 0;
  const SecondaryDeleteSet* secondary_deletes = config.secondary_deletes.get();

  if (config.partition_begin) {
    input->Seek(Slice(*config.partition_begin));
  } else {
    input->SeekToFirst();
  }
  for (; input->Valid(); input->Next()) {
    const ParsedEntry& entry = input->entry();
    if (config.partition_end &&
        entry.user_key.compare(Slice(*config.partition_end)) >= 0) {
      break;  // the next partition owns this key onward
    }
    if (config.abort != nullptr && (entries_in & 0xFF) == 0 &&
        config.abort->load(std::memory_order_relaxed)) {
      return Status::IOError("subcompaction aborted by sibling failure");
    }
    entries_in++;
    if (secondary_deletes != nullptr &&
        secondary_deletes->Hides(entry.delete_key, entry.seq)) {
      secondary_deleted++;  // never reaches the version-chain rules below
      continue;
    }

    bool drop = false;
    if (has_last_key && entry.user_key == Slice(last_user_key)) {
      // Older version of a key we already emitted or decided about. It is
      // obsolete unless a pinned snapshot separates it from that newer
      // version — such a snapshot sees this version and not the newer one.
      if (same_stripe(entry.seq, last_version_seq)) {
        drop = true;
        invalid_purged++;
      }
    } else {
      last_user_key.assign(entry.user_key.data(), entry.user_key.size());
      has_last_key = true;
    }
    last_version_seq = entry.seq;
    // An expired value is deleted at its own sequence unless a snapshot
    // created before its deadline can see it. The tombstone it becomes
    // keeps shadowing the older versions a snapshot may still pin, so none
    // of them resurfaces.
    const bool expires = entry.type == ValueType::kExpiringValue &&
                         entry.delete_key != 0 &&
                         entry.delete_key <= config.now &&
                         seen_only_after(entry.seq, entry.delete_key);
    if (!drop) {
      // The *nearest* covering tombstone above the version decides: if no
      // pinned snapshot separates them, every snapshot that could see the
      // version sees that delete instead, so the version is dead even when
      // a still-newer tombstone sits on the far side of a snapshot. (Using
      // the max cover seq here would disagree with FinishOutput's
      // rt-persistence rule and resurrect the version once the nearer
      // tombstone is retired at the bottommost level.)
      const SequenceNumber cover_seq =
          rts.MinCoverSeqAbove(entry.user_key, entry.seq);
      if (cover_seq != 0 && same_stripe(entry.seq, cover_seq)) {
        // Covered by a newer range tombstone no snapshot can see past.
        drop = true;
        invalid_purged++;
        if (entry.IsTombstone()) {
          tombstones_dropped++;  // superseded by a newer range tombstone
        }
      } else if ((entry.IsTombstone() || expires) && config.bottommost &&
                 entry.seq <= oldest_snapshot) {
        // The tombstone reaches the last level and sits in the oldest
        // stripe (every older version of the key is dropped with it): the
        // delete is persistent.
        drop = true;
        (entry.IsTombstone() ? tombstones_dropped : expired)++;
      }
    }
    if (drop) {
      continue;
    }

    // Cut the output once it is full, or at the first entry at or past a
    // cut key — but never between two versions of the same user key. A
    // run's point-lookup routing (SortedRun::FindFile) probes exactly one
    // file per key, so a version chain straddling a file boundary would
    // hide its newer versions from reads; and a tail output holding only
    // that key would tie another file's smallest key, making the run's sort
    // order — and its non-overlap invariant — ambiguous. Chains longer than
    // one entry exist only under pinned snapshots, so without snapshots the
    // size cut lands exactly where it always did. Every entry before the
    // one that passes a cut key sorts below that key, so that entry starts
    // a new user key and the cut never waits; a cut key passed before any
    // output opened needs no cut.
    bool passed_cut = false;
    while (next_cut < config.cut_keys.size() &&
           entry.user_key.compare(Slice(config.cut_keys[next_cut])) >= 0) {
      next_cut++;
      passed_cut = true;
    }
    if (current != nullptr &&
        (passed_cut ||
         current->builder->EstimatedSize() >= options_.target_file_bytes) &&
        entry.user_key != Slice(current->last_key)) {
      pending = std::move(current);
    }
    if (current == nullptr) {
      std::optional<std::string> window_begin;
      if (pending != nullptr) {
        // The first key of this new output closes the previous window.
        window_begin = entry.user_key.ToString();
        Output* done = pending.get();
        LETHE_RETURN_IF_ERROR(
            FinishOutput(done, input_range_tombstones, window_begin, config,
                         edit));
        pending.reset();
      }
      LETHE_RETURN_IF_ERROR(OpenOutput(&current, window_begin));
      current->first_key = entry.user_key.ToString();
    }
    if (expires) {
      ParsedEntry tombstone = entry;
      tombstone.type = ValueType::kTombstone;
      tombstone.value = Slice();
      current->builder->Add(tombstone);
      current->has_expired = true;
      current->entry_bytes += entry.user_key.size();
      expired++;
    } else {
      current->builder->Add(entry);
      if (entry.IsTombstone()) {
        current->oldest_deleted_seq =
            std::min(current->oldest_deleted_seq, entry.seq);
      }
      const uint64_t bytes = entry.user_key.size() + entry.value.size();
      current->entry_bytes += bytes;
      if (entry.type == ValueType::kExpiringValue && entry.delete_key != 0) {
        current->expiring.emplace_back(entry.delete_key, bytes);
      }
    }
    current->last_key.assign(entry.user_key.data(), entry.user_key.size());
    current->has_entries = true;
    entries_out++;
  }
  LETHE_RETURN_IF_ERROR(input->status());

  if (current != nullptr) {
    LETHE_RETURN_IF_ERROR(FinishOutput(current.get(), input_range_tombstones,
                                       std::nullopt, config, edit));
  } else if (pending != nullptr) {
    LETHE_RETURN_IF_ERROR(FinishOutput(pending.get(), input_range_tombstones,
                                       std::nullopt, config, edit));
  } else if (!input_range_tombstones.empty()) {
    // No data survived but range tombstones must be carried forward in a
    // tombstone-only file (at bottommost, only when a snapshot pins some).
    bool carry = !config.bottommost;
    for (size_t i = 0; !carry && i < input_range_tombstones.size(); i++) {
      carry = input_range_tombstones[i].seq > oldest_snapshot;
    }
    if (carry) {
      std::unique_ptr<Output> rt_only;
      LETHE_RETURN_IF_ERROR(OpenOutput(&rt_only, std::nullopt));
      LETHE_RETURN_IF_ERROR(FinishOutput(rt_only.get(), input_range_tombstones,
                                         std::nullopt, config, edit));
    }
  }

  if (config.bottommost && config.count_merge_stats) {
    // Range tombstones that reached the last level unpinned were not
    // persisted (skipped in FinishOutput); count them as persisted deletes
    // — once per logical merge, not once per partition piece.
    uint64_t dropped;
    if (config.dropped_range_tombstones != UINT64_MAX) {
      dropped = config.dropped_range_tombstones;
    } else {
      dropped = 0;
      for (const RangeTombstone& rt : input_range_tombstones) {
        if (rt.seq <= oldest_snapshot) {
          dropped++;
        }
      }
    }
    stats_->tombstones_dropped.fetch_add(dropped, std::memory_order_relaxed);
  }
  stats_->compaction_entries_in.fetch_add(entries_in,
                                          std::memory_order_relaxed);
  stats_->compaction_entries_out.fetch_add(entries_out,
                                           std::memory_order_relaxed);
  stats_->invalid_entries_purged.fetch_add(invalid_purged,
                                           std::memory_order_relaxed);
  stats_->tombstones_dropped.fetch_add(tombstones_dropped,
                                       std::memory_order_relaxed);
  stats_->net_keys_expired_active.fetch_add(expired,
                                            std::memory_order_relaxed);
  stats_->entries_purged_by_srd.fetch_add(secondary_deleted,
                                          std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace lethe
