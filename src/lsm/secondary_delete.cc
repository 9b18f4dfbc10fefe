#include "src/lsm/secondary_delete.h"

#include <algorithm>
#include <memory>

#include "src/format/page.h"
#include "src/format/sstable_reader.h"

namespace lethe {

namespace {

/// Ensures the per-page live-count vectors are populated from the file's
/// index metadata (first touch only).
void EnsurePageCounts(FileMeta* meta, const TableIndex& index) {
  if (meta->page_live_entries.empty()) {
    meta->page_live_entries.reserve(index.pages.size());
    meta->page_live_tombstones.reserve(index.pages.size());
    for (const PageInfo& page : index.pages) {
      meta->page_live_entries.push_back(page.num_entries);
      meta->page_live_tombstones.push_back(page.num_tombstones);
    }
  }
}

}  // namespace

Status ExecuteSecondaryRangeDelete(const Options& resolved_options,
                                   VersionSet* versions, Statistics* stats,
                                   const Version& version,
                                   const SecondaryDeleteSet& deletes,
                                   VersionEdit* edit) {
  for (const auto& [level, file] : version.AllFiles()) {
    // Ranges issued before the file's oldest entry remove none of it; the
    // ones issued after its newest entry remove all of it in their keys.
    const DeleteKeyIntervals touches =
        deletes.IntervalsAtOrAbove(file->smallest_seq);
    if (std::none_of(touches.begin(), touches.end(),
                     [&file](const auto& interval) {
                       return file->OverlapsDeleteKeyRange(interval.first,
                                                           interval.second);
                     })) {
      continue;
    }
    std::shared_ptr<SSTableReader> table;
    LETHE_RETURN_IF_ERROR(versions->table_cache()->GetTable(*file, &table));
    SecondaryDeletePlan plan;
    table->PlanSecondaryRangeDelete(
        deletes.IntervalsAtOrAbove(file->largest_seq), touches, file.get(),
        &plan);
    if (plan.full_drop_pages.empty() && plan.partial_pages.empty()) {
      continue;
    }

    FileMeta updated = *file;
    EnsurePageCounts(&updated, table->index());
    PageCache* page_cache = versions->table_cache()->page_cache();
    // Only partial pages rewrite bytes in place; full drops are fenced by
    // IsPageDropped and never invalidate a decode. When a rewrite happens,
    // readers of the new version look pages up under the bumped generation,
    // so no interleaving with concurrent lock-free reads can leave a stale
    // decode reachable. Old-generation entries are reclaimed below once the
    // new bytes are on disk.
    const uint32_t old_generation = updated.page_generation;
    const bool rewrites_pages = !plan.partial_pages.empty();
    if (rewrites_pages) {
      updated.page_generation++;
    }

    // Full page drops: flip the liveness bit, adjust counters, never touch
    // the page bytes.
    for (uint32_t p : plan.full_drop_pages) {
      uint64_t live = updated.page_live_entries[p];
      uint64_t live_tombstones = updated.page_live_tombstones[p];
      updated.DropPage(p);
      updated.num_entries -= live;
      updated.num_point_tombstones -= live_tombstones;
      updated.page_live_entries[p] = 0;
      updated.page_live_tombstones[p] = 0;
      stats->full_page_drops.fetch_add(1, std::memory_order_relaxed);
      stats->entries_purged_by_srd.fetch_add(live, std::memory_order_relaxed);
    }

    // Partial page drops: read, filter, rewrite in place.
    std::unique_ptr<RandomWriteFile> writer;
    for (uint32_t p : plan.partial_pages) {
      PageHandle contents;
      // fill_cache=false: this decode dies with the rewrite below; caching
      // it would be insert-then-erase churn.
      LETHE_RETURN_IF_ERROR(table->ReadPage(p, &contents, old_generation,
                                            /*from_cache=*/nullptr,
                                            /*fill_cache=*/false));
      stats->pages_scanned_for_srd.fetch_add(1, std::memory_order_relaxed);

      PageBuilder rebuilt(resolved_options.table.page_size_bytes,
                          MaxEntriesPerPage(resolved_options.table));
      uint64_t removed = 0, removed_tombstones = 0;
      // Kept entries are copied as encoded, not decoded and re-encoded.
      const PageEntries& entries = contents->entries;
      for (size_t i = 0; i < entries.size(); i++) {
        const ParsedEntry entry = entries[i];
        if (deletes.Hides(entry.delete_key, entry.seq)) {
          removed++;
          if (entry.IsTombstone()) {
            removed_tombstones++;
          }
          continue;
        }
        rebuilt.AddEncoded(entries.encoded(i));
      }
      if (removed == 0) {
        continue;  // fence range overlapped but no entry actually qualified
      }

      if (rebuilt.empty()) {
        // Everything in the page qualified after all; treat as a full drop
        // (the read already happened, so it still counts as a partial).
        updated.DropPage(p);
      } else {
        if (writer == nullptr) {
          LETHE_RETURN_IF_ERROR(resolved_options.env->NewRandomWriteFile(
              TableFileName(versions->dbname(), updated.file_number),
              &writer));
        }
        LETHE_RETURN_IF_ERROR(
            table->RewritePage(writer.get(), p, rebuilt.Finish()));
      }
      updated.num_entries -= removed;
      updated.num_point_tombstones -= removed_tombstones;
      updated.page_live_entries[p] -= static_cast<uint32_t>(removed);
      updated.page_live_tombstones[p] -=
          static_cast<uint32_t>(removed_tombstones);
      stats->partial_page_drops.fetch_add(1, std::memory_order_relaxed);
      stats->entries_purged_by_srd.fetch_add(removed,
                                             std::memory_order_relaxed);
    }
    if (writer != nullptr) {
      LETHE_RETURN_IF_ERROR(writer->Sync());
      LETHE_RETURN_IF_ERROR(writer->Close());
    }

    // Memory reclaim only (correctness comes from the generation fence): a
    // bump orphaned every old-generation decode of this file, so sweep them
    // all; without a bump just the fully dropped pages are dead weight.
    if (page_cache != nullptr) {
      if (rewrites_pages) {
        for (uint32_t p = 0; p < updated.num_pages; p++) {
          page_cache->EvictPage(updated.file_number, p, old_generation);
        }
      } else {
        for (uint32_t p : plan.full_drop_pages) {
          page_cache->EvictPage(updated.file_number, p, old_generation);
        }
      }
    }

    edit->removed_files.push_back({level, updated.file_number});
    if (updated.live_page_count() == 0 && updated.num_range_tombstones == 0) {
      continue;  // the whole file is gone
    }
    // Note: the delete-key range [min_delete_key, max_delete_key] is left
    // conservatively wide; recomputing it exactly would require reading the
    // surviving pages.
    edit->added_files.emplace_back(level, std::move(updated));
  }
  return Status::OK();
}

}  // namespace lethe
