// DB::Repair — the one salvage step, for a database Open refuses: a WAL
// damaged before its end, or a MANIFEST that does not replay. Open never
// rolls back to an older manifest, which would undo acknowledged deletes.
//
// The manifest is the only copy of the tree's shape; the data still lives
// in the .sst files, and each file's properties block and range tombstones
// (guarded by the footer's meta_crc) describe it. Repair rebuilds a
// consistent — if conservatively aged — version from the tables, through
// the engine's own code: SetTableMeta describes each table as a merge
// describes its outputs, VersionSet::LoadManifest replays the manifests it
// finds, and VersionSet::InstallSnapshot writes the result through the
// snapshot writer Open and the MANIFEST roll use:
//
//   - every table whose metadata checksum verifies is adopted; any that
//     fails verification is renamed to `<name>.bad` (invisible to the
//     engine's file-name parser) for offline inspection,
//   - a table's key span covers its range tombstones, so a table of range
//     deletes alone still hides the older entries it covers,
//   - tables are ordered shallow to deep as Get needs them (ScanTables),
//   - leveling rebuilds the one-run-per-level invariant greedily: files are
//     placed in that order, each strictly below every already-placed file
//     it overlaps, so an older version can never shadow a newer one on the
//     shallow-to-deep read path,
//   - tiering gives each file its own run, run ids in that order (run
//     recency is id order),
//   - each table's expiry due time (FileMeta::expiry_due, which only the
//     MANIFEST held) is recomputed from its entries, read through the page
//     decoder, exactly as a merge computes it for its outputs, so a table
//     of expiring values is still purged when they fall due,
//   - FADE metadata is reconstructed conservatively: a salvaged point
//     tombstone's insertion time floors to 0, so its persistence deadline
//     can only move *earlier* — the delete-persistence guarantee survives
//     repair,
//   - each WAL keeps only its intact frames: frames that fail their
//     checksum or do not decode are dropped and a torn tail is cut, so
//     the next Open, which replays one way and refuses damage, accepts it;
//     a frame is one commit group, so a group is kept or dropped whole,
//   - counters resume past every number found on disk and every sequence
//     a table holds, and the manifest's wal_number points at the oldest
//     surviving WAL so unflushed writes replay at the next Open,
//   - what only a MANIFEST records about a table's pages — the pages
//     secondary range deletes dropped whole (FileMeta::dropped_pages) and
//     the live counts that go with them — and the secondary range deletes
//     still pending (Version::secondary_deletes) are carried over from the
//     newest MANIFEST that still replays, for every table it names with the
//     same size and page count. When none replays they are lost: the
//     entries of fully dropped pages, and the entries pending deletes hid,
//     become readable again (partially rewritten pages keep their
//     deletions, which are in the page bytes).

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/db.h"
#include "src/format/file_meta.h"
#include "src/format/sstable_reader.h"
#include "src/lsm/compaction.h"
#include "src/lsm/version_set.h"
#include "src/memtable/wal.h"
#include "src/util/record_log.h"

namespace lethe {

namespace {

/// A table Repair adopts.
struct SalvagedTable {
  FileMeta meta;
  std::unique_ptr<SSTableReader> reader;
  // The newest sequence it holds, range tombstones included: a table of
  // range tombstones alone has no entry to carry one.
  SequenceNumber newest_seq = 0;
};

/// Describes table `number` from its own bytes, as a merge describes its
/// outputs (SetTableMeta).
Status SalvageTable(const Options& options, const std::string& dbname,
                    uint64_t number, SalvagedTable* table) {
  const std::string fname = TableFileName(dbname, number);
  uint64_t file_size = 0;
  LETHE_RETURN_IF_ERROR(options.env->GetFileSize(fname, &file_size));
  std::unique_ptr<RandomAccessFile> file;
  LETHE_RETURN_IF_ERROR(options.env->NewRandomAccessFile(fname, &file));
  // Open verifies the footer and the metadata checksum — the same gate
  // every normal read passes through.
  LETHE_RETURN_IF_ERROR(SSTableReader::Open(options.table, std::move(file),
                                            file_size, &table->reader));
  TableProperties props;
  LETHE_RETURN_IF_ERROR(
      DecodeTableProperties(table->reader->properties_block(), &props));
  props.file_size = file_size;
  FileMeta* meta = &table->meta;
  meta->file_number = number;
  SetTableMeta(props, table->reader->range_tombstones(), meta);
  table->newest_seq = props.largest_seq;
  for (const RangeTombstone& rt : table->reader->range_tombstones()) {
    table->newest_seq = std::max(table->newest_seq, rt.seq);
  }
  // Conservative FADE reconstruction: the seq→time checkpoints a point
  // tombstone's time resolves through may be lost, so its insertion time
  // floors to 0 — its TTL reads as already expired and the next
  // delete-driven compaction persists it. Deadlines shorten, never
  // lengthen.
  meta->oldest_tombstone_time =
      props.num_point_tombstones > 0 ? 0
      : props.num_range_tombstones > 0 ? props.oldest_range_tombstone_time
                                       : kNoTombstoneTime;
  return Status::OK();
}

/// One pass over every table's entries in internal-key order. It sets each
/// table's expiry due time as a merge sets its outputs' (a table with a
/// page that does not read keeps none), and returns the order, shallow to
/// deep, that the tables must take. Get returns the first version of a key
/// it finds scanning shallow to deep, and counts only the range tombstones
/// of the tables it has passed, so for every key the tables holding its
/// versions sit newest version first, and a table whose range tombstone
/// covers a version sits above that version's table. A table's newest
/// sequence alone does not give this order: a table can hold a key's older
/// version beside newer entries of other keys. Among tables these rules
/// leave unordered, the newer goes first.
std::vector<size_t> ScanTables(std::vector<SalvagedTable>* tables) {
  const size_t n = tables->size();
  std::vector<std::unique_ptr<InternalIterator>> iters;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> expiring(n);
  std::vector<uint64_t> entry_bytes(n, 0);
  // Table indexes by their current entry, first in internal-key order on
  // top; and the tables with range tombstones, by smallest key.
  auto after = [&](size_t a, size_t b) {
    const ParsedEntry& x = iters[a]->entry();
    const ParsedEntry& y = iters[b]->entry();
    return CompareInternal(x.user_key, x.seq, y.user_key, y.seq) > 0;
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(after)> heap(
      after);
  std::vector<size_t> rt_tables;
  for (size_t i = 0; i < n; i++) {
    const SalvagedTable& table = (*tables)[i];
    iters.push_back(
        table.reader->NewIterator(&table.meta, /*fill_cache=*/false));
    iters[i]->SeekToFirst();
    if (iters[i]->Valid()) {
      heap.push(i);
    }
    if (table.meta.num_range_tombstones > 0) {
      rt_tables.push_back(i);
    }
  }
  auto key_at = [&](size_t i, bool largest) {
    const FileMeta& meta = (*tables)[i].meta;
    return Slice(largest ? meta.largest_key : meta.smallest_key);
  };
  std::sort(rt_tables.begin(), rt_tables.end(), [&](size_t a, size_t b) {
    return key_at(a, false).compare(key_at(b, false)) < 0;
  });

  std::vector<std::set<size_t>> below(n);  // tables that must sit below
  size_t next_rt = 0;
  std::vector<size_t> covering;  // rt_tables whose span holds the key
  std::string key;
  size_t newer = n;  // the table of the key's previous, newer version
  while (!heap.empty()) {
    const size_t i = heap.top();
    heap.pop();
    const ParsedEntry& entry = iters[i]->entry();
    if (newer == n || entry.user_key.compare(Slice(key)) != 0) {
      key = entry.user_key.ToString();
      newer = n;
      while (next_rt < rt_tables.size() &&
             key_at(rt_tables[next_rt], false).compare(entry.user_key) <= 0) {
        covering.push_back(rt_tables[next_rt++]);
      }
      std::erase_if(covering, [&](size_t j) {
        return key_at(j, true).compare(entry.user_key) < 0;
      });
    }
    if (newer != n && newer != i) {
      below[newer].insert(i);
    }
    newer = i;
    for (size_t j : covering) {
      if (j != i && (*tables)[j]
                            .reader->FragmentedRangeTombstones(nullptr)
                            .MaxCoverSeq(entry.user_key) > entry.seq) {
        below[j].insert(i);
      }
    }
    const uint64_t bytes = entry.user_key.size() + entry.value.size();
    entry_bytes[i] += bytes;
    if (entry.type == ValueType::kExpiringValue && entry.delete_key != 0) {
      expiring[i].emplace_back(entry.delete_key, bytes);
    }
    iters[i]->Next();
    if (iters[i]->Valid()) {
      heap.push(i);
    }
  }

  // Each table's depth: the longest chain of tables that must sit above
  // it. Tables no one tree held together can form a cycle, whose depths
  // stop at n.
  std::vector<size_t> depth(n, 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < n; i++) {
      for (size_t j : below[i]) {
        if (depth[j] <= depth[i] && depth[i] < n) {
          depth[j] = depth[i] + 1;
          changed = true;
        }
      }
    }
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; i++) {
    order[i] = i;
    if (iters[i]->status().ok()) {
      (*tables)[i].meta.expiry_due = ExpiryDue(&expiring[i], entry_bytes[i]);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const SalvagedTable& x = (*tables)[a];
    const SalvagedTable& y = (*tables)[b];
    // Shallower first; at one depth, newer first.
    return std::tie(depth[a], y.newest_seq, y.meta.file_number) <
           std::tie(depth[b], x.newest_seq, x.meta.file_number);
  });
  return order;
}

/// Drops the frames of WAL `number` that fail their checksum or do not
/// decode, resyncing to the next intact frame; a torn tail ends the log.
/// A frame is one commit group, so a damaged group is dropped whole.
/// When anything was dropped the survivors, byte for byte, replace the log
/// under the same number (temp file, then rename), so the next Open replays
/// them normally.
Status SalvageWal(Env* env, const std::string& dbname, uint64_t number) {
  const std::string fname = WalFileName(dbname, number);
  std::string contents;
  LETHE_RETURN_IF_ERROR(ReadFileToString(env, fname, &contents));
  RecordLogScanner scanner{Slice(contents)};
  std::string kept;
  bool dropped = false;
  while (true) {
    const uint64_t frame_begin = scanner.offset();
    Slice payload;
    const RecordLogScanner::Result result = scanner.Next(&payload);
    if (result == RecordLogScanner::Result::kEnd) {
      break;
    }
    WalGroup group;
    if (result == RecordLogScanner::Result::kRecord &&
        DecodeWalGroup(payload, &group)) {
      kept.append(contents, frame_begin, scanner.offset() - frame_begin);
      continue;
    }
    dropped = true;
    if (result != RecordLogScanner::Result::kRecord) {
      scanner.Resync();  // past a torn tail this reaches the end
    }
  }
  if (!dropped) {
    return Status::OK();
  }
  const std::string tmp = fname + ".tmp";
  LETHE_RETURN_IF_ERROR(WriteStringToFile(env, kept, tmp));
  return env->RenameFile(tmp, fname);
}

/// Copies the page-drop state of `recorded` (the same table, as a manifest
/// recorded it) into `meta`, rebuilt from the table's properties.
void CarryPageDrops(const FileMeta& recorded, FileMeta* meta) {
  if (recorded.file_size != meta->file_size ||
      recorded.num_pages != meta->num_pages) {
    return;  // not the table the manifest knew
  }
  meta->dropped_pages = recorded.dropped_pages;
  meta->dropped_page_count = recorded.dropped_page_count;
  meta->page_live_entries = recorded.page_live_entries;
  meta->page_live_tombstones = recorded.page_live_tombstones;
  meta->num_entries = recorded.num_entries;
  meta->num_point_tombstones = recorded.num_point_tombstones;
}

}  // namespace

Status DB::Repair(const Options& options, const std::string& name) {
  const Options resolved = options.WithDefaults();
  LETHE_RETURN_IF_ERROR(resolved.Validate());
  if (resolved.num_shards > 1) {
    // Shards are independent single-shard databases under <name>/shard-<i>;
    // repair each in turn. A shard directory that never got created (crash
    // before first open finished) is not an error to the siblings.
    Options shard_options = resolved;
    shard_options.num_shards = 1;
    Status result;
    for (int i = 0; i < resolved.num_shards; i++) {
      const std::string shard_name = name + "/shard-" + std::to_string(i);
      Status s = DB::Repair(shard_options, shard_name);
      if (!s.ok() && result.ok()) {
        result = s;
      }
    }
    return result;
  }
  Env* env = resolved.env;
  std::vector<std::string> children;
  LETHE_RETURN_IF_ERROR(env->GetChildren(name, &children));

  VersionSet versions(resolved, name);
  std::vector<SalvagedTable> salvaged;
  SequenceNumber last_sequence = 0;
  std::vector<uint64_t> manifests;
  uint64_t min_wal = 0;
  for (const std::string& child : children) {
    FileType type;
    uint64_t number = 0;
    if (!ParseFileName(child, &type, &number)) {
      continue;  // includes quarantined "<n>.sst.bad" files
    }
    versions.EnsureFileNumberPast(number);
    if (type == FileType::kWal) {
      LETHE_RETURN_IF_ERROR(SalvageWal(env, name, number));
      if (min_wal == 0 || number < min_wal) {
        min_wal = number;  // oldest surviving log: replay starts here
      }
      continue;
    }
    if (type == FileType::kManifest) {
      // Read below for what only it records; superseded by the rebuilt
      // manifest, and removed by the next Open's orphan sweep.
      manifests.push_back(number);
      continue;
    }
    SalvagedTable table;
    if (!SalvageTable(resolved, name, number, &table).ok()) {
      // Quarantine, don't delete: the page data may still be partially
      // readable with offline tooling. The .bad suffix hides the file
      // from the engine's name parser (and its orphan sweep).
      const std::string fname = TableFileName(name, number);
      env->RenameFile(fname, fname + ".bad").ok();
      continue;
    }
    last_sequence = std::max(last_sequence, table.newest_seq);
    salvaged.push_back(std::move(table));
  }

  // Page drops and pending secondary deletes from the newest manifest that
  // replays (see the header comment for what is lost when none does). Its
  // counters and seq→time checkpoints carry over with it.
  std::sort(manifests.rbegin(), manifests.rend());
  std::shared_ptr<const Version> recorded;
  for (uint64_t number : manifests) {
    if (versions.LoadManifest(ManifestFileName(name, number)).ok()) {
      recorded = versions.current();
      break;
    }
  }
  if (recorded != nullptr) {
    std::map<uint64_t, const FileMeta*> by_number;
    for (const auto& [level, file] : recorded->AllFiles()) {
      by_number[file->file_number] = file.get();
    }
    for (SalvagedTable& table : salvaged) {
      auto it = by_number.find(table.meta.file_number);
      if (it != by_number.end()) {
        CarryPageDrops(*it->second, &table.meta);
      }
    }
  }

  // Shallow to deep: under leveling the greedy placement below then keeps
  // each table strictly below every table it must sit under.
  const std::vector<size_t> order = ScanTables(&salvaged);

  VersionEdit edit;
  if (resolved.compaction_style == CompactionStyle::kTiering) {
    // One run per file, ids in placement order (shallower = larger id, as
    // run recency is id order). All land in L0; the size-ratio triggers
    // re-tier them on the next open.
    uint64_t id = salvaged.size();
    for (size_t i : order) {
      salvaged[i].meta.run_id = id--;
      edit.added_files.emplace_back(0, std::move(salvaged[i].meta));
    }
    edit.next_run_id = salvaged.size() + 1;
  } else {
    std::vector<std::vector<FileMeta>> levels;
    for (size_t i : order) {
      FileMeta& meta = salvaged[i].meta;
      // Every file sits strictly below every already-placed file it
      // overlaps, among them each it must sit under. The shallowest level
      // satisfying that is 1 + the deepest overlapping placement — NOT the
      // shallowest overlap-free slot, which could park a file above one it
      // must sit under and serve stale values.
      // That level is itself overlap-free: any placed file there would have
      // pushed the search deeper.
      size_t level = 0;
      for (size_t l = 0; l < levels.size(); l++) {
        if (std::any_of(levels[l].begin(), levels[l].end(),
                        [&](const FileMeta& placed) {
                          return placed.OverlapsKeyRange(meta.smallest_key,
                                                         meta.largest_key);
                        })) {
          level = l + 1;
        }
      }
      if (level == levels.size()) {
        levels.emplace_back();
      }
      levels[level].push_back(std::move(meta));
    }
    for (size_t level = 0; level < levels.size(); level++) {
      for (FileMeta& meta : levels[level]) {
        edit.added_files.emplace_back(static_cast<int>(level),
                                      std::move(meta));
      }
    }
  }

  // wal_number points at the oldest surviving WAL, so unflushed writes
  // replay at the next Open.
  edit.wal_number = min_wal;
  if (recorded != nullptr && recorded->secondary_deletes() != nullptr) {
    edit.secondary_deletes = *recorded->secondary_deletes();
    // A later write must sequence above every pending delete, or it would
    // be hidden as if the delete had removed it.
    for (const SecondaryDeleteRange& range : edit.secondary_deletes->ranges()) {
      last_sequence = std::max(last_sequence, range.seq);
    }
  }
  edit.last_sequence = last_sequence;
  // Written as a fresh snapshot manifest through the one snapshot writer,
  // which swings CURRENT at it atomically. The old manifests stay behind;
  // the next Open's orphan sweep removes everything CURRENT no longer
  // names.
  return versions.InstallSnapshot(edit);
}

}  // namespace lethe
