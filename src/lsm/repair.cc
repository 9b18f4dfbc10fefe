// DB::Repair — rebuild a MANIFEST from the table files alone, and salvage
// the WALs Open refuses to replay.
//
// The manifest is the only copy of the tree's shape; when it and every
// fallback snapshot are damaged, the data still lives in the .sst files and
// each file's properties block still describes its key/seq/tombstone ranges
// (guarded by the footer's meta_crc). Repair re-derives a consistent — if
// conservatively aged — version from those properties:
//
//   - every table whose metadata checksum verifies is adopted; any that
//     fails verification is renamed to `<name>.bad` (invisible to the
//     engine's file-name parser) for offline inspection,
//   - leveling rebuilds the one-run-per-level invariant greedily: files are
//     placed newest-first (by largest_seq), each strictly below every
//     already-placed file it overlaps, so an older file can never shadow a
//     newer overlapping one on the shallow-to-deep read path,
//   - tiering gives each file its own run, run ids assigned in seq order
//     (run recency is id order),
//   - FADE metadata is reconstructed conservatively: with the seq→time
//     checkpoint map lost, a salvaged point tombstone's insertion time
//     floors to 0, so its persistence deadline can only move *earlier* —
//     the delete-persistence guarantee survives repair,
//   - each WAL keeps only its intact frames: frames that fail their
//     checksum or do not decode are dropped and a torn tail is cut, so
//     the next Open, which replays one way and refuses damage, accepts it;
//     a frame is one commit group, so a group is kept or dropped whole,
//   - counters resume past every number found on disk, and the manifest's
//     wal_number points at the oldest surviving WAL so unflushed writes
//     replay at the next Open.

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/format/file_meta.h"
#include "src/format/sstable_format.h"
#include "src/format/sstable_reader.h"
#include "src/lsm/version_set.h"
#include "src/memtable/wal.h"
#include "src/util/coding.h"
#include "src/util/record_log.h"

namespace lethe {

namespace {

/// Parses the footer + properties block of one table file. The caller has
/// already verified the metadata checksum via SSTableReader::Open; this
/// only needs to decode.
Status ReadTableProperties(Env* env, const std::string& fname,
                           uint64_t file_size, FileMeta* meta) {
  if (file_size < kFooterSize) {
    return Status::Corruption("file shorter than footer");
  }
  std::unique_ptr<RandomAccessFile> file;
  LETHE_RETURN_IF_ERROR(env->NewRandomAccessFile(fname, &file));
  char footer_buf[kFooterSize];
  Slice footer;
  LETHE_RETURN_IF_ERROR(file->Read(file_size - kFooterSize, kFooterSize,
                                   &footer, footer_buf));
  if (footer.size() != kFooterSize ||
      DecodeFixed64(footer.data() + kFooterSize - 8) != kTableMagic) {
    return Status::Corruption("bad table magic");
  }
  const uint64_t props_offset = DecodeFixed64(footer.data() + 24);
  const uint32_t props_len = DecodeFixed32(footer.data() + 32);
  if (props_offset + props_len > file_size) {
    return Status::Corruption("properties block out of bounds");
  }
  std::string props_buf(props_len, '\0');
  Slice props;
  LETHE_RETURN_IF_ERROR(
      file->Read(props_offset, props_len, &props, props_buf.data()));

  uint32_t num_pages = 0, num_tiles = 0;
  uint64_t num_entries = 0, num_point_ts = 0, num_range_ts = 0;
  Slice smallest_key, largest_key;
  uint64_t min_delete_key = 0, max_delete_key = 0;
  uint64_t smallest_seq = 0, largest_seq = 0;
  uint64_t oldest_point_ts_seq = 0, oldest_range_ts_time = 0;
  if (!GetVarint32(&props, &num_pages) || !GetVarint32(&props, &num_tiles) ||
      !GetFixed64(&props, &num_entries) ||
      !GetFixed64(&props, &num_point_ts) ||
      !GetFixed64(&props, &num_range_ts) ||
      !GetLengthPrefixedSlice(&props, &smallest_key) ||
      !GetLengthPrefixedSlice(&props, &largest_key) ||
      !GetFixed64(&props, &min_delete_key) ||
      !GetFixed64(&props, &max_delete_key) ||
      !GetFixed64(&props, &smallest_seq) || !GetFixed64(&props, &largest_seq) ||
      !GetFixed64(&props, &oldest_point_ts_seq) ||
      !GetFixed64(&props, &oldest_range_ts_time)) {
    return Status::Corruption("properties block malformed");
  }

  meta->file_size = file_size;
  meta->num_entries = num_entries;
  meta->num_point_tombstones = num_point_ts;
  meta->num_range_tombstones = num_range_ts;
  meta->smallest_key = smallest_key.ToString();
  meta->largest_key = largest_key.ToString();
  meta->min_delete_key = min_delete_key;
  meta->max_delete_key = max_delete_key;
  meta->smallest_seq = smallest_seq;
  meta->largest_seq = largest_seq;
  meta->num_pages = num_pages;
  // Conservative FADE reconstruction: the seq→time checkpoints died with
  // the manifest, so a point tombstone's insertion time floors to 0 — its
  // TTL reads as already expired and the next delete-driven compaction
  // persists it. Deadlines shorten, never lengthen.
  uint64_t oldest = kNoTombstoneTime;
  if (num_point_ts > 0) {
    oldest = 0;
  }
  if (num_range_ts > 0) {
    oldest = std::min(oldest, oldest_range_ts_time);
  }
  meta->oldest_tombstone_time = oldest;
  return Status::OK();
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

bool KeyRangesOverlap(const FileMeta& a, const FileMeta& b) {
  return Slice(a.smallest_key).compare(Slice(b.largest_key)) <= 0 &&
         Slice(b.smallest_key).compare(Slice(a.largest_key)) <= 0;
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

  std::vector<FileMeta> salvaged;
  uint64_t min_wal = 0;
  uint64_t max_number = 0;
  for (const std::string& child : children) {
    FileType type;
    uint64_t number = 0;
    if (!ParseFileName(child, &type, &number)) {
      continue;  // includes quarantined "<n>.sst.bad" files
    }
    max_number = std::max(max_number, number);
    if (type == FileType::kWal) {
      LETHE_RETURN_IF_ERROR(SalvageWal(env, name, number));
      if (min_wal == 0 || number < min_wal) {
        min_wal = number;  // oldest surviving log: replay starts here
      }
      continue;
    }
    if (type == FileType::kManifest) {
      continue;  // superseded below; the next Open's orphan sweep removes it
    }
    const std::string fname = TableFileName(name, number);
    uint64_t file_size = 0;
    Status s = env->GetFileSize(fname, &file_size);
    if (s.ok()) {
      // Open verifies the footer and the metadata checksum — the same
      // gate every normal read passes through.
      std::unique_ptr<RandomAccessFile> file;
      s = env->NewRandomAccessFile(fname, &file);
      if (s.ok()) {
        std::unique_ptr<SSTableReader> reader;
        s = SSTableReader::Open(resolved.table, std::move(file), file_size,
                                &reader);
      }
    }
    FileMeta meta;
    meta.file_number = number;
    if (s.ok()) {
      s = ReadTableProperties(env, fname, file_size, &meta);
    }
    if (!s.ok()) {
      // Quarantine, don't delete: the page data may still be partially
      // readable with offline tooling. The .bad suffix hides the file
      // from the engine's name parser (and its orphan sweep).
      env->RenameFile(fname, fname + ".bad").ok();
      continue;
    }
    salvaged.push_back(std::move(meta));
  }

  // Newest-first: under leveling the greedy placement below then keeps any
  // overlapping older file strictly deeper, preserving recency.
  std::sort(salvaged.begin(), salvaged.end(),
            [](const FileMeta& a, const FileMeta& b) {
              if (a.largest_seq != b.largest_seq) {
                return a.largest_seq > b.largest_seq;
              }
              return a.file_number > b.file_number;
            });

  VersionEdit edit;
  uint64_t next_run_id = 1;
  SequenceNumber last_sequence = 0;
  if (resolved.compaction_style == CompactionStyle::kTiering) {
    // One run per file, ids in age order (older = smaller id). All land in
    // L0; the size-ratio triggers re-tier them on the next open.
    uint64_t id = salvaged.size();
    for (FileMeta& meta : salvaged) {
      meta.run_id = id--;
      last_sequence = std::max(last_sequence, meta.largest_seq);
    }
    next_run_id = salvaged.size() + 1;
    for (FileMeta& meta : salvaged) {
      edit.added_files.emplace_back(0, std::move(meta));
    }
  } else {
    std::vector<std::vector<FileMeta>> levels;
    for (FileMeta& meta : salvaged) {
      last_sequence = std::max(last_sequence, meta.largest_seq);
      // Get returns the first hit scanning shallow→deep, so every file must
      // sit strictly below every newer (= already-placed) file it overlaps.
      // The shallowest level satisfying that is 1 + the deepest overlapping
      // placement — NOT the shallowest overlap-free slot, which could park
      // an old file above a newer overlapping one and serve stale values.
      // That level is itself overlap-free: any placed file there would have
      // pushed the search deeper.
      size_t level = 0;
      for (size_t l = 0; l < levels.size(); l++) {
        if (std::any_of(levels[l].begin(), levels[l].end(),
                        [&](const FileMeta& placed) {
                          return KeyRangesOverlap(placed, meta);
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

  // Write the rebuilt manifest as a fresh snapshot and swing CURRENT at it
  // atomically (write temp + rename), exactly like a normal recovery's
  // snapshot rewrite. The old manifests stay behind; the next Open's
  // orphan sweep removes everything CURRENT no longer names.
  const uint64_t manifest_number = max_number + 1;
  edit.next_file_number = manifest_number + 1;
  edit.last_sequence = last_sequence;
  edit.wal_number = min_wal;
  edit.next_run_id = next_run_id;

  const std::string manifest_name = ManifestFileName(name, manifest_number);
  std::unique_ptr<WritableFile> file;
  LETHE_RETURN_IF_ERROR(env->NewWritableFile(manifest_name, &file));
  RecordLogWriter manifest(std::move(file));
  std::string payload;
  edit.EncodeTo(&payload);
  LETHE_RETURN_IF_ERROR(manifest.AddRecord(payload));
  LETHE_RETURN_IF_ERROR(manifest.Sync());
  LETHE_RETURN_IF_ERROR(manifest.Close());
  return SetCurrentFile(env, name, manifest_number);
}

}  // namespace lethe
