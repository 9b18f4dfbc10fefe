#ifndef LETHE_MEMTABLE_WAL_H_
#define LETHE_MEMTABLE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/format/entry.h"
#include "src/util/record_log.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {

/// One logged memtable mutation, its fields borrowed. Each mutation is
/// logged before being applied; recovery replays them in order. The WAL is
/// rotated at every flush and the old log deleted once the flush commits,
/// so no tombstone outlives its memtable in the log — this satisfies FADE's
/// persistence guarantee condition that WALs are purged at a period shorter
/// than Dth (§4.1.5).
struct WalOp {
  enum class Kind : uint8_t {
    kPut = 1,
    kDelete = 2,
    kRangeDelete = 3,
    // A KiWi secondary range delete over delete keys [delete_key,
    // delete_key_end). The operation's disk side persists through the
    // MANIFEST, but its in-place purge of the *active* memtable must be
    // re-applied when the WAL is replayed — otherwise recovery resurrects
    // the purged entries from their original Put records.
    kSecondaryRangeDelete = 4,
  };

  Kind kind = Kind::kPut;
  Slice key;                // sort key (begin key for range deletes)
  Slice end_key;            // range deletes only
  uint64_t delete_key = 0;  // secondary delete key (range begin for kind 4)
  Slice value;              // puts only
  uint64_t delete_key_end = 0;  // kind 4 only
};

/// One commit group, logged as one record-log frame: the ops a group commit
/// applies, in order. Op i takes sequence first_seq + i, and every op the
/// group's insertion `time`, which is logged so replayed tombstones keep
/// their original age. The frame payload is
///   varint64 first_seq | varint64 time | op...
/// and each op
///   kind | varint32 key_len | key | [range: varint32 end_len | end_key] |
///   varint64 delete_key | [put: varint32 value_len | value] |
///   [kind 4: varint64 delete_key_end]
/// A frame's checksum covers the whole group, so a torn or damaged group is
/// dropped whole: a WriteBatch or a transaction commit replays all or
/// nothing.
struct WalGroup {
  SequenceNumber first_seq = 0;
  uint64_t time = 0;
  std::vector<WalOp> ops;
};

/// Appends `group` to *framed as one frame, encoded in place inside it.
void AppendWalGroup(const WalGroup& group, std::string* framed);

/// Decodes a frame payload (RecordLogScanner yields them) whole: false when
/// any op is malformed or the payload holds no op. The op slices alias
/// `payload`.
bool DecodeWalGroup(Slice payload, WalGroup* group);

/// Typed wrapper over the shared CRC-framed record log.
class WalWriter {
 public:
  explicit WalWriter(std::unique_ptr<WritableFile> file)
      : log_(std::move(file)) {}

  /// Group-commit append: writes frames laid down by AppendWalGroup (or
  /// copied whole from another log) with one physical Append, then one Sync
  /// when `sync` is set (WriteOptions::sync). `appended` (optional) reports
  /// whether bytes may have reached the log even when the returned status
  /// is an error (Append succeeded, Sync failed) — see
  /// RecordLogWriter::AddFramed.
  Status AddFramed(const Slice& framed, bool sync, bool* appended = nullptr) {
    return log_.AddFramed(framed, sync, appended);
  }

  Status Close() { return log_.Close(); }

 private:
  RecordLogWriter log_;
};

}  // namespace lethe

#endif  // LETHE_MEMTABLE_WAL_H_
