#ifndef LETHE_MEMTABLE_WAL_H_
#define LETHE_MEMTABLE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/env/env.h"
#include "src/format/entry.h"
#include "src/util/record_log.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace lethe {

/// One logical WAL operation. Each memtable mutation is logged before being
/// applied; recovery replays records in order. The WAL is rotated at every
/// flush and the old log deleted once the flush commits, so no tombstone
/// outlives its memtable in the log — this satisfies FADE's persistence
/// guarantee condition that WALs are purged at a period shorter than Dth
/// (§4.1.5); the insertion `time` is logged so replayed tombstones keep
/// their original age.
struct WalRecord {
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
  SequenceNumber seq = 0;
  uint64_t time = 0;
  std::string key;          // sort key (begin key for range deletes)
  std::string end_key;      // range deletes only
  uint64_t delete_key = 0;  // secondary delete key (range begin for kind 4)
  std::string value;
  uint64_t delete_key_end = 0;  // kind 4 only (not encoded otherwise)
};

/// The fields of one WAL record, borrowed rather than owned: the input of
/// the one WAL encoder. The write path views a batch op through it, so a
/// group commit encodes each op straight into the group's framed buffer.
struct WalRecordView {
  WalRecord::Kind kind = WalRecord::Kind::kPut;
  SequenceNumber seq = 0;
  uint64_t time = 0;
  Slice key;
  Slice end_key;
  uint64_t delete_key = 0;
  Slice value;
  uint64_t delete_key_end = 0;  // kind 4 only

  WalRecordView() = default;
  explicit WalRecordView(const WalRecord& r)
      : kind(r.kind),
        seq(r.seq),
        time(r.time),
        key(r.key),
        end_key(r.end_key),
        delete_key(r.delete_key),
        value(r.value),
        delete_key_end(r.delete_key_end) {}
};

/// Appends `record` to *framed as one record-log frame: the WAL encoding of
/// its fields, written in place inside the frame.
void AppendWalRecord(const WalRecordView& record, std::string* framed);

/// Typed wrapper over the shared CRC-framed record log.
class WalWriter {
 public:
  explicit WalWriter(std::unique_ptr<WritableFile> file)
      : log_(std::move(file)) {}

  /// Appends one record without syncing (WAL replay's rewrite).
  Status AddRecord(const WalRecord& record) {
    std::string framed;
    AppendWalRecord(WalRecordView(record), &framed);
    return AddFramed(framed, /*sync=*/false);
  }

  /// Group-commit append: writes records framed by AppendWalRecord with one
  /// physical Append, then one Sync when `sync` is set
  /// (WriteOptions::sync). `appended` (optional) reports whether bytes may
  /// have reached the log even when the returned status is an error
  /// (Append succeeded, Sync failed) — see RecordLogWriter::AddFramed.
  Status AddFramed(const Slice& framed, bool sync, bool* appended = nullptr) {
    return log_.AddFramed(framed, sync, appended);
  }

  Status Close() { return log_.Close(); }

 private:
  RecordLogWriter log_;
};

/// Decodes one WAL record from a frame payload (RecordLogScanner yields
/// them); false when the payload is malformed.
bool DecodeWalRecord(Slice input, WalRecord* record);

}  // namespace lethe

#endif  // LETHE_MEMTABLE_WAL_H_
