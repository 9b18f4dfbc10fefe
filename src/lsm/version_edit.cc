#include "src/lsm/version_edit.h"

#include "src/util/coding.h"

namespace lethe {

namespace {
// Field tags.
enum : uint32_t {
  kRemovedFile = 1,
  kAddedFile = 2,
  kNextFileNumber = 3,
  kLastSequence = 4,
  kWalNumber = 5,
  kSeqTimeCheckpoint = 6,
  kNextRunId = 7,
  // FileMeta::expiry_due of the file added just before it; written only
  // for files that have a due time, so an edit without expiring values
  // encodes as it did before the tag existed.
  kExpiryDue = 8,
  // The whole pending secondary-delete set: a count, then (lo, hi, seq)
  // per range.
  kSecondaryDeletes = 9,
};
}  // namespace

void VersionEdit::EncodeTo(std::string* dst) const {
  for (const RemovedFile& removed : removed_files) {
    PutVarint32(dst, kRemovedFile);
    PutVarint32(dst, static_cast<uint32_t>(removed.level));
    PutVarint64(dst, removed.file_number);
  }
  for (const auto& [level, meta] : added_files) {
    PutVarint32(dst, kAddedFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    EncodeFileMeta(meta, dst);
    if (meta.expiry_due != FileMeta::kNever) {
      PutVarint32(dst, kExpiryDue);
      PutVarint64(dst, meta.expiry_due);
    }
  }
  if (next_file_number) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, *next_file_number);
  }
  if (last_sequence) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, *last_sequence);
  }
  if (wal_number) {
    PutVarint32(dst, kWalNumber);
    PutVarint64(dst, *wal_number);
  }
  if (next_run_id) {
    PutVarint32(dst, kNextRunId);
    PutVarint64(dst, *next_run_id);
  }
  for (const auto& [seq, time] : seq_time_checkpoints) {
    PutVarint32(dst, kSeqTimeCheckpoint);
    PutVarint64(dst, seq);
    PutFixed64(dst, time);
  }
  if (secondary_deletes) {
    PutVarint32(dst, kSecondaryDeletes);
    PutVarint32(dst, static_cast<uint32_t>(secondary_deletes->ranges().size()));
    for (const SecondaryDeleteRange& range : secondary_deletes->ranges()) {
      PutVarint64(dst, range.lo);
      PutVarint64(dst, range.hi);
      PutVarint64(dst, range.seq);
    }
  }
}

Status VersionEdit::DecodeFrom(Slice input) {
  Clear();
  while (!input.empty()) {
    uint32_t tag;
    if (!GetVarint32(&input, &tag)) {
      return Status::Corruption("VersionEdit: bad tag");
    }
    switch (tag) {
      case kRemovedFile: {
        uint32_t level;
        uint64_t number;
        if (!GetVarint32(&input, &level) || !GetVarint64(&input, &number)) {
          return Status::Corruption("VersionEdit: bad removed file");
        }
        removed_files.push_back({static_cast<int>(level), number});
        break;
      }
      case kAddedFile: {
        uint32_t level;
        FileMeta meta;
        if (!GetVarint32(&input, &level)) {
          return Status::Corruption("VersionEdit: bad added file level");
        }
        LETHE_RETURN_IF_ERROR(DecodeFileMeta(&input, &meta));
        added_files.emplace_back(static_cast<int>(level), std::move(meta));
        break;
      }
      case kExpiryDue: {
        uint64_t due;
        if (added_files.empty() || !GetVarint64(&input, &due)) {
          return Status::Corruption("VersionEdit: bad expiry due time");
        }
        added_files.back().second.expiry_due = due;
        break;
      }
      case kNextFileNumber: {
        uint64_t v;
        if (!GetVarint64(&input, &v)) {
          return Status::Corruption("VersionEdit: bad next file number");
        }
        next_file_number = v;
        break;
      }
      case kLastSequence: {
        uint64_t v;
        if (!GetVarint64(&input, &v)) {
          return Status::Corruption("VersionEdit: bad last sequence");
        }
        last_sequence = v;
        break;
      }
      case kWalNumber: {
        uint64_t v;
        if (!GetVarint64(&input, &v)) {
          return Status::Corruption("VersionEdit: bad wal number");
        }
        wal_number = v;
        break;
      }
      case kNextRunId: {
        uint64_t v;
        if (!GetVarint64(&input, &v)) {
          return Status::Corruption("VersionEdit: bad next run id");
        }
        next_run_id = v;
        break;
      }
      case kSeqTimeCheckpoint: {
        uint64_t seq, time;
        if (!GetVarint64(&input, &seq) || !GetFixed64(&input, &time)) {
          return Status::Corruption("VersionEdit: bad seq-time checkpoint");
        }
        seq_time_checkpoints.emplace_back(seq, time);
        break;
      }
      case kSecondaryDeletes: {
        uint32_t count;
        // Each range takes at least three bytes: a larger count is damage.
        if (!GetVarint32(&input, &count) || count > input.size() / 3) {
          return Status::Corruption("VersionEdit: bad secondary deletes");
        }
        std::vector<SecondaryDeleteRange> ranges(count);
        for (SecondaryDeleteRange& range : ranges) {
          if (!GetVarint64(&input, &range.lo) ||
              !GetVarint64(&input, &range.hi) ||
              !GetVarint64(&input, &range.seq)) {
            return Status::Corruption("VersionEdit: bad secondary delete");
          }
        }
        secondary_deletes = SecondaryDeleteSet(std::move(ranges));
        break;
      }
      default:
        return Status::Corruption("VersionEdit: unknown tag");
    }
  }
  return Status::OK();
}

}  // namespace lethe
