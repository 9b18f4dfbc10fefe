#include "src/lsm/compaction_picker.h"

#include <algorithm>

#include "src/lsm/ttl.h"

namespace lethe {

uint64_t KeyToU64(const Slice& key) { return KeyToU64At(key, 0); }

uint64_t KeyToU64At(const Slice& key, size_t offset) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; i++) {
    size_t pos = offset + i;
    v = (v << 8) | (pos < key.size() ? static_cast<uint8_t>(key[pos]) : 0);
  }
  return v;
}

double RangeOverlapFraction(const Slice& smallest, const Slice& largest,
                            const Slice& begin, const Slice& end) {
  // Quick rejects on true byte order.
  if (end.compare(smallest) <= 0 || begin.compare(largest) > 0) {
    return 0.0;
  }
  // Interpolate past the common prefix of the file span, where the
  // distinguishing bytes live (fixed-width encoded keys share long
  // prefixes).
  size_t prefix = 0;
  while (prefix < smallest.size() && prefix < largest.size() &&
         smallest[prefix] == largest[prefix]) {
    prefix++;
  }
  uint64_t lo = KeyToU64At(smallest, prefix);
  uint64_t hi = KeyToU64At(largest, prefix);
  if (hi <= lo) {
    return 1.0;  // span is a single point inside [begin, end)
  }
  // A clipped bound inside [smallest, largest] shares the prefix, so its
  // interpolated value is comparable; bounds outside the span clamp.
  uint64_t b = begin.compare(smallest) <= 0 ? lo : KeyToU64At(begin, prefix);
  uint64_t e = end.compare(largest) > 0 ? hi : KeyToU64At(end, prefix);
  uint64_t olo = std::max(lo, b);
  uint64_t ohi = std::min(hi, e);
  if (ohi <= olo) {
    return 0.0;
  }
  return static_cast<double>(ohi - olo) / static_cast<double>(hi - lo);
}

namespace {

/// Combined [smallest, largest] sort-key span of a merge's inputs.
void CombinedKeySpan(const std::vector<std::shared_ptr<FileMeta>>& inputs,
                     std::string* smallest, std::string* largest) {
  *smallest = inputs.front()->smallest_key;
  *largest = inputs.front()->largest_key;
  for (const auto& file : inputs) {
    if (Slice(file->smallest_key).compare(Slice(*smallest)) < 0) {
      *smallest = file->smallest_key;
    }
    if (Slice(file->largest_key).compare(Slice(*largest)) > 0) {
      *largest = file->largest_key;
    }
  }
}

}  // namespace

std::vector<std::string> CompactionPicker::ComputeSubcompactionBoundaries(
    const std::vector<std::shared_ptr<FileMeta>>& inputs,
    int max_partitions) const {
  // A single-file merge gains nothing from splitting (its rewrite already
  // streams at device speed on one thread), so K collapses to 1.
  if (max_partitions <= 1 || inputs.size() < 2) {
    return {};
  }
  // Combined span, for the edge guards below.
  std::string smallest, largest;
  CombinedKeySpan(inputs, &smallest, &largest);

  struct WeightedKey {
    std::string key;
    double mass;
  };
  std::vector<WeightedKey> samples;
  for (const auto& file : inputs) {
    if (file->file_number == 0) {
      // A flush's memtable pseudo-file: no fences exist yet, so spread its
      // mass over synthetic interpolated sample points (its share is
      // typically small next to the on-disk inputs, whose real fences
      // dominate the quantiles).
      const int kSynthetic = 2 * max_partitions;
      size_t prefix = 0;
      const std::string& lo_key = file->smallest_key;
      const std::string& hi_key = file->largest_key;
      while (prefix < lo_key.size() && prefix < hi_key.size() &&
             lo_key[prefix] == hi_key[prefix]) {
        prefix++;
      }
      const uint64_t lo = KeyToU64At(Slice(lo_key), prefix);
      const uint64_t hi = KeyToU64At(Slice(hi_key), prefix);
      const double mass =
          static_cast<double>(file->file_size) / kSynthetic;
      for (int i = 0; i < kSynthetic; i++) {
        const uint64_t at =
            lo + static_cast<uint64_t>((static_cast<double>(hi - lo) * i) /
                                       kSynthetic);
        std::string key = lo_key.substr(0, prefix);
        for (int shift = 56; shift >= 0; shift -= 8) {
          key.push_back(static_cast<char>((at >> shift) & 0xFF));
        }
        samples.push_back({std::move(key), mass});
      }
      continue;
    }
    // Callers release the DB mutex around boundary computation (the
    // merge's claim fences conflicts), so opening the reader here —
    // one-time work the imminent merge needs anyway — is off the engine's
    // critical path.
    std::shared_ptr<SSTableReader> table;
    if (!versions_->table_cache()->GetTable(*file, &table).ok()) {
      return {};  // cannot sample this input (its merge fails on it too)
    }
    const TableIndex& index = table->index();
    if (index.pages.empty()) {
      continue;
    }
    const double page_mass = static_cast<double>(file->file_size) /
                             static_cast<double>(index.pages.size());
    for (const TileInfo& tile : index.tiles) {
      samples.push_back({tile.min_sort_key.ToString(),
                         tile.page_count * page_mass});
    }
  }

  std::stable_sort(samples.begin(), samples.end(),
                   [](const WeightedKey& a, const WeightedKey& b) {
                     return Slice(a.key).compare(Slice(b.key)) < 0;
                   });
  double total_mass = 0;
  for (const WeightedKey& sample : samples) {
    total_mass += sample.mass;
  }
  if (total_mass <= 0) {
    return {};
  }

  std::vector<std::string> boundaries;
  auto emit = [&](const std::string& key) {
    // Drop boundaries that would leave an empty edge partition or repeat
    // (several quantiles can collapse onto one fence).
    if (Slice(key).compare(Slice(smallest)) <= 0 ||
        Slice(key).compare(Slice(largest)) > 0) {
      return;
    }
    if (!boundaries.empty() &&
        Slice(key).compare(Slice(boundaries.back())) <= 0) {
      return;
    }
    boundaries.push_back(key);
  };

  // Quantile walk: a boundary lands on the first fence *after* the
  // cumulative mass crosses each target, so whole tiles stay on one side.
  double accumulated = 0;
  size_t target_index = 1;
  for (size_t i = 0;
       i < samples.size() &&
       target_index < static_cast<size_t>(max_partitions);
       i++) {
    accumulated += samples[i].mass;
    while (target_index < static_cast<size_t>(max_partitions) &&
           accumulated >=
               total_mass * static_cast<double>(target_index) /
                   static_cast<double>(max_partitions)) {
      if (i + 1 < samples.size()) {
        emit(samples[i + 1].key);
      }
      target_index++;
    }
  }
  return boundaries;
}

uint64_t CompactionPicker::LevelCapacityBytes(int level) const {
  uint64_t capacity = options_.write_buffer_bytes;
  for (int i = 0; i <= level; i++) {
    capacity *= options_.size_ratio;
  }
  return capacity;
}

double CompactionPicker::EstimateInvalidation(const Version& version,
                                              const FileMeta& file) const {
  double b = static_cast<double>(file.num_point_tombstones);
  if (file.num_range_tombstones == 0) {
    return b;
  }
  std::shared_ptr<SSTableReader> table;
  if (!versions_->table_cache()->GetTable(file, &table).ok()) {
    return b;
  }
  // Every open reader pins its range tombstones, so the estimate always
  // counts them.
  for (const RangeTombstone& rt : table->range_tombstones()) {
    for (const auto& [level, other] : version.AllFiles()) {
      if (other->num_entries == 0) {
        continue;
      }
      double fraction =
          RangeOverlapFraction(other->smallest_key, other->largest_key,
                               rt.begin_key, rt.end_key);
      b += fraction * static_cast<double>(other->num_entries);
    }
  }
  return b;
}

std::vector<uint64_t> CompactionPicker::CumulativeTtls(
    const Version& version) const {
  // Slot i = disk level i; the cumulative thresholds are measured from the
  // tombstone's *memtable insertion* time, so time spent in the buffer is
  // automatically charged against the disk budget: a tombstone that flushes
  // late simply expires sooner at the shallow levels and cascades down,
  // still reaching the last level (threshold = Dth exactly) in time.
  int num_disk_levels = std::max(version.DeepestNonEmptyLevel() + 1, 1);
  return ComputeCumulativeTtls(options_.delete_persistence_threshold_micros,
                               options_.size_ratio, num_disk_levels);
}

std::vector<uint64_t> CompactionPicker::DeadlineTtls(
    const Version& version) const {
  std::vector<uint64_t> ttls = CumulativeTtls(version);
  // The L0 hold: a push rewrites the L1 file under its L0 column however
  // little the column holds, and tiered L0 runs keep taking flushes on top
  // of a column without rewriting it. So while L0 holds at most a T-th of
  // L1's bytes (leveling's ratio between adjacent levels), a column waits
  // until its oldest tombstone is HoldBound() old, and each L1 rewrite
  // moves more of L0.
  if (tiered_l0_ && !ttls.empty() &&
      version.LevelBytes(0) * options_.size_ratio <= version.LevelBytes(1)) {
    ttls[0] = std::max(ttls[0], HoldBound());
  }
  return ttls;
}

uint64_t CompactionPicker::BufferTtl() const {
  if (!options_.fade_enabled()) {
    return UINT64_MAX;
  }
  // Only an idle-buffer guard: normal fill-driven flushes happen orders of
  // magnitude faster. Dth/2 leaves the disk cascade at least half the
  // budget, and the cascade is immediate once the cumulative thresholds
  // (measured from insertion) are exceeded.
  return options_.delete_persistence_threshold_micros / 2;
}

uint64_t CompactionPicker::HoldBound() const {
  if (!options_.fade_enabled()) {
    return UINT64_MAX;
  }
  return static_cast<uint64_t>(
      static_cast<double>(options_.delete_persistence_threshold_micros) *
      kHoldReleaseShare);
}

namespace {

/// The time past which `file` at `level` is due for a kTtlExpiry pick: the
/// earlier of its FADE TTL expiry (`ttls` = CumulativeTtls, empty when FADE
/// is off, else one slot per level down to `deepest`) and its expiry_due,
/// each UINT64_MAX while `oldest_snapshot` blocks it at `now`.
uint64_t FileDeadline(const FileMeta& file, int level, int deepest,
                      const std::vector<uint64_t>& ttls, uint64_t now,
                      OldestSnapshot oldest_snapshot) {
  uint64_t deadline = UINT64_MAX;
  // A bottommost file whose oldest tombstone is still pinned by a live
  // snapshot cannot drop *any* tombstone; compacting it would change
  // nothing and the trigger would re-fire forever. It becomes eligible the
  // moment the pinning snapshot is released.
  if (!ttls.empty() && file.HasTombstones() &&
      file.oldest_tombstone_time != kNoTombstoneTime &&
      !(level == deepest && file.oldest_tombstone_seq > oldest_snapshot.seq)) {
    const uint64_t ttl = ttls[level];
    deadline = ttl > UINT64_MAX - file.oldest_tombstone_time
                   ? UINT64_MAX
                   : file.oldest_tombstone_time + ttl;
  }
  // A due file is purged only when every live snapshot sees all of it and
  // was created after the due time: then the values due by then expire and
  // drop at the bottommost level, so the rewrite cannot re-fire. A due time
  // still ahead of `now` is not guarded: a snapshot live now may be gone
  // when it falls due, and the pick applies the guard then.
  if (file.expiry_due != FileMeta::kNever &&
      (file.expiry_due > now ||
       (oldest_snapshot.seq >= file.largest_seq &&
        oldest_snapshot.time >= file.expiry_due))) {
    deadline = std::min(deadline, file.expiry_due);
  }
  return deadline;
}

bool Claimed(const std::set<uint64_t>* in_flight, const FileMeta& file) {
  return in_flight != nullptr && in_flight->count(file.file_number) > 0;
}

}  // namespace

uint64_t CompactionPicker::EarliestTtlExpiry(
    const Version& version, uint64_t now,
    OldestSnapshot oldest_snapshot) const {
  const std::vector<uint64_t> ttls = DeadlineTtls(version);
  const int deepest = version.DeepestNonEmptyLevel();
  uint64_t earliest = UINT64_MAX;
  for (const auto& [level, file] : version.AllFiles()) {
    earliest = std::min(earliest, FileDeadline(*file, level, deepest, ttls,
                                               now, oldest_snapshot));
  }
  return earliest;
}

namespace {

/// Tiering merges whole levels, so one claimed file blocks the level.
bool AnyClaimedInLevel(const Version& version, int level,
                       const std::set<uint64_t>* in_flight) {
  if (in_flight == nullptr || in_flight->empty()) {
    return false;
  }
  for (const SortedRun& run : version.levels()[level]) {
    for (const auto& file : run.files) {
      if (Claimed(in_flight, *file)) {
        return true;
      }
    }
  }
  return false;
}

/// The inputs a leveled pick of `file` at `level` takes: `file` alone in
/// a level of one run. In a level of several runs (L0 when flushes write
/// tiered runs) older versions of its keys may sit in other runs, so the
/// pick takes every file overlapping it there, to a fixed point
/// (Version::OverlapClosure). Empty when one of those is claimed.
std::vector<std::shared_ptr<FileMeta>> LeveledInputs(
    const Version& version, int level, const std::shared_ptr<FileMeta>& file,
    const std::set<uint64_t>* in_flight) {
  if (version.LevelRunCount(level) <= 1) {
    return {file};
  }
  std::vector<std::shared_ptr<FileMeta>> inputs = version.OverlapClosure(
      level, Slice(file->smallest_key), Slice(file->largest_key));
  for (const auto& input : inputs) {
    if (Claimed(in_flight, *input)) {
      return {};
    }
  }
  return inputs;
}

}  // namespace

CompactionPick CompactionPicker::PickTtlExpired(
    const Version& version, uint64_t now, const std::set<uint64_t>* in_flight,
    OldestSnapshot oldest_snapshot) const {
  CompactionPick pick;
  const std::vector<uint64_t> ttls = DeadlineTtls(version);
  const int deepest = version.DeepestNonEmptyLevel();

  // Smallest level with a file past its deadline wins (paper: level ties go
  // to the smallest level); within the level, the earliest deadline. Every
  // file of a level shares its TTL, so among FADE-expired files that is the
  // one with the oldest tombstone (DD's tie-break).
  for (int level = 0; level < version.num_levels(); level++) {
    const bool tiering =
        options_.compaction_style == CompactionStyle::kTiering;
    if (tiering && AnyClaimedInLevel(version, level, in_flight)) {
      continue;  // the level is already being merged
    }
    std::shared_ptr<FileMeta> best;
    uint64_t best_deadline = UINT64_MAX;
    std::vector<std::shared_ptr<FileMeta>> best_inputs;
    for (const SortedRun& run : version.levels()[level]) {
      for (const auto& file : run.files) {
        if (Claimed(in_flight, *file)) {
          continue;
        }
        const uint64_t deadline =
            FileDeadline(*file, level, deepest, ttls, now, oldest_snapshot);
        if (deadline >= now || (best != nullptr && deadline >= best_deadline)) {
          continue;
        }
        if (!tiering) {
          std::vector<std::shared_ptr<FileMeta>> inputs =
              LeveledInputs(version, level, file, in_flight);
          if (inputs.empty()) {
            continue;
          }
          best_inputs = std::move(inputs);
        }
        best = file;
        best_deadline = deadline;
      }
    }
    if (best != nullptr) {
      pick.trigger = CompactionPick::Trigger::kTtlExpiry;
      pick.level = level;
      if (tiering) {
        // Tiering merges whole levels; pull in every file of the level.
        for (const SortedRun& run : version.levels()[level]) {
          for (const auto& file : run.files) {
            pick.inputs.push_back(file);
          }
        }
      } else {
        pick.inputs = std::move(best_inputs);
      }
      return pick;
    }
  }
  return pick;
}

uint64_t CompactionPicker::OverlapBytes(const Version& version, int level,
                                        const FileMeta& file) const {
  uint64_t total = 0;
  for (const auto& other : version.OverlappingFiles(
           level + 1, Slice(file.smallest_key), Slice(file.largest_key))) {
    total += other->file_size;
  }
  return total;
}

CompactionPick CompactionPicker::PickSaturated(
    const Version& version, const std::set<uint64_t>* in_flight) const {
  CompactionPick pick;
  for (int level = 0; level < version.num_levels(); level++) {
    if (options_.compaction_style == CompactionStyle::kTiering) {
      if (version.LevelRunCount(level) <
          static_cast<int>(options_.size_ratio)) {
        continue;
      }
      if (AnyClaimedInLevel(version, level, in_flight)) {
        continue;  // the level is already being merged
      }
      pick.trigger = CompactionPick::Trigger::kSaturation;
      pick.level = level;
      for (const SortedRun& run : version.levels()[level]) {
        for (const auto& file : run.files) {
          pick.inputs.push_back(file);
        }
      }
      return pick;
    }

    if (version.LevelBytes(level) <= LevelCapacityBytes(level)) {
      continue;
    }
    // Saturated. Select the file per policy. SD with no tombstones in the
    // level degenerates to SO ("in the absence of deletes, Lethe performs
    // compactions ... choosing files with minimal overlap" — §5.1).
    bool use_delete_driven =
        options_.file_picking == FilePickingPolicy::kMaxTombstones;
    if (use_delete_driven) {
      bool level_has_tombstones = false;
      for (const SortedRun& run : version.levels()[level]) {
        for (const auto& file : run.files) {
          if (file->HasTombstones()) {
            level_has_tombstones = true;
          }
        }
      }
      use_delete_driven = level_has_tombstones;
    }

    std::shared_ptr<FileMeta> best;
    uint64_t best_overlap = UINT64_MAX;
    double best_b = -1.0;
    std::vector<std::shared_ptr<FileMeta>> best_inputs;
    for (const SortedRun& run : version.levels()[level]) {
      for (const auto& file : run.files) {
        if (Claimed(in_flight, *file)) {
          continue;  // already an input of an in-flight merge
        }
        uint64_t overlap = 0;
        double b = 0;
        bool better;
        if (!use_delete_driven) {
          overlap = OverlapBytes(version, level, *file);
          better = best == nullptr || overlap < best_overlap ||
                   (overlap == best_overlap &&
                    file->num_point_tombstones > best->num_point_tombstones);
        } else {  // kMaxTombstones (SD)
          b = EstimateInvalidation(version, *file);
          better = best == nullptr || b > best_b ||
                   (b == best_b &&
                    file->oldest_tombstone_time < best->oldest_tombstone_time);
        }
        if (!better) {
          continue;
        }
        std::vector<std::shared_ptr<FileMeta>> inputs =
            LeveledInputs(version, level, file, in_flight);
        if (inputs.empty()) {
          continue;
        }
        best = file;
        best_overlap = overlap;
        best_b = b;
        best_inputs = std::move(inputs);
      }
    }
    if (best != nullptr) {
      pick.trigger = CompactionPick::Trigger::kSaturation;
      pick.level = level;
      pick.inputs = std::move(best_inputs);
      return pick;
    }
  }
  return pick;
}

CompactionPick CompactionPicker::Pick(
    const Version& version, uint64_t now, const std::set<uint64_t>* in_flight,
    OldestSnapshot oldest_snapshot) const {
  // TTL expiry takes precedence over saturation (§4.1.4: "FADE triggers a
  // compaction in a level that has at least one file with expired TTL
  // regardless of its saturation").
  CompactionPick pick =
      PickTtlExpired(version, now, in_flight, oldest_snapshot);
  if (pick.valid()) {
    return pick;
  }
  return PickSaturated(version, in_flight);
}

}  // namespace lethe
