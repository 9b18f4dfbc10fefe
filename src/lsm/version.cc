#include "src/lsm/version.h"

#include <algorithm>
#include <map>

#include "src/lsm/version_edit.h"

namespace lethe {

uint64_t SortedRun::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& file : files) {
    // Scale by live pages so full page drops reduce the level's accounted
    // size (the dropped pages are reclaimable).
    if (file->num_pages > 0) {
      total += file->file_size * file->live_page_count() / file->num_pages;
    } else {
      total += file->file_size;
    }
  }
  return total;
}

uint64_t SortedRun::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& file : files) {
    total += file->num_entries;
  }
  return total;
}

namespace {

/// Index of the first of a run's `files` with largest_key >= `key`, or
/// files.size().
size_t FirstEndingAtOrAfter(
    const std::vector<std::shared_ptr<FileMeta>>& files, const Slice& key) {
  return static_cast<size_t>(
      std::partition_point(files.begin(), files.end(),
                           [&key](const std::shared_ptr<FileMeta>& file) {
                             return Slice(file->largest_key).compare(key) < 0;
                           }) -
      files.begin());
}

}  // namespace

int SortedRun::FindFile(const Slice& user_key) const {
  const size_t i = FirstEndingAtOrAfter(files, user_key);
  if (i == files.size() ||
      Slice(files[i]->smallest_key).compare(user_key) > 0) {
    return -1;
  }
  return static_cast<int>(i);
}

bool SortedRun::Overlaps(const Slice& begin, const Slice& end) const {
  // Files are key-ordered and disjoint: only the first one ending at or
  // after `begin` can start at or before `end`.
  const size_t i = FirstEndingAtOrAfter(files, begin);
  return i < files.size() && Slice(files[i]->smallest_key).compare(end) <= 0;
}

int Version::DeepestNonEmptyLevel() const {
  for (int i = num_levels() - 1; i >= 0; i--) {
    for (const SortedRun& run : levels_[i]) {
      if (!run.files.empty()) {
        return i;
      }
    }
  }
  return -1;
}

bool Version::IsBottommost(int level) const {
  return DeepestNonEmptyLevel() <= level;
}

uint64_t Version::LevelBytes(int level) const {
  if (level >= num_levels()) {
    return 0;
  }
  uint64_t total = 0;
  for (const SortedRun& run : levels_[level]) {
    total += run.TotalBytes();
  }
  return total;
}

uint64_t Version::LevelLiveEntries(int level) const {
  if (level >= num_levels()) {
    return 0;
  }
  uint64_t total = 0;
  for (const SortedRun& run : levels_[level]) {
    total += run.TotalEntries();
  }
  return total;
}

int Version::LevelRunCount(int level) const {
  if (level >= num_levels()) {
    return 0;
  }
  return static_cast<int>(levels_[level].size());
}

uint64_t Version::TotalLiveEntries() const {
  uint64_t total = 0;
  for (int i = 0; i < num_levels(); i++) {
    total += LevelLiveEntries(i);
  }
  return total;
}

uint64_t Version::TotalFiles() const {
  uint64_t total = 0;
  for (const auto& level : levels_) {
    for (const SortedRun& run : level) {
      total += run.files.size();
    }
  }
  return total;
}

std::vector<std::shared_ptr<FileMeta>> Version::OverlappingFiles(
    int level, const Slice& begin, const Slice& end) const {
  std::vector<std::shared_ptr<FileMeta>> result;
  if (level >= num_levels()) {
    return result;
  }
  for (const SortedRun& run : levels_[level]) {
    for (const auto& file : run.files) {
      if (file->OverlapsKeyRange(begin, end)) {
        result.push_back(file);
      }
    }
  }
  return result;
}

std::vector<std::shared_ptr<FileMeta>> Version::OverlapClosure(
    int level, const Slice& begin, const Slice& end) const {
  std::string lo = begin.ToString();
  std::string hi = end.ToString();
  while (true) {
    std::vector<std::shared_ptr<FileMeta>> files =
        OverlappingFiles(level, Slice(lo), Slice(hi));
    bool widened = false;
    for (const auto& file : files) {
      if (Slice(file->smallest_key).compare(Slice(lo)) < 0) {
        lo = file->smallest_key;
        widened = true;
      }
      if (Slice(file->largest_key).compare(Slice(hi)) > 0) {
        hi = file->largest_key;
        widened = true;
      }
    }
    if (!widened) {
      return files;
    }
  }
}

std::vector<std::pair<int, std::shared_ptr<FileMeta>>> Version::AllFiles()
    const {
  std::vector<std::pair<int, std::shared_ptr<FileMeta>>> result;
  for (int i = 0; i < num_levels(); i++) {
    for (const SortedRun& run : levels_[i]) {
      for (const auto& file : run.files) {
        result.emplace_back(i, file);
      }
    }
  }
  return result;
}

std::shared_ptr<Version> Version::Apply(const Version* base,
                                        const VersionEdit& edit,
                                        Status* status) {
  *status = Status::OK();
  auto result = std::make_shared<Version>();

  // Start from the base structure, dropping removed files.
  int max_level = base != nullptr ? base->num_levels() - 1 : -1;
  for (const auto& [level, meta] : edit.added_files) {
    max_level = std::max(max_level, level);
  }
  result->levels_.resize(max_level + 1);

  auto is_removed = [&edit](int level, uint64_t number) {
    for (const auto& removed : edit.removed_files) {
      if (removed.level == level && removed.file_number == number) {
        return true;
      }
    }
    return false;
  };

  // (level, run_id) → files.
  std::map<std::pair<int, uint64_t>, std::vector<std::shared_ptr<FileMeta>>>
      grouped;
  if (base != nullptr) {
    for (int level = 0; level < base->num_levels(); level++) {
      for (const SortedRun& run : base->levels_[level]) {
        for (const auto& file : run.files) {
          if (!is_removed(level, file->file_number)) {
            grouped[{level, run.run_id}].push_back(file);
          }
        }
      }
    }
  }
  for (const auto& [level, meta] : edit.added_files) {
    grouped[{level, meta.run_id}].push_back(std::make_shared<FileMeta>(meta));
  }

  for (auto& [key, files] : grouped) {
    if (files.empty()) {
      continue;
    }
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) {
                return Slice(a->smallest_key).compare(
                           Slice(b->smallest_key)) < 0;
              });
    // Sanity: files within a run must not overlap. Equal *boundaries* are
    // legal — a range tombstone's exclusive end extends a file's advertised
    // largest key, which may equal the next file's smallest — but two files
    // must never share a smallest key: the sort above would be ambiguous,
    // and point lookups walk a run's files in this order assuming each user
    // key lives in exactly one file (the merge loop guarantees it by never
    // cutting an output between two versions of a key).
    for (size_t i = 1; i < files.size(); i++) {
      if (Slice(files[i - 1]->largest_key)
              .compare(Slice(files[i]->smallest_key)) > 0 ||
          Slice(files[i - 1]->smallest_key)
              .compare(Slice(files[i]->smallest_key)) == 0) {
        *status = Status::Corruption(
            "overlapping files within a sorted run: level " +
            std::to_string(key.first) + " run " + std::to_string(key.second) +
            " file " + std::to_string(files[i - 1]->file_number) + " [" +
            files[i - 1]->smallest_key + ".." + files[i - 1]->largest_key +
            "] vs file " + std::to_string(files[i]->file_number) + " [" +
            files[i]->smallest_key + ".." + files[i]->largest_key + "]");
        return result;
      }
    }
    SortedRun run;
    run.run_id = key.second;
    run.files = std::move(files);
    result->levels_[key.first].push_back(std::move(run));
  }

  // Order runs within each level by run_id (creation order = recency order).
  for (auto& level : result->levels_) {
    std::sort(level.begin(), level.end(),
              [](const SortedRun& a, const SortedRun& b) {
                return a.run_id < b.run_id;
              });
  }
  if (edit.secondary_deletes) {
    if (!edit.secondary_deletes->empty()) {
      result->secondary_deletes_ =
          std::make_shared<const SecondaryDeleteSet>(*edit.secondary_deletes);
    }
  } else if (base != nullptr) {
    result->secondary_deletes_ = base->secondary_deletes_;
  }
  return result;
}

}  // namespace lethe
