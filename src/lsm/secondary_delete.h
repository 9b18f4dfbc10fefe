#ifndef LETHE_LSM_SECONDARY_DELETE_H_
#define LETHE_LSM_SECONDARY_DELETE_H_

#include <cstdint>

#include "src/core/options.h"
#include "src/core/statistics.h"
#include "src/format/secondary_delete_set.h"
#include "src/lsm/version.h"
#include "src/lsm/version_edit.h"
#include "src/lsm/version_set.h"

namespace lethe {

/// Executes a batch of secondary range deletes across every file of
/// `version` (§4.2.2): an entry goes when some range of `deletes` removes
/// it (SecondaryDeleteSet::Hides). For each affected file:
///   - pages whose whole delete-key range falls inside the union of the
///     ranges that reach the file's newest entry are *fully dropped*: a
///     metadata-only bitmap flip, no read, no write;
///   - other pages a range overlaps are read, filtered, and rewritten in
///     place (*partial page drops*), once for the whole batch;
///   - a file whose live pages all vanish (and that carries no range
///     tombstones) is removed outright.
/// Appends the metadata replacements to `edit`; the caller applies it.
Status ExecuteSecondaryRangeDelete(const Options& resolved_options,
                                   VersionSet* versions, Statistics* stats,
                                   const Version& version,
                                   const SecondaryDeleteSet& deletes,
                                   VersionEdit* edit);

}  // namespace lethe

#endif  // LETHE_LSM_SECONDARY_DELETE_H_
