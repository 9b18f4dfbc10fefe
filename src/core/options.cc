#include "src/core/options.h"

#include "src/util/status.h"

namespace lethe {

Options Options::WithDefaults() const {
  Options resolved = *this;
  if (resolved.env == nullptr) {
    resolved.env = Env::Default();
  }
  if (resolved.clock == nullptr) {
    resolved.clock = SystemClock::Default();
  }
  if (resolved.inline_compactions) {
    // One worker keeps the barrier-mode I/O trace deterministic.
    resolved.background_threads = 1;
  }
  return resolved;
}

Status Options::Validate() const {
  if (write_buffer_bytes == 0) {
    return Status::InvalidArgument("write_buffer_bytes must be > 0");
  }
  if (size_ratio < 2) {
    return Status::InvalidArgument("size_ratio must be >= 2");
  }
  if (target_file_bytes == 0) {
    return Status::InvalidArgument("target_file_bytes must be > 0");
  }
  if (table.entries_per_page == 0) {
    return Status::InvalidArgument("entries_per_page must be > 0");
  }
  if (table.pages_per_tile == 0) {
    return Status::InvalidArgument("pages_per_tile must be > 0");
  }
  if (table.page_size_bytes < 64) {
    return Status::InvalidArgument("page_size_bytes too small");
  }
  if (max_imm_memtables < 1) {
    return Status::InvalidArgument("max_imm_memtables must be >= 1");
  }
  if (background_threads < 1 || background_threads > 64) {
    return Status::InvalidArgument("background_threads must be in [1, 64]");
  }
  if (max_subcompactions < 1 || max_subcompactions > 64) {
    return Status::InvalidArgument("max_subcompactions must be in [1, 64]");
  }
  if (num_shards < 1 || num_shards > 256) {
    return Status::InvalidArgument("num_shards must be in [1, 256]");
  }
  return Status::OK();
}

}  // namespace lethe
