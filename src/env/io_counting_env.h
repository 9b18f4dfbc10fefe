#ifndef LETHE_ENV_IO_COUNTING_ENV_H_
#define LETHE_ENV_IO_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>

#include "src/env/env.h"

namespace lethe {

/// Exact accounting of every byte moved through an Env. Page-granular
/// counters (bytes / page_size, rounded up per request) let the benches
/// report I/O costs in the same unit the paper uses (disk page reads and
/// writes), independent of the backing store's speed.
struct IoStats {
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> write_ops{0};
  std::atomic<uint64_t> pages_read{0};
  std::atomic<uint64_t> pages_written{0};
  std::atomic<uint64_t> files_created{0};
  std::atomic<uint64_t> files_removed{0};

  void Reset() {
    bytes_read = 0;
    bytes_written = 0;
    read_ops = 0;
    write_ops = 0;
    pages_read = 0;
    pages_written = 0;
    files_created = 0;
    files_removed = 0;
  }
};

/// Declarative fault injection for failure tests. A policy selects which
/// operation classes can fail, what error they fail with, and when: every
/// call of an enabled class on a matching path consumes one "fault op";
/// ops 1..start_after_ops always pass (lets a test get past Open), ops in
/// (start_after_ops, start_after_ops + fail_window_ops] roll `probability`,
/// and ops beyond the window always pass — so a bounded window models a
/// *transient* fault that clears on its own, while the default unbounded
/// window models a permanent one until ClearFaults().
struct FaultPolicy {
  enum class Kind {
    kIOError,     // Status::IOError, nothing written
    kNoSpace,     // Status::NoSpace (ENOSPC), nothing written
    kShortWrite,  // half the payload reaches the file, then Status::IOError
  };
  Kind kind = Kind::kIOError;

  // Operation classes the policy applies to.
  bool fail_appends = true;   // WritableFile::Append / RandomWriteFile::WriteAt
  bool fail_syncs = false;    // WritableFile::Sync / RandomWriteFile::Sync
  bool fail_creates = false;  // NewWritableFile
  bool fail_reads = false;    // RandomAccessFile / SequentialFile reads
  bool fail_renames = false;  // RenameFile

  double probability = 1.0;            // chance each in-window op fails
  uint64_t start_after_ops = 0;        // grace ops before the window opens
  uint64_t fail_window_ops = UINT64_MAX;  // window length; UINT64_MAX = forever
  std::string path_substring;          // empty = every file
  std::string path_substring2;         // second filter; both must match
                                       // (e.g. "shard-2" + ".sst" targets one
                                       // shard's table writes)
  uint64_t seed = 0;                   // probability RNG seed (deterministic)
};

/// Wraps a target Env, forwarding all calls while counting traffic into an
/// IoStats. Also injects faults for crash/failure tests through a
/// FaultPolicy (InjectFaults) with a per-operation error taxonomy,
/// probabilities, and transient fail windows.
class IoCountingEnv final : public Env {
 public:
  explicit IoCountingEnv(Env* target, uint64_t page_size = 4096)
      : target_(target), page_size_(page_size) {}

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }
  uint64_t page_size() const { return page_size_; }

  /// Installs a fault policy (replacing any previous one) and resets the
  /// fault-op counter, so window offsets are relative to this call. Thread-
  /// safe; may be called while the DB is running — the fault stress lane
  /// injects and clears policies mid-run.
  void InjectFaults(const FaultPolicy& policy);

  /// Removes any installed fault policy. In-flight operations that already
  /// rolled a failure still fail.
  void ClearFaults();

  /// Number of operations actually failed (or short-written) by the policy
  /// machinery since construction. Lets tests assert a fault really fired.
  uint64_t injected_failures() const {
    return injected_failures_.load(std::memory_order_relaxed);
  }

  /// Latency injection: every Append sleeps this long before writing.
  /// Concurrency tests use it to model a slow device, making group-commit
  /// batching and write stalls deterministic to observe. 0 (default)
  /// disables.
  void SetAppendDelayMicros(uint64_t micros) {
    append_delay_micros_.store(micros, std::memory_order_relaxed);
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewRandomWriteFile(const std::string& fname,
                            std::unique_ptr<RandomWriteFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status RemoveFile(const std::string& fname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src, const std::string& target) override;
  Status CreateDirIfMissing(const std::string& dirname) override;
  Status GetChildren(const std::string& dirname,
                     std::vector<std::string>* result) override;

 private:
  friend class CountingWritableFile;
  friend class CountingRandomWriteFile;
  friend class CountingRandomAccessFile;
  friend class CountingSequentialFile;

  uint64_t PagesFor(uint64_t bytes) const {
    return (bytes + page_size_ - 1) / page_size_;
  }

  /// Operation classes the FaultPolicy machinery distinguishes.
  enum class FaultOp { kAppend, kSync, kCreate, kRead, kRename };

  /// Consults the installed FaultPolicy for one operation. Returns true if
  /// the op must fail and sets `*error` to the policy's error kind; for
  /// kShortWrite the caller appends half the payload first. No-op (false)
  /// when no policy is installed or the op is out of scope/window.
  bool MaybeInjectFault(FaultOp op, const std::string& fname, Status* error,
                        FaultPolicy::Kind* kind);

  /// Sleeps for the configured append delay (no-op when 0).
  void MaybeDelayAppend();

  Env* target_;
  uint64_t page_size_;
  IoStats stats_;
  std::atomic<uint64_t> append_delay_micros_{0};

  // FaultPolicy machinery. fault_armed_ mirrors (fault_ != nullptr) so the
  // no-policy fast path stays lock-free.
  std::atomic<bool> fault_armed_{false};
  std::atomic<uint64_t> injected_failures_{0};
  mutable std::mutex fault_mu_;
  std::unique_ptr<FaultPolicy> fault_;  // guarded by fault_mu_
  uint64_t fault_ops_ = 0;              // guarded by fault_mu_
  std::mt19937_64 fault_rng_;           // guarded by fault_mu_
};

}  // namespace lethe

#endif  // LETHE_ENV_IO_COUNTING_ENV_H_
