#include "src/env/io_counting_env.h"

#include <chrono>
#include <thread>

namespace lethe {

class CountingWritableFile final : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> target,
                       IoCountingEnv* env, std::string fname)
      : target_(std::move(target)), env_(env), fname_(std::move(fname)) {}

  Status Append(const Slice& data) override {
    Status fault;
    FaultPolicy::Kind kind;
    if (env_->MaybeInjectFault(IoCountingEnv::FaultOp::kAppend, fname_, &fault,
                               &kind)) {
      if (kind == FaultPolicy::Kind::kShortWrite && !data.empty()) {
        // Model a torn write: a prefix reaches the device, then the error.
        Slice prefix(data.data(), data.size() / 2);
        if (!prefix.empty() && target_->Append(prefix).ok()) {
          env_->stats_.bytes_written.fetch_add(prefix.size(),
                                               std::memory_order_relaxed);
          env_->stats_.write_ops.fetch_add(1, std::memory_order_relaxed);
          env_->stats_.pages_written.fetch_add(env_->PagesFor(prefix.size()),
                                               std::memory_order_relaxed);
        }
      }
      return fault;
    }
    env_->MaybeDelayAppend();
    Status s = target_->Append(data);
    if (s.ok()) {
      env_->stats_.bytes_written.fetch_add(data.size(),
                                           std::memory_order_relaxed);
      env_->stats_.write_ops.fetch_add(1, std::memory_order_relaxed);
      env_->stats_.pages_written.fetch_add(env_->PagesFor(data.size()),
                                           std::memory_order_relaxed);
    }
    return s;
  }
  Status Flush() override { return target_->Flush(); }
  Status Sync() override {
    Status fault;
    FaultPolicy::Kind kind;
    if (env_->MaybeInjectFault(IoCountingEnv::FaultOp::kSync, fname_, &fault,
                               &kind)) {
      return fault;
    }
    return target_->Sync();
  }
  Status Close() override { return target_->Close(); }

 private:
  std::unique_ptr<WritableFile> target_;
  IoCountingEnv* env_;
  std::string fname_;
};

class CountingRandomWriteFile final : public RandomWriteFile {
 public:
  CountingRandomWriteFile(std::unique_ptr<RandomWriteFile> target,
                          IoCountingEnv* env, std::string fname)
      : target_(std::move(target)), env_(env), fname_(std::move(fname)) {}

  Status WriteAt(uint64_t offset, const Slice& data) override {
    Status fault;
    FaultPolicy::Kind kind;
    if (env_->MaybeInjectFault(IoCountingEnv::FaultOp::kAppend, fname_, &fault,
                               &kind)) {
      return fault;
    }
    Status s = target_->WriteAt(offset, data);
    if (s.ok()) {
      env_->stats_.bytes_written.fetch_add(data.size(),
                                           std::memory_order_relaxed);
      env_->stats_.write_ops.fetch_add(1, std::memory_order_relaxed);
      env_->stats_.pages_written.fetch_add(env_->PagesFor(data.size()),
                                           std::memory_order_relaxed);
    }
    return s;
  }
  Status Sync() override {
    Status fault;
    FaultPolicy::Kind kind;
    if (env_->MaybeInjectFault(IoCountingEnv::FaultOp::kSync, fname_, &fault,
                               &kind)) {
      return fault;
    }
    return target_->Sync();
  }
  Status Close() override { return target_->Close(); }

 private:
  std::unique_ptr<RandomWriteFile> target_;
  IoCountingEnv* env_;
  std::string fname_;
};

class CountingRandomAccessFile final : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> target,
                           IoCountingEnv* env, std::string fname)
      : target_(std::move(target)), env_(env), fname_(std::move(fname)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status fault;
    FaultPolicy::Kind kind;
    if (env_->MaybeInjectFault(IoCountingEnv::FaultOp::kRead, fname_, &fault,
                               &kind)) {
      return fault;
    }
    Status s = target_->Read(offset, n, result, scratch);
    if (s.ok()) {
      env_->stats_.bytes_read.fetch_add(result->size(),
                                        std::memory_order_relaxed);
      env_->stats_.read_ops.fetch_add(1, std::memory_order_relaxed);
      env_->stats_.pages_read.fetch_add(env_->PagesFor(result->size()),
                                        std::memory_order_relaxed);
    }
    return s;
  }

  uint64_t Size() const override { return target_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> target_;
  IoCountingEnv* env_;
  std::string fname_;
};

class CountingSequentialFile final : public SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> target,
                         IoCountingEnv* env, std::string fname)
      : target_(std::move(target)), env_(env), fname_(std::move(fname)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status fault;
    FaultPolicy::Kind kind;
    if (env_->MaybeInjectFault(IoCountingEnv::FaultOp::kRead, fname_, &fault,
                               &kind)) {
      return fault;
    }
    Status s = target_->Read(n, result, scratch);
    if (s.ok()) {
      env_->stats_.bytes_read.fetch_add(result->size(),
                                        std::memory_order_relaxed);
      env_->stats_.read_ops.fetch_add(1, std::memory_order_relaxed);
      env_->stats_.pages_read.fetch_add(env_->PagesFor(result->size()),
                                        std::memory_order_relaxed);
    }
    return s;
  }

  Status Skip(uint64_t n) override { return target_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> target_;
  IoCountingEnv* env_;
  std::string fname_;
};

void IoCountingEnv::InjectFaults(const FaultPolicy& policy) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_ = std::make_unique<FaultPolicy>(policy);
  fault_ops_ = 0;
  fault_rng_.seed(policy.seed);
  fault_armed_.store(true, std::memory_order_release);
}

void IoCountingEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_armed_.store(false, std::memory_order_release);
  fault_.reset();
}

bool IoCountingEnv::MaybeInjectFault(FaultOp op, const std::string& fname,
                                     Status* error, FaultPolicy::Kind* kind) {
  if (!fault_armed_.load(std::memory_order_acquire)) {
    return false;  // fast path: no policy installed
  }
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (fault_ == nullptr) {
    return false;
  }
  const FaultPolicy& p = *fault_;
  bool in_scope = false;
  switch (op) {
    case FaultOp::kAppend:
      in_scope = p.fail_appends;
      break;
    case FaultOp::kSync:
      in_scope = p.fail_syncs;
      break;
    case FaultOp::kCreate:
      in_scope = p.fail_creates;
      break;
    case FaultOp::kRead:
      in_scope = p.fail_reads;
      break;
    case FaultOp::kRename:
      in_scope = p.fail_renames;
      break;
  }
  if (!in_scope) {
    return false;
  }
  if (!p.path_substring.empty() &&
      fname.find(p.path_substring) == std::string::npos) {
    return false;
  }
  if (!p.path_substring2.empty() &&
      fname.find(p.path_substring2) == std::string::npos) {
    return false;
  }
  const uint64_t op_index = ++fault_ops_;
  if (op_index <= p.start_after_ops) {
    return false;  // grace period before the fail window opens
  }
  if (p.fail_window_ops != UINT64_MAX &&
      op_index > p.start_after_ops + p.fail_window_ops) {
    return false;  // window elapsed: the transient fault has cleared
  }
  if (p.probability < 1.0) {
    std::uniform_real_distribution<double> roll(0.0, 1.0);
    if (roll(fault_rng_) >= p.probability) {
      return false;
    }
  }
  injected_failures_.fetch_add(1, std::memory_order_relaxed);
  *kind = p.kind;
  switch (p.kind) {
    case FaultPolicy::Kind::kNoSpace:
      *error = Status::NoSpace("injected ENOSPC");
      break;
    case FaultPolicy::Kind::kShortWrite:
      *error = Status::IOError("injected short write");
      break;
    case FaultPolicy::Kind::kIOError:
      *error = Status::IOError("injected I/O fault");
      break;
  }
  return true;
}

void IoCountingEnv::MaybeDelayAppend() {
  const uint64_t micros = append_delay_micros_.load(std::memory_order_relaxed);
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

Status IoCountingEnv::NewWritableFile(const std::string& fname,
                                      std::unique_ptr<WritableFile>* result) {
  Status fault;
  FaultPolicy::Kind kind;
  if (MaybeInjectFault(FaultOp::kCreate, fname, &fault, &kind)) {
    return fault;
  }
  std::unique_ptr<WritableFile> file;
  LETHE_RETURN_IF_ERROR(target_->NewWritableFile(fname, &file));
  stats_.files_created.fetch_add(1, std::memory_order_relaxed);
  *result =
      std::make_unique<CountingWritableFile>(std::move(file), this, fname);
  return Status::OK();
}

Status IoCountingEnv::NewRandomWriteFile(
    const std::string& fname, std::unique_ptr<RandomWriteFile>* result) {
  std::unique_ptr<RandomWriteFile> file;
  LETHE_RETURN_IF_ERROR(target_->NewRandomWriteFile(fname, &file));
  *result =
      std::make_unique<CountingRandomWriteFile>(std::move(file), this, fname);
  return Status::OK();
}

Status IoCountingEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> file;
  LETHE_RETURN_IF_ERROR(target_->NewRandomAccessFile(fname, &file));
  *result =
      std::make_unique<CountingRandomAccessFile>(std::move(file), this, fname);
  return Status::OK();
}

Status IoCountingEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  std::unique_ptr<SequentialFile> file;
  LETHE_RETURN_IF_ERROR(target_->NewSequentialFile(fname, &file));
  *result =
      std::make_unique<CountingSequentialFile>(std::move(file), this, fname);
  return Status::OK();
}

bool IoCountingEnv::FileExists(const std::string& fname) {
  return target_->FileExists(fname);
}

Status IoCountingEnv::RemoveFile(const std::string& fname) {
  Status s = target_->RemoveFile(fname);
  if (s.ok()) {
    stats_.files_removed.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

Status IoCountingEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return target_->GetFileSize(fname, size);
}

Status IoCountingEnv::RenameFile(const std::string& src,
                                 const std::string& target) {
  Status fault;
  FaultPolicy::Kind kind;
  if (MaybeInjectFault(FaultOp::kRename, target, &fault, &kind)) {
    return fault;
  }
  return target_->RenameFile(src, target);
}

Status IoCountingEnv::CreateDirIfMissing(const std::string& dirname) {
  return target_->CreateDirIfMissing(dirname);
}

Status IoCountingEnv::GetChildren(const std::string& dirname,
                                  std::vector<std::string>* result) {
  return target_->GetChildren(dirname, result);
}

}  // namespace lethe
