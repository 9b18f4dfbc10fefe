#ifndef LETHE_UTIL_SLICE_H_
#define LETHE_UTIL_SLICE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace lethe {

/// A Slice is a non-owning view over a contiguous byte range, used for keys
/// and values throughout the engine. The referenced memory must outlive the
/// Slice. Cheap to copy by value.
class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* d, size_t n) : data_(d), size_(n) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(const char* s) : data_(s), size_(strlen(s)) {}                // NOLINT
  Slice(std::string_view sv) : data_(sv.data()), size_(sv.size()) {}  // NOLINT

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t n) const {
    assert(n < size_);
    return data_[n];
  }

  void clear() {
    data_ = "";
    size_ = 0;
  }

  /// Drops the first `n` bytes from this slice.
  void remove_prefix(size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  /// Drops the last `n` bytes from this slice.
  void remove_suffix(size_t n) {
    assert(n <= size_);
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }
  std::string_view ToStringView() const {
    return std::string_view(data_, size_);
  }

  /// Three-way comparison: <0, ==0, >0 as in memcmp over bytes, shorter
  /// slice ordering first on equal prefix.
  int compare(const Slice& b) const {
    const size_t min_len = (size_ < b.size_) ? size_ : b.size_;
    int r = memcmp(data_, b.data_, min_len);
    if (r == 0) {
      if (size_ < b.size_) {
        r = -1;
      } else if (size_ > b.size_) {
        r = +1;
      }
    }
    return r;
  }

  bool starts_with(const Slice& x) const {
    return (size_ >= x.size_) && (memcmp(data_, x.data_, x.size_) == 0);
  }

 private:
  const char* data_;
  size_t size_;
};

inline bool operator==(const Slice& x, const Slice& y) {
  return (x.size() == y.size()) &&
         (memcmp(x.data(), y.data(), x.size()) == 0);
}

inline bool operator!=(const Slice& x, const Slice& y) { return !(x == y); }

/// Length of the longest common prefix of x and y.
inline size_t SharedPrefixLength(const Slice& x, const Slice& y) {
  const size_t limit = x.size() < y.size() ? x.size() : y.size();
  size_t n = 0;
  // Eight bytes at a time while they match.
  while (n + 8 <= limit) {
    uint64_t a, b;
    memcpy(&a, x.data() + n, 8);
    memcpy(&b, y.data() + n, 8);
    if (a != b) {
      break;
    }
    n += 8;
  }
  while (n < limit && x[n] == y[n]) {
    n++;
  }
  return n;
}

inline bool operator<(const Slice& x, const Slice& y) {
  return x.compare(y) < 0;
}

}  // namespace lethe

#endif  // LETHE_UTIL_SLICE_H_
