#ifndef LETHE_MEMTABLE_SKIPLIST_H_
#define LETHE_MEMTABLE_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "src/util/arena.h"
#include "src/util/random.h"

namespace lethe {

/// Lock-free-read skiplist over opaque keys, in the LevelDB mold: a single
/// external writer inserts; concurrent readers traverse safely thanks to
/// release/acquire pointer publication. The writer remembers the list's
/// last node per level, so keys arriving in ascending order append without
/// a search. Keys are arena-allocated byte buffers; ordering is provided
/// by the Comparator functor (int operator()(const char* a, const char* b)).
template <typename Comparator>
class SkipList {
 private:
  struct Node;

 public:
  SkipList(Comparator cmp, Arena* arena)
      : compare_(cmp),
        arena_(arena),
        head_(NewNode(nullptr, kMaxHeight)),
        max_height_(1),
        rnd_(0xdeadbeef) {
    for (int i = 0; i < kMaxHeight; i++) {
      head_->SetNext(i, nullptr);
      last_[i] = head_;
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts `key` (an arena-allocated record). Requires nothing equal is
  /// already present (the memtable appends with unique ascending seqs).
  /// A key that sorts after the current last node links there after one
  /// compare (ascending loads never search); any other key searches from
  /// the top. Both paths produce the same links. Returns true when the key
  /// took the tail path.
  bool Insert(const char* key) {
    const int height = RandomHeight();
    Node* prev[kMaxHeight];
    const bool at_tail = last_[0] == head_ || compare_(key, last_[0]->key) > 0;
    if (at_tail) {
      for (int i = 0; i < height; i++) {
        prev[i] = last_[i];
      }
    } else {
      [[maybe_unused]] Node* next = FindGreaterOrEqual(key, prev);
      assert(next == nullptr || compare_(key, next->key) != 0);
    }

    if (height > GetMaxHeight()) {
      for (int i = GetMaxHeight(); i < height; i++) {
        prev[i] = head_;
      }
      max_height_.store(height, std::memory_order_relaxed);
    }

    Node* x = NewNode(key, height);
    for (int i = 0; i < height; i++) {
      x->NoBarrierSetNext(i, prev[i]->NoBarrierNext(i));
      prev[i]->SetNext(i, x);
      if (x->NoBarrierNext(i) == nullptr) {
        last_[i] = x;
      }
    }
    return at_tail;
  }

  bool Contains(const char* key) const {
    Node* x = FindGreaterOrEqual(key, nullptr);
    return x != nullptr && compare_(key, x->key) == 0;
  }

  /// Forward iterator over the list.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const char* key() const {
      assert(Valid());
      return node_->key;
    }
    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }
    void Seek(const char* target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }
    void SeekToFirst() { node_ = list_->head_->Next(0); }
    void SeekToLast() {
      node_ = list_->FindLast();
      if (node_ == list_->head_) {
        node_ = nullptr;
      }
    }

   private:
    const SkipList* list_;
    Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;

  struct Node {
    explicit Node(const char* k) : key(k) {}

    const char* key;

    Node* Next(int n) { return next_[n].load(std::memory_order_acquire); }
    void SetNext(int n, Node* x) {
      next_[n].store(x, std::memory_order_release);
    }
    Node* NoBarrierNext(int n) {
      return next_[n].load(std::memory_order_relaxed);
    }
    void NoBarrierSetNext(int n, Node* x) {
      next_[n].store(x, std::memory_order_relaxed);
    }

   private:
    // Array of length equal to the node height; [0] is the lowest level.
    std::atomic<Node*> next_[1];
  };

  Node* NewNode(const char* key, int height) {
    char* mem = arena_->AllocateAligned(
        sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    return new (mem) Node(key);
  }

  int RandomHeight() {
    static constexpr unsigned int kBranching = 4;
    int height = 1;
    while (height < kMaxHeight && rnd_.Uniform(kBranching) == 0) {
      height++;
    }
    return height;
  }

  int GetMaxHeight() const {
    return max_height_.load(std::memory_order_relaxed);
  }

  Node* FindGreaterOrEqual(const char* key, Node** prev) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr && compare_(next->key, key) < 0) {
        x = next;
      } else {
        if (prev != nullptr) {
          prev[level] = x;
        }
        if (level == 0) {
          return next;
        }
        level--;
      }
    }
  }

  /// The last node of the list, or head_ when empty: one top-down descent
  /// along the rightmost links. Reader-safe.
  Node* FindLast() const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr) {
        x = next;
      } else if (level == 0) {
        return x;
      } else {
        level--;
      }
    }
  }

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
  Random rnd_;
  // Writer-only: the last node at each level (head_ where a level is
  // empty), i.e. the predecessors a new tail node links after. Readers
  // never touch it; they see the same release-published links as for a
  // searched insert.
  Node* last_[kMaxHeight];
};

}  // namespace lethe

#endif  // LETHE_MEMTABLE_SKIPLIST_H_
