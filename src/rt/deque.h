// Chase-Lev work-stealing deque.
//
// Single-owner double-ended queue: the owning worker pushes and pops at the
// bottom in LIFO order (hot cache, depth-first descent of the task tree);
// any other thread steals from the top in FIFO order (oldest == largest
// remaining range, which keeps stolen work coarse). Lock-free; the only
// contended operation is the top CAS between a stealer and the owner racing
// for the last element.
//
// The memory-order discipline follows Lê, Pop, Cohen & Nardelli, "Correct
// and Efficient Work-Stealing for Weakly Ordered Memory Models" (PPoPP'13),
// the proven-correct C11 formulation of the original Chase-Lev structure.
// Buffer slots are relaxed atomics so the unsynchronized slot reads that the
// algorithm deliberately allows are still data-race-free for the sanitizers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace scap::rt {

template <typename T>
class WorkStealingDeque {
  static_assert(std::is_pointer_v<T>, "deque elements must be pointers");

 public:
  explicit WorkStealingDeque(std::int64_t capacity = 256) {
    buffer_.store(new Buffer(capacity), std::memory_order_relaxed);
  }
  ~WorkStealingDeque() {
    delete buffer_.load(std::memory_order_relaxed);
    for (Buffer* b : retired_) delete b;
  }
  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only. Amortized O(1); grows the ring on overflow.
  void push(T item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* a = buffer_.load(std::memory_order_relaxed);
    if (b - t > a->capacity - 1) {
      a = grow(a, t, b);
    }
    a->put(b, item);
    // Publishes the slot to stealers: a release store orders the same as
    // the paper's release fence plus relaxed store, and ThreadSanitizer
    // (which does not model fences) can see it.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only. Returns nullptr when empty (or when a stealer won the race
  /// for the final element).
  T pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* a = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    T item = nullptr;
    if (t <= b) {
      item = a->get(b);
      if (t == b) {
        // Last element: race the stealers for it.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          item = nullptr;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Any thread. Returns nullptr when empty or on a lost CAS race (callers
  /// treat both as "try another victim").
  T steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    T item = nullptr;
    if (t < b) {
      Buffer* a = buffer_.load(std::memory_order_acquire);
      item = a->get(t);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;
      }
    }
    return item;
  }

  /// Approximate (racy) size; only used for observability gauges.
  std::int64_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

 private:
  struct Buffer {
    const std::int64_t capacity;  // power of two
    std::unique_ptr<std::atomic<T>[]> slots;

    explicit Buffer(std::int64_t cap)
        : capacity(cap), slots(new std::atomic<T>[static_cast<std::size_t>(cap)]) {}
    T get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i & (capacity - 1))].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      slots[static_cast<std::size_t>(i & (capacity - 1))].store(
          v, std::memory_order_relaxed);
    }
  };

  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Buffer(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    buffer_.store(bigger, std::memory_order_release);
    // A stealer may still hold the old buffer pointer; retire it until the
    // deque itself dies instead of freeing under its feet.
    retired_.push_back(old);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_{nullptr};
  std::vector<Buffer*> retired_;  // owner-only (push path)
};

}  // namespace scap::rt
