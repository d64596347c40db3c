// Bounded FIFO mailbox — the task queue between the driver thread and one
// worker lane of a LaneScheduler.
//
// The queue is bounded on purpose: a producer that outruns its consumer
// *yields* (blocks on a condition variable) instead of growing an
// unbounded backlog — a full queue stalls the sender at a deterministic
// point in its submission sequence rather than reordering or dropping.
//
// Thread-safety: all operations are safe from any thread. FIFO order is
// global across producers only in the single-producer configuration the
// scheduler uses (one driver thread per queue); with multiple concurrent
// producers the interleaving is whatever the lock grants.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace edgstr::runtime {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(std::size_t capacity = 1024) : capacity_(capacity ? capacity : 1) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues, blocking while the mailbox is full (the sender yields until
  /// the consumer makes room). Returns false if the mailbox was closed
  /// before space appeared — the item is dropped in that case.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    if (queue_.size() > high_water_) high_water_ = queue_.size();
    not_empty_.notify_one();
    return true;
  }

  /// Dequeues, blocking until an item arrives or the mailbox closes.
  /// Returns false only when closed *and* drained.
  bool pop(T* out) {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// Closes the mailbox: pending items remain poppable, further pushes
  /// fail, and blocked producers/consumers wake.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Deepest the queue has ever been — the lane-imbalance signal exported
  /// as `runtime.lanes.*.queue_peak`.
  std::size_t high_water() const {
    std::lock_guard lock(mutex_);
    return high_water_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  bool closed_ = false;
  std::size_t high_water_ = 0;
};

}  // namespace edgstr::runtime
