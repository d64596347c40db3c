// Deterministic worker-lane scheduler: the replication graph's harvest
// fan-out.
//
// A LaneScheduler owns a fixed set of worker lanes (threads). Work is
// partitioned by *key* — endpoint ids, in practice — with a seed-derived,
// run-constant lane assignment, so the same seed always shards the same
// way. Each lane executes its tasks in submission order; lanes run
// concurrently and synchronize only at barrier() points. That is the whole
// determinism argument:
//
//   1. Lane assignment is a pure function of (seed, key) — no load-based
//      stealing, no racing for work.
//   2. Within a lane, tasks run in the order one driver thread submitted
//      them (each lane's task queue is a FIFO Mailbox).
//   3. Lanes share no mutable state mid-phase: every task touches only the
//      endpoints keyed to its lane. Cross-endpoint work happens after a
//      barrier, on the driver thread.
//
// Under those three rules the observable output of a run is a pure
// function of the seed: real-time interleaving of the lane threads can
// vary freely without changing a byte. With lanes == 1 the scheduler
// degenerates to inline execution on the calling thread — no threads are
// spawned and submit() runs the task immediately, which makes the
// single-lane configuration *literally* the serial code path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "runtime/mailbox.h"
#include "util/metrics.h"

namespace edgstr::runtime {

class LaneScheduler {
 public:
  /// Spawns one worker thread per lane when lanes > 1; none for the
  /// inline single-lane mode. `seed` salts the lane-assignment hash.
  explicit LaneScheduler(std::size_t lanes, std::uint64_t seed = 1);
  ~LaneScheduler();

  LaneScheduler(const LaneScheduler&) = delete;
  LaneScheduler& operator=(const LaneScheduler&) = delete;

  std::size_t lanes() const { return lane_count_; }

  /// Fixed lane for a work key: hash(seed, key) % lanes. Stable for the
  /// lifetime of the scheduler (and across runs with the same seed).
  std::size_t lane_for(std::string_view key) const;

  /// Enqueues a task on a lane. Inline mode (lanes == 1) runs it before
  /// returning; otherwise it is pushed to the lane's bounded task queue
  /// (backpressure: the caller yields while the queue is full).
  void submit(std::size_t lane, std::function<void()> task);

  /// Blocks the calling (driver) thread until every submitted task has
  /// finished. Establishes happens-before with all lane-side writes, so
  /// the driver may freely read what the tasks touched after it returns.
  /// No-op in inline mode.
  void barrier();

  /// Exports lane occupancy under `runtime.lanes.*`: lane count, per-lane
  /// executed-task counters and task-queue peaks.
  void export_metrics(util::MetricsRegistry& out) const;

  /// Tasks executed so far on a lane (diagnostics / tests).
  std::uint64_t executed(std::size_t lane) const {
    return lanes_[lane]->executed.load(std::memory_order_acquire);
  }

 private:
  /// Per-lane task-queue bound; a driver that outruns a lane yields.
  static constexpr std::size_t kQueueCapacity = 4096;

  struct Lane {
    Mailbox<std::function<void()>> tasks{kQueueCapacity};
    std::thread worker;
    std::atomic<std::uint64_t> executed{0};
  };

  void worker_loop(Lane& lane);

  std::size_t lane_count_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  std::atomic<std::uint64_t> pending_{0};  ///< submitted, not yet finished
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

}  // namespace edgstr::runtime
