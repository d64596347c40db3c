#include "runtime/lane_scheduler.h"

#include <string>

#include "util/strings.h"

namespace edgstr::runtime {

LaneScheduler::LaneScheduler(std::size_t lanes, std::uint64_t seed)
    : lane_count_(lanes == 0 ? 1 : lanes), seed_(seed) {
  lanes_.reserve(lane_count_);
  for (std::size_t i = 0; i < lane_count_; ++i) lanes_.push_back(std::make_unique<Lane>());
  if (lane_count_ > 1) {
    for (auto& lane : lanes_) {
      lane->worker = std::thread([this, lane = lane.get()] { worker_loop(*lane); });
    }
  }
}

LaneScheduler::~LaneScheduler() {
  if (lane_count_ > 1) {
    barrier();
    for (auto& lane : lanes_) lane->tasks.close();
    for (auto& lane : lanes_) {
      if (lane->worker.joinable()) lane->worker.join();
    }
  }
}

std::size_t LaneScheduler::lane_for(std::string_view key) const {
  if (lane_count_ == 1) return 0;
  // Salted FNV-1a: the seed perturbs the assignment so different runs
  // shard differently, but one run's assignment never moves.
  std::uint64_t h = util::fnv1a(key) ^ (seed_ * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  return static_cast<std::size_t>(h % lane_count_);
}

void LaneScheduler::submit(std::size_t lane, std::function<void()> task) {
  Lane& target = *lanes_.at(lane);
  if (lane_count_ == 1) {
    // Inline mode: the serial path, byte-for-byte — same thread, same
    // order, no queueing.
    task();
    target.executed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (!target.tasks.push(std::move(task))) {
    // Closed during shutdown: the task is dropped, settle the count.
    pending_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void LaneScheduler::barrier() {
  if (lane_count_ == 1) return;
  std::unique_lock lock(idle_mutex_);
  idle_cv_.wait(lock, [&] { return pending_.load(std::memory_order_acquire) == 0; });
}

void LaneScheduler::worker_loop(Lane& lane) {
  std::function<void()> task;
  while (lane.tasks.pop(&task)) {
    task();
    task = nullptr;  // release captures before signalling completion
    lane.executed.fetch_add(1, std::memory_order_relaxed);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task in flight: wake the driver. Lock/unlock pairs with the
      // wait above so the wake cannot be lost between check and sleep.
      std::lock_guard lock(idle_mutex_);
      idle_cv_.notify_all();
    }
  }
}

void LaneScheduler::export_metrics(util::MetricsRegistry& out) const {
  out.set("runtime.lanes.count", double(lane_count_));
  for (std::size_t i = 0; i < lane_count_; ++i) {
    const std::string prefix = "runtime.lanes." + std::to_string(i);
    out.set(prefix + ".tasks", double(lanes_[i]->executed.load(std::memory_order_acquire)));
    out.set(prefix + ".queue_peak", double(lanes_[i]->tasks.high_water()));
  }
}

}  // namespace edgstr::runtime
