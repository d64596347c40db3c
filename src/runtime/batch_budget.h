// Adaptive per-direction byte budget for sync deltas (AIMD on a 1-2-5
// ladder).
//
// A digest responder cuts its op delta at the current budget so one slow
// round never monopolizes a thin link; the remainder resumes automatically
// (the peer's next digest reflects the applied prefix). The budget walks a
// 1-2-5 ladder: every round in which at least one budgeted send was
// delivered — and none was lost or latency-spiked — steps one rung up
// (additive increase); an observed loss drops two rungs (~1/5, the
// multiplicative decrease) and a latency spike drops one. Loss is inferred
// from the simulated clock alone: a send still undelivered when a round
// opens past the timeout horizon was dropped by the network.
//
// Everything is driven by sim-clock timestamps passed in by the caller, so
// two same-seed runs walk the identical budget trajectory.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

namespace edgstr::runtime {

class BatchBudget {
 public:
  /// Byte values 1-2-5 from 1 KB to 1 MB.
  static const std::vector<std::uint64_t>& ladder();

  /// Starts mid-ladder (20 KB): small enough to react, big enough that an
  /// unconstrained link never notices the controller.
  explicit BatchBudget(std::size_t start_index = 5);

  /// Current per-message byte budget for op deltas.
  std::uint64_t budget() const { return ladder()[index_]; }
  std::size_t index() const { return index_; }

  /// A budgeted (op-bearing) send entered the link at sim time `now`.
  void on_send(double now);
  /// The oldest pending send was delivered at `now`; observes its latency
  /// into the EWMA and flags a congestion spike when it lands far above it.
  void on_delivery(double now);

  /// Round boundary: expires pending sends older than the loss timeout,
  /// applies the AIMD step for the window just closed, and opens a new
  /// window. Returns the number of sends declared lost.
  std::size_t begin_round(double now);

  std::uint64_t total_losses() const { return total_losses_; }

  /// Test hook: pins the ladder position to the largest rung <= `bytes`
  /// and caps additive increase there (so forced-tiny budgets keep
  /// exercising the truncation/resume path round after round).
  void force_budget(std::uint64_t bytes);

 private:
  double loss_timeout(double fallback = 2.0) const;

  std::size_t index_;
  std::size_t cap_index_ = ladder().size() - 1;
  std::deque<double> pending_;  ///< send times, FIFO per link direction
  double ewma_latency_ = 0;     ///< 0 until the first delivery is observed
  std::size_t window_deliveries_ = 0;
  std::size_t window_losses_ = 0;
  std::size_t window_spikes_ = 0;
  std::uint64_t total_losses_ = 0;
};

}  // namespace edgstr::runtime
