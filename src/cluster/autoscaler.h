// Elastic replica activation (§IV-D).
//
// The autoscaler monitors the balancer's active-connection count and
// adjusts how many edge replicas are awake: under-utilized replicas are
// parked into low-power mode (not shut down, so they can return "without
// incurring unnecessary delays"); rising load wakes them again. The policy
// assumes uniform request cost, as the paper's heuristic does.
#pragma once

#include "cluster/balancer.h"

namespace edgstr::cluster {

struct AutoScalerPolicy {
  /// Connections one node is expected to absorb before another activates.
  double connections_per_node = 3.0;
  int min_active = 1;
  /// Exponential smoothing factor for the utilization signal.
  double smoothing = 0.3;
};

class AutoScaler {
 public:
  AutoScaler(LoadBalancer& balancer, AutoScalerPolicy policy = AutoScalerPolicy());

  /// Samples utilization and activates/parks replicas toward the target.
  /// Call periodically (the cluster benches call it on a clock timer).
  void evaluate();

  /// Currently-desired number of active replicas.
  int target_active() const { return target_active_; }
  int scale_up_events() const { return scale_ups_; }
  int scale_down_events() const { return scale_downs_; }

 private:
  LoadBalancer& balancer_;
  AutoScalerPolicy policy_;
  double smoothed_ = 0;
  int target_active_ = 1;
  int scale_ups_ = 0;
  int scale_downs_ = 0;
};

}  // namespace edgstr::cluster
