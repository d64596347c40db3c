#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace edgstr::workload {

ArrivalSchedule ArrivalSchedule::constant(double rps, double duration_s) {
  if (rps <= 0 || duration_s <= 0) throw std::invalid_argument("constant: rps/duration > 0");
  ArrivalSchedule out;
  out.duration_s_ = duration_s;
  const double gap = 1.0 / rps;
  for (double t = gap; t < duration_s; t += gap) out.times_.push_back(t);
  return out;
}

ArrivalSchedule ArrivalSchedule::poisson(double rps, double duration_s, std::uint64_t seed) {
  return phases({Phase{rps, duration_s}}, seed);
}

ArrivalSchedule ArrivalSchedule::phases(std::vector<Phase> phases, std::uint64_t seed) {
  ArrivalSchedule out;
  util::Rng rng(seed);
  double t = 0;
  for (const Phase& phase : phases) {
    if (phase.rps <= 0 || phase.duration_s <= 0) {
      throw std::invalid_argument("phases: rps/duration must be > 0");
    }
    const double end = t + phase.duration_s;
    double arrival = t;
    while (true) {
      arrival += rng.exponential(phase.rps);
      if (arrival >= end) break;
      out.times_.push_back(arrival);
    }
    t = end;
  }
  out.duration_s_ = t;
  return out;
}

ArrivalSchedule ArrivalSchedule::diurnal(double low_rps, double high_rps, double period_s,
                                         double duration_s, std::uint64_t seed) {
  if (low_rps <= 0 || high_rps < low_rps) {
    throw std::invalid_argument("diurnal: need 0 < low <= high");
  }
  // Piecewise approximation: one Poisson phase per 1/16th of the period.
  std::vector<Phase> phases;
  const double slice = period_s / 16.0;
  for (double t = 0; t < duration_s; t += slice) {
    const double mid = (low_rps + high_rps) / 2.0;
    const double amp = (high_rps - low_rps) / 2.0;
    const double rate = mid + amp * std::sin(2.0 * std::numbers::pi * t / period_s);
    phases.push_back(Phase{rate, std::min(slice, duration_s - t)});
  }
  return ArrivalSchedule::phases(std::move(phases), seed);
}

ArrivalSchedule ArrivalSchedule::from_times(std::vector<double> times, double duration_s) {
  if (duration_s <= 0) throw std::invalid_argument("from_times: duration must be > 0");
  if (!std::is_sorted(times.begin(), times.end())) {
    throw std::invalid_argument("from_times: timestamps must be sorted");
  }
  ArrivalSchedule out;
  out.times_ = std::move(times);
  out.duration_s_ = duration_s;
  return out;
}

RequestMix::RequestMix(http::HttpRequest request) {
  requests_.push_back(std::move(request));
  cumulative_.push_back(1.0);
}

RequestMix::RequestMix(std::vector<http::HttpRequest> requests, std::vector<double> weights) {
  if (requests.empty() || requests.size() != weights.size()) {
    throw std::invalid_argument("RequestMix: requests/weights size mismatch");
  }
  requests_ = std::move(requests);
  double total = 0;
  for (const double w : weights) {
    if (w < 0) throw std::invalid_argument("RequestMix: negative weight");
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("RequestMix: zero total weight");
  double acc = 0;
  for (const double w : weights) {
    acc += w / total;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;  // guard against rounding
}

RequestMix RequestMix::uniform(std::vector<http::HttpRequest> requests) {
  const std::vector<double> weights(requests.size(), 1.0);
  return RequestMix(std::move(requests), weights);
}

http::HttpRequest RequestMix::draw(util::Rng& rng) const {
  const double roll = rng.next_double();
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (roll <= cumulative_[i]) return requests_[i];
  }
  return requests_.back();
}

WorkloadResult WorkloadDriver::drive(const ArrivalSchedule& schedule, const RequestMix& mix,
                                     IssueFn issue, double drain_s) {
  // Scheduled lambdas can outlive this frame if completions spill past the
  // drain window; everything they touch is heap-owned.
  auto result = std::make_shared<WorkloadResult>();
  auto issue_fn = std::make_shared<IssueFn>(std::move(issue));

  const double start = clock_.now();
  for (const double at : schedule.times()) {
    const http::HttpRequest req = mix.draw(rng_);
    ++result->issued;
    clock_.schedule_at(start + at, [result, issue_fn, req] {
      (*issue_fn)(req, [result](http::HttpResponse resp, double latency) {
        ++result->completed;
        if (!resp.ok()) ++result->failed;
        result->latencies_ms.add(latency * 1000.0);
      });
    });
  }
  // Self-rescheduling hook; the chain stops at the schedule's end, which
  // run_until passes. It refers to itself weakly (a strong capture would
  // make it own itself and never be freed), so this frame keeps it alive.
  std::shared_ptr<std::function<void()>> tick;
  if (hook_) {
    const double end = start + schedule.duration_s();
    tick = std::make_shared<std::function<void()>>();
    *tick = [this, end, self = std::weak_ptr<std::function<void()>>(tick)] {
      hook_();
      if (clock_.now() + hook_period_s_ <= end) {
        if (const auto next = self.lock()) clock_.schedule(hook_period_s_, *next);
      }
    };
    clock_.schedule(hook_period_s_, *tick);
  }
  clock_.run_until(start + schedule.duration_s() + drain_s);
  return *result;
}

}  // namespace edgstr::workload
