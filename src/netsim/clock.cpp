#include "netsim/clock.h"

#include <stdexcept>
#include <utility>

namespace edgstr::netsim {

void SimClock::schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  schedule_at(now_ + delay, std::move(fn));
}

void SimClock::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_) when = now_;
  queue_.push(Event{when, next_seq_++, std::move(fn)});
}

bool SimClock::step() {
  if (queue_.empty()) return false;
  // Move the event out rather than copy it: its callback may own a whole
  // response. pop() orders by (when, seq), which the move leaves intact.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.when;
  ev.fn();
  return true;
}

void SimClock::run() {
  while (step()) {
  }
}

void SimClock::run_until(SimTime deadline) {
  if (deadline < now_) throw std::invalid_argument("run_until: deadline in the past");
  while (!queue_.empty() && queue_.top().when <= deadline) {
    step();
  }
  now_ = deadline;
}

}  // namespace edgstr::netsim
