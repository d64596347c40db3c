// Black-box flight recorder: bounded per-host rings of recent structured
// events.
//
// A failing nightly-sweep seed used to leave nothing but a seed number to
// debug from. The flight recorder keeps the *recent past* — sends, applies,
// crash/rebirth epochs, session handoffs, variant divergences, watchdog
// alerts — in one fixed-size ring per host, so memory stays O(hosts x ring)
// no matter how long the run, and the dump is only materialized when a sim
// invariant actually fails (sim::run_schedule attaches it to the failure
// report; the nightly sweep uploads it as an artifact).
//
// Determinism: every event is stamped with the simulated clock and a global
// arrival serial; the replication plane is single-threaded, so the dump
// of a same-seed run is byte-identical. Per-host rings
// (rather than one global ring) keep a chatty host (sync sends) from
// evicting the rare events (a crash) on a quiet one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace edgstr::obs {

struct FlightEvent {
  double time = 0;  ///< simulated seconds
  std::string host;
  std::string kind;  ///< "send" | "apply" | "crash" | "handoff" | "alert" | ...
  std::string detail;
  std::uint64_t serial = 0;  ///< global arrival order (merge key across hosts)
};

class FlightRecorder {
 public:
  /// `ring` events are retained per host; older ones are overwritten.
  explicit FlightRecorder(std::size_t ring = 128);

  std::size_t ring() const { return ring_; }

  void record(double time, const std::string& host, const std::string& kind,
              std::string detail);

  /// Events recorded so far (including overwritten ones).
  std::uint64_t recorded() const { return serial_; }
  /// Events currently retained across all hosts.
  std::size_t retained() const;

  /// All retained events merged across hosts in arrival order (oldest
  /// first). Per-host rings are unwound across wraparound, so a host's
  /// events always appear in the order they were recorded.
  std::vector<FlightEvent> dump() const;

  /// The dump as text, one event per line:
  ///   [   12.345678] edge1        crash     epoch=2
  /// with a header naming total/retained counts — the artifact format the
  /// nightly sweep uploads for failing seeds.
  std::string dump_text() const;

  void clear();

 private:
  struct Ring {
    std::vector<FlightEvent> events;  ///< capacity `ring_`, filled circularly
    std::size_t next = 0;             ///< slot the next event overwrites
  };

  std::size_t ring_;
  std::uint64_t serial_ = 0;
  std::map<std::string, Ring> hosts_;
};

}  // namespace edgstr::obs
