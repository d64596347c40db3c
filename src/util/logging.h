// Lightweight leveled logging for the EdgStr simulation stack.
//
// Logging is routed through a single global sink so tests can silence or
// capture output. The sink receives a structured LogRecord (level +
// message) rather than pre-formatted text, so layered consumers — the span
// layer, capture sinks in tests — can route on severity without parsing.
// Levels follow the usual severity ordering; the default threshold is
// kWarn so library code stays quiet unless asked.
//
// Thread/reentrancy safety: the sink and threshold are guarded by a mutex,
// and the sink is *invoked outside the lock* (on a copy), so a sink that
// itself logs — or two threads logging at once — cannot deadlock. A record
// emitted from inside a sink call (reentrancy) is dropped rather than
// recursing (the guard is thread_local, so one thread's sink call never
// suppresses another thread's records). Sinks may run concurrently from
// multiple threads; a sink that mutates shared state must synchronize
// itself. Log output is not part of any exported byte stream, so logging
// never perturbs a run's deterministic exports.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace edgstr::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError };

/// Returns a short uppercase tag ("TRACE", "DEBUG", ...) for a level.
std::string_view to_string(LogLevel level);

/// Parses a level name ("trace", "DEBUG", ...); returns false on unknown.
bool parse_log_level(std::string_view name, LogLevel* out);

/// One emitted record. `message` is only valid for the duration of the
/// sink call — copy it if the sink retains records.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string_view message;
};

/// Sink invoked for every emitted record at or above the threshold.
using LogSink = std::function<void(const LogRecord&)>;

/// Replaces the global sink. Passing nullptr restores the stderr sink.
void set_log_sink(LogSink sink);

/// Adjusts the global severity threshold.
void set_log_level(LogLevel level);

/// Current global severity threshold.
LogLevel log_level();

/// Emits one record if `level` passes the threshold.
void log(LogLevel level, std::string_view message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace edgstr::util

#define EDGSTR_LOG(level) ::edgstr::util::detail::LogLine(level)
#define EDGSTR_TRACE() EDGSTR_LOG(::edgstr::util::LogLevel::kTrace)
#define EDGSTR_DEBUG() EDGSTR_LOG(::edgstr::util::LogLevel::kDebug)
#define EDGSTR_INFO() EDGSTR_LOG(::edgstr::util::LogLevel::kInfo)
#define EDGSTR_WARN() EDGSTR_LOG(::edgstr::util::LogLevel::kWarn)
#define EDGSTR_ERROR() EDGSTR_LOG(::edgstr::util::LogLevel::kError)
