#ifndef CENN_UTIL_LOGGING_H_
#define CENN_UTIL_LOGGING_H_

/**
 * @file
 * Status and error reporting for the CeNN-DES library.
 *
 * Follows the gem5 fatal/panic distinction:
 *  - CENN_FATAL: the simulation cannot continue because of a *user* error
 *    (bad configuration, invalid argument). Exits with code 1.
 *  - CENN_PANIC: an internal invariant was violated (a library bug).
 *    Calls std::abort() so a core dump / debugger can catch it.
 *  - CENN_WARN / CENN_INFORM: non-terminating status messages.
 */

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

namespace cenn {

/** Verbosity levels for non-terminating messages. */
enum class LogLevel : std::uint8_t {
  kSilent = 0,
  kWarn = 1,
  kInform = 2,
  kDebug = 3,
};

/** Global log verbosity; messages above this level are suppressed. */
LogLevel GetLogLevel();

/** Sets the global log verbosity. Thread-safe (atomic). */
void SetLogLevel(LogLevel level);

namespace internal {

/** Prints "fatal: <msg>" to stderr and exits with code 1. */
[[noreturn]] void FatalImpl(const char* file, int line, const std::string& msg);

/** Prints "panic: <msg>" to stderr and aborts. */
[[noreturn]] void PanicImpl(const char* file, int line, const std::string& msg);

/** Prints a leveled message ("warn:", "info:", "debug:") to stderr. */
void LogImpl(LogLevel level, const std::string& msg);

/** Builds a message from stream-style arguments. */
template <typename... Args>
std::string
Format(Args&&... args)
{
  std::ostringstream os;
  // An empty pack would fold to a bare `os;` (-Wunused-value).
  if constexpr (sizeof...(Args) > 0) {
    (os << ... << std::forward<Args>(args));
  }
  return os.str();
}

}  // namespace internal
}  // namespace cenn

/** Terminates on unrecoverable user error (bad config / arguments). */
#define CENN_FATAL(...) \
  ::cenn::internal::FatalImpl(__FILE__, __LINE__, \
                              ::cenn::internal::Format(__VA_ARGS__))

/** Terminates on violated internal invariant (library bug). */
#define CENN_PANIC(...) \
  ::cenn::internal::PanicImpl(__FILE__, __LINE__, \
                              ::cenn::internal::Format(__VA_ARGS__))

/** Panics when `cond` is false; always evaluated (not compiled out). */
#define CENN_ASSERT(cond, ...) \
  do { \
    if (!(cond)) { \
      ::cenn::internal::PanicImpl( \
          __FILE__, __LINE__, \
          ::cenn::internal::Format("assertion failed: " #cond " ", \
                                   ##__VA_ARGS__)); \
    } \
  } while (false)

/** Non-terminating warning about questionable but survivable conditions. */
#define CENN_WARN(...) \
  ::cenn::internal::LogImpl(::cenn::LogLevel::kWarn, \
                            ::cenn::internal::Format(__VA_ARGS__))

/** Informative status message. */
#define CENN_INFORM(...) \
  ::cenn::internal::LogImpl(::cenn::LogLevel::kInform, \
                            ::cenn::internal::Format(__VA_ARGS__))

/**
 * Rate-limited logging for hot loops (per-step warnings on
 * million-step runs must not flood stderr). Each macro expansion is
 * one independent call site with its own atomic occurrence counter.
 *
 * CENN_LOG_EVERY_N(level, n, ...): logs occurrences 1, n+1, 2n+1, …
 * of this site; suppressed messages are counted and the emitted line
 * is suffixed with "(logged 1/n)" so readers know sampling happened.
 */
#define CENN_LOG_EVERY_N(level, n, ...) \
  do { \
    static ::std::atomic<::std::uint64_t> cenn_log_count_{0}; \
    const ::std::uint64_t cenn_log_seen_ = \
        cenn_log_count_.fetch_add(1, ::std::memory_order_relaxed); \
    if (cenn_log_seen_ % static_cast<::std::uint64_t>(n) == 0) { \
      ::cenn::internal::LogImpl( \
          level, ::cenn::internal::Format( \
                     __VA_ARGS__, \
                     (n) > 1 ? " (logged 1/" #n ")" : "")); \
    } \
  } while (false)

/** Warns the first time this site executes; silent afterwards. */
#define CENN_WARN_ONCE(...) \
  do { \
    static ::std::atomic<bool> cenn_log_fired_{false}; \
    if (!cenn_log_fired_.exchange(true, ::std::memory_order_relaxed)) { \
      ::cenn::internal::LogImpl(::cenn::LogLevel::kWarn, \
                                ::cenn::internal::Format(__VA_ARGS__)); \
    } \
  } while (false)

/** Warning logged on the 1st, (n+1)th, (2n+1)th, … hit of this site. */
#define CENN_WARN_EVERY_N(n, ...) \
  CENN_LOG_EVERY_N(::cenn::LogLevel::kWarn, n, __VA_ARGS__)

/** Debug message logged once per call site (CENN_DEBUG_ONCE style). */
#define CENN_DEBUG_ONCE(...) \
  do { \
    static ::std::atomic<bool> cenn_log_fired_{false}; \
    if (!cenn_log_fired_.exchange(true, ::std::memory_order_relaxed)) { \
      ::cenn::internal::LogImpl(::cenn::LogLevel::kDebug, \
                                ::cenn::internal::Format(__VA_ARGS__)); \
    } \
  } while (false)

#endif  // CENN_UTIL_LOGGING_H_
