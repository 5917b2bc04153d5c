// Leveled structured logging: one event per line, key=value or JSON.
//
// The simulation layers log *events with fields*, not printf prose, so a
// production deployment can ship the stream straight into a log indexer
// while a human still reads it comfortably:
//
//   level=info event=cell_start cell="n=8192 c=2" burn_in=2000 rounds=1000
//   {"level":"info","event":"cell_start","cell":"n=8192 c=2",...}
//
// The global logger reads IBA_LOG_LEVEL (debug|info|warn|error|off) and
// IBA_LOG_FORMAT (kv|json) from the environment once at first use;
// defaults are info + kv to stderr. The logger never sits on the
// per-ball hot path: call sites are per-cell / per-run.
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string_view>

namespace iba::telemetry {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError, kOff };
enum class LogFormat : std::uint8_t { kKeyValue, kJson };

[[nodiscard]] const char* log_level_name(LogLevel level) noexcept;

/// Parses "debug" / "info" / "warn" / "error" / "off" (case-insensitive).
[[nodiscard]] std::optional<LogLevel> parse_log_level(
    std::string_view text) noexcept;

/// One key plus a typed value. Fields are consumed before the log call
/// returns, so string_views may point at temporaries of the call site.
class LogField {
 public:
  enum class Kind : std::uint8_t { kString, kInt, kUint, kDouble, kBool };

  constexpr LogField(std::string_view key, std::string_view value) noexcept
      : key_(key), kind_(Kind::kString), string_(value) {}
  constexpr LogField(std::string_view key, const char* value) noexcept
      : LogField(key, std::string_view(value)) {}
  constexpr LogField(std::string_view key, bool value) noexcept
      : key_(key), kind_(Kind::kBool), bool_(value) {}
  template <std::signed_integral T>
  constexpr LogField(std::string_view key, T value) noexcept
      : key_(key), kind_(Kind::kInt), int_(value) {}
  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  constexpr LogField(std::string_view key, T value) noexcept
      : key_(key), kind_(Kind::kUint), uint_(value) {}
  template <std::floating_point T>
  constexpr LogField(std::string_view key, T value) noexcept
      : key_(key), kind_(Kind::kDouble), double_(value) {}

  [[nodiscard]] constexpr std::string_view key() const noexcept {
    return key_;
  }
  [[nodiscard]] constexpr Kind kind() const noexcept { return kind_; }
  [[nodiscard]] constexpr std::string_view string_value() const noexcept {
    return string_;
  }
  [[nodiscard]] constexpr std::int64_t int_value() const noexcept {
    return int_;
  }
  [[nodiscard]] constexpr std::uint64_t uint_value() const noexcept {
    return uint_;
  }
  [[nodiscard]] constexpr double double_value() const noexcept {
    return double_;
  }
  [[nodiscard]] constexpr bool bool_value() const noexcept { return bool_; }

 private:
  std::string_view key_;
  Kind kind_;
  union {
    std::string_view string_;
    std::int64_t int_;
    std::uint64_t uint_;
    double double_;
    bool bool_;
  };
};

/// Thread-safe leveled logger. Each emit builds the full line privately
/// and writes it to the sink under one lock, so concurrent events never
/// interleave mid-line. Formatting is deterministic (fields in call
/// order, "%.10g" doubles) and carries no timestamps, so test output and
/// replayed runs compare bytewise.
class Logger {
 public:
  /// A fresh logger: level/format as given, writing to `sink`.
  explicit Logger(std::ostream* sink, LogLevel level = LogLevel::kInfo,
                  LogFormat format = LogFormat::kKeyValue) noexcept
      : sink_(sink), level_(level), format_(format) {}

  /// The process-wide logger: stderr, configured once from IBA_LOG_LEVEL
  /// and IBA_LOG_FORMAT.
  [[nodiscard]] static Logger& global();

  void set_level(LogLevel level) noexcept { level_ = level; }
  [[nodiscard]] LogLevel level() const noexcept { return level_; }
  void set_format(LogFormat format) noexcept { format_ = format; }
  [[nodiscard]] LogFormat format() const noexcept { return format_; }
  void set_sink(std::ostream* sink) noexcept { sink_ = sink; }

  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return sink_ != nullptr && level >= level_ && level_ != LogLevel::kOff;
  }

  void log(LogLevel level, std::string_view event,
           std::initializer_list<LogField> fields = {});

  void debug(std::string_view event,
             std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kDebug, event, fields);
  }
  void info(std::string_view event,
            std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kInfo, event, fields);
  }
  void warn(std::string_view event,
            std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kWarn, event, fields);
  }
  void error(std::string_view event,
             std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kError, event, fields);
  }

 private:
  std::ostream* sink_;
  LogLevel level_;
  LogFormat format_;
  std::mutex mutex_;
};

/// Convenience forwarders to Logger::global().
inline void log_debug(std::string_view event,
                      std::initializer_list<LogField> fields = {}) {
  Logger::global().debug(event, fields);
}
inline void log_info(std::string_view event,
                     std::initializer_list<LogField> fields = {}) {
  Logger::global().info(event, fields);
}
inline void log_warn(std::string_view event,
                     std::initializer_list<LogField> fields = {}) {
  Logger::global().warn(event, fields);
}
inline void log_error(std::string_view event,
                      std::initializer_list<LogField> fields = {}) {
  Logger::global().error(event, fields);
}

}  // namespace iba::telemetry
