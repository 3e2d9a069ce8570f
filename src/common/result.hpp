// Lightweight error handling for the FlexRIC SDK.
//
// The SDK is exception-free on the hot path (encode/decode, message dispatch):
// fallible operations return Result<T> / Status. Exceptions are reserved for
// programming errors (precondition violations) via FLEXRIC_ASSERT.
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace flexric {

/// Error category for Status/Result. Kept as a small enum so dispatch code can
/// switch on it without string comparisons.
enum class Errc {
  ok = 0,
  truncated,        ///< input buffer ended before the value was complete
  malformed,        ///< structurally invalid wire data
  out_of_range,     ///< value outside its constrained range
  unsupported,      ///< message/version/codec not supported
  not_found,        ///< id lookup failed (subscription, ran function, ...)
  already_exists,   ///< duplicate registration
  rejected,         ///< admission control / peer rejected the request
  io,               ///< transport/system error
  capacity,         ///< resource limit hit (queue full, too many items)
};

/// Human-readable name of an error category.
const char* errc_name(Errc e) noexcept;

/// An error: category plus an optional context message.
struct Error {
  Errc code = Errc::ok;
  std::string message;

  [[nodiscard]] std::string to_string() const {
    std::string s = errc_name(code);
    if (!message.empty()) {
      s += ": ";
      s += message;
    }
    return s;
  }
};

/// Status of a fallible operation without a payload. [[nodiscard]] at class
/// level, and the build passes -Werror=unused-result: silently dropping an
/// error fails to compile; deliberate fire-and-forget call sites must say
/// so with a (void) cast.
class [[nodiscard]] Status {
 public:
  Status() = default;  // ok
  Status(Errc code, std::string msg = {}) : err_{code, std::move(msg)} {}
  static Status ok() { return {}; }

  [[nodiscard]] bool is_ok() const noexcept { return err_.code == Errc::ok; }
  explicit operator bool() const noexcept { return is_ok(); }
  [[nodiscard]] const Error& error() const noexcept { return err_; }
  [[nodiscard]] Errc code() const noexcept { return err_.code; }
  [[nodiscard]] std::string to_string() const {
    return is_ok() ? "ok" : err_.to_string();
  }

 private:
  Error err_{};
};

/// Result<T>: either a value or an Error. Minimal expected-like type: the SDK
/// targets toolchains without std::expected.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error err) : v_(std::move(err)) {}  // NOLINT(google-explicit-constructor)
  Result(Errc code, std::string msg = {}) : v_(Error{code, std::move(msg)}) {}
  /// Builds the value in place from `args` (no temporary T to move from).
  template <typename... A>
  explicit Result(std::in_place_t, A&&... args)
      : v_(std::in_place_index<0>, std::forward<A>(args)...) {}

  [[nodiscard]] bool is_ok() const noexcept { return std::holds_alternative<T>(v_); }
  explicit operator bool() const noexcept { return is_ok(); }

  [[nodiscard]] const Error& error() const {
    assert(!is_ok());
    return std::get<Error>(v_);
  }
  [[nodiscard]] Status status() const {
    if (is_ok()) return Status::ok();
    return Status{error().code, error().message};
  }
  /// The value; check is_ok() first. value() is private, so these are the
  /// only spellings of an access (DESIGN.md §7).
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  [[nodiscard]] T& value() {
    assert(is_ok());
    return std::get<T>(v_);
  }
  [[nodiscard]] const T& value() const {
    assert(is_ok());
    return std::get<T>(v_);
  }

  std::variant<T, Error> v_;
};

/// Abort with a message on violated precondition. Used for programming errors
/// only — never for wire data or peer behaviour.
#define FLEXRIC_ASSERT(cond, msg)                                            \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "FLEXRIC_ASSERT failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, (msg));                                         \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

/// Propagate an error Status from an expression returning Status.
#define FLEXRIC_TRY(expr)                 \
  do {                                    \
    ::flexric::Status st_ = (expr);       \
    if (!st_.is_ok()) return st_;         \
  } while (0)

}  // namespace flexric
