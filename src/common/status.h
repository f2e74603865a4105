#ifndef TRAP_COMMON_STATUS_H_
#define TRAP_COMMON_STATUS_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace trap::common {

// Error taxonomy for fallible library operations. The project does not use
// C++ exceptions: operations that can fail on externally-reachable paths
// (what-if evaluation, advisor entry points, the perturber, case-file
// parsing) return a Status or StatusOr<T> instead of aborting. TRAP_CHECK
// remains reserved for true invariants (programming errors).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // caller-supplied input is malformed
  kDeadlineExceeded,   // the deterministic step budget ran out
  kCancelled,          // a CancelToken was cancelled cooperatively
  kResourceExhausted,  // a bounded resource (retries, budgets) is spent
  kInternal,           // an internal consistency check failed (e.g. a
                       // non-finite cost was produced or detected)
  kFaultInjected,      // a registered fault site fired (testing only)
  kUnavailable,        // a peer or stream is gone (EOF, dead subprocess)
};

const char* StatusCodeName(StatusCode code);

// Prints StatusCodeName(code). GoogleTest finds it by argument-dependent
// lookup, so a failing EXPECT_EQ on two codes names them.
void PrintTo(StatusCode code, std::ostream* os);

class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status FaultInjected(std::string msg) {
    return Status(StatusCode::kFaultInjected, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "DEADLINE_EXCEEDED: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }
  friend bool operator!=(const Status& a, const Status& b) { return !(a == b); }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// A value or the Status explaining why there is none. Accessing value() on a
// non-OK StatusOr is a programming error and aborts.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // Implicit conversions mirror absl::StatusOr so `return status;` and
  // `return value;` both work inside functions returning StatusOr<T>.
  StatusOr(Status status)  // NOLINT(google-explicit-constructor): implicit by design, mirrors absl
      : status_(std::move(status)) {
    TRAP_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }
  StatusOr(T value)  // NOLINT(google-explicit-constructor): implicit by design, mirrors absl
      : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    TRAP_CHECK_MSG(ok(), status_.message().c_str());
    return *value_;
  }
  T& value() & {
    TRAP_CHECK_MSG(ok(), status_.message().c_str());
    return *value_;
  }
  T&& value() && {
    TRAP_CHECK_MSG(ok(), status_.message().c_str());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // The value when OK, `fallback` otherwise -- the graceful-degradation
  // accessor (e.g. fall back to the no-index configuration).
  T value_or(T fallback) && {
    return ok() ? *std::move(value_) : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace trap::common

#define TRAP_STATUS_CONCAT_INNER_(a, b) a##b
#define TRAP_STATUS_CONCAT_(a, b) TRAP_STATUS_CONCAT_INNER_(a, b)

// Propagates a non-OK Status to the caller. `expr` is evaluated once. The
// temporary gets a unique name so nested uses (for example a macro-bearing
// lambda passed as `expr`) do not shadow each other under -Wshadow.
#define TRAP_RETURN_IF_ERROR(expr) \
  TRAP_RETURN_IF_ERROR_IMPL_(TRAP_STATUS_CONCAT_(trap_status_, __COUNTER__), \
                             expr)

#define TRAP_RETURN_IF_ERROR_IMPL_(tmp, expr)  \
  do {                                         \
    ::trap::common::Status tmp = (expr);       \
    if (!tmp.ok()) return tmp;                 \
  } while (0)

// Evaluates `expr` (a StatusOr<T>); on error returns the Status, otherwise
// moves the value into `lhs` (which may be a declaration).
#define TRAP_ASSIGN_OR_RETURN(lhs, expr)                                  \
  TRAP_ASSIGN_OR_RETURN_IMPL_(                                            \
      TRAP_STATUS_CONCAT_(trap_statusor_, __LINE__), lhs, expr)

#define TRAP_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = *std::move(tmp)

#endif  // TRAP_COMMON_STATUS_H_
