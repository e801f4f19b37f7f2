// Minimal Status / StatusOr error-handling vocabulary, modeled on
// absl::Status. Used for recoverable failures (parse errors, resource
// limits); internal invariant violations use DATALOG_CHECK instead.
#ifndef DATALOG_EQ_SRC_UTIL_STATUS_H_
#define DATALOG_EQ_SRC_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "src/util/logging.h"

namespace datalog {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kResourceExhausted = 3,
  kFailedPrecondition = 4,
  kUnimplemented = 5,
  kInternal = 6,
  // Cooperative interruption (src/util/governor.h): a caller asked the
  // procedure to stop via a CancelToken...
  kCancelled = 7,
  // ...or its wall-clock deadline expired. Distinct from
  // kResourceExhausted (a size/step budget ran out) so callers can tell
  // "too big" from "took too long" from "caller gave up".
  kDeadlineExceeded = 8,
};

/// Human-readable name of a status code, e.g. "INVALID_ARGUMENT".
const char* StatusCodeName(StatusCode code);

/// A success-or-error result carrying a code and a message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns a one-line rendering such as "INVALID_ARGUMENT: bad token".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status ResourceExhaustedError(std::string message);
Status FailedPreconditionError(std::string message);
Status UnimplementedError(std::string message);
Status InternalError(std::string message);
Status CancelledError(std::string message);
Status DeadlineExceededError(std::string message);

/// Either a value of type T or an error Status. Dereferencing a non-ok
/// StatusOr is a fatal error.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    DATALOG_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    DATALOG_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    DATALOG_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    DATALOG_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace datalog

// Propagates a non-OK Status out of the enclosing function. `expr` is
// evaluated exactly once.
//
//   DATALOG_RETURN_IF_ERROR(writer.Append(instance));
#define DATALOG_RETURN_IF_ERROR(expr)                        \
  do {                                                       \
    ::datalog::Status datalog_status_internal_ = (expr);     \
    if (!datalog_status_internal_.ok()) {                    \
      return datalog_status_internal_;                       \
    }                                                        \
  } while (false)

// Unwraps a StatusOr<T> into `lhs` (which may declare a new variable) or
// propagates its error Status out of the enclosing function.
//
//   DATALOG_ASSIGN_OR_RETURN(ProgramAlphabet alphabet,
//                            BuildProgramAlphabet(program, limits));
#define DATALOG_ASSIGN_OR_RETURN(lhs, rexpr) \
  DATALOG_ASSIGN_OR_RETURN_IMPL_(            \
      DATALOG_STATUS_CONCAT_(datalog_statusor_, __LINE__), lhs, rexpr)

#define DATALOG_ASSIGN_OR_RETURN_IMPL_(statusor, lhs, rexpr) \
  auto statusor = (rexpr);                                   \
  if (!statusor.ok()) {                                      \
    return statusor.status();                                \
  }                                                          \
  lhs = std::move(statusor).value()

#define DATALOG_STATUS_CONCAT_(a, b) DATALOG_STATUS_CONCAT_IMPL_(a, b)
#define DATALOG_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // DATALOG_EQ_SRC_UTIL_STATUS_H_
