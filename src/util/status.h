// Error handling without exceptions: Status and Result<T>.
//
// Fallible operations return Status (or Result<T> when they also produce a
// value). Callers must inspect ok() before using a Result's value; doing
// otherwise aborts via NELA_CHECK.

#ifndef NELA_UTIL_STATUS_H_
#define NELA_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace nela::util {

// Broad classification of an error, modeled on the usual canonical codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kUnavailable,
  kDeadlineExceeded,
  kInternal,
  // Stored data is damaged beyond what a crash can leave behind (e.g. a
  // complete WAL frame whose checksum fails): recovery must not repair it.
  kDataLoss,
};

// Returns a stable human-readable name, e.g. "INVALID_ARGUMENT".
const char* StatusCodeName(StatusCode code);

// Value type describing the outcome of an operation. Class-level
// [[nodiscard]]: a dropped Status in a bounding or retry path is exactly
// how a degradation silently turns into an exposure, so ignoring any
// by-value Status (or Result) is a compile error under -Werror.
class [[nodiscard]] Status {
 public:
  // Success.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status UnavailableError(std::string message);
Status DeadlineExceededError(std::string message);
Status InternalError(std::string message);
Status DataLossError(std::string message);

// A value or an error. Accessing value() on an error aborts. [[nodiscard]]
// for the same reason as Status: discarding a Result discards the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`
  // like absl::StatusOr.
  Result(T value) : value_(std::move(value)) {}        // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) { // NOLINT(runtime/explicit)
    NELA_CHECK(!status_.ok());  // A Result built from a Status must be an error.
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    NELA_CHECK(ok());
    return *value_;
  }
  T& value() & {
    NELA_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    NELA_CHECK(ok());
    return *std::move(value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace nela::util

#endif  // NELA_UTIL_STATUS_H_
