#include "util/status.h"

namespace nela::util {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}
Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}

}  // namespace nela::util
