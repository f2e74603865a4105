#include "common/status.h"

#include <ostream>

namespace trap::common {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kFaultInjected:
      return "FAULT_INJECTED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

void PrintTo(StatusCode code, std::ostream* os) { *os << StatusCodeName(code); }

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace trap::common
