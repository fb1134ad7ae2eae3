#include "common/status.h"

namespace blendhouse::common {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kAlreadyExists:
      return "AlreadyExists";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kNotSupported:
      return "NotSupported";
    case Status::Code::kIoError:
      return "IoError";
    case Status::Code::kAborted:
      return "Aborted";
    case Status::Code::kResourceExhausted:
      return "ResourceExhausted";
    case Status::Code::kInternal:
      return "Internal";
    case Status::Code::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace blendhouse::common
