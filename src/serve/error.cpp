#include "serve/error.hpp"

namespace esm::serve {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::bad_request:
      return "bad_request";
    case ErrorCode::bad_arch:
      return "bad_arch";
    case ErrorCode::unknown_verb:
      return "unknown_verb";
    case ErrorCode::oversized:
      return "oversized";
    case ErrorCode::reload_failed:
      return "reload_failed";
    case ErrorCode::server_error:
      return "server_error";
    case ErrorCode::unknown_model:
      return "unknown_model";
    case ErrorCode::bad_frame:
      return "bad_frame";
    case ErrorCode::overloaded:
      return "overloaded";
    case ErrorCode::deadline_exceeded:
      return "deadline_exceeded";
  }
  // A byte from a newer peer: degrade to the backstop token rather than
  // inventing an unparseable one.
  return "server_error";
}

bool error_code_retryable(ErrorCode code) {
  return code == ErrorCode::overloaded;
}

bool parse_error_code(std::string_view text, ErrorCode& out) {
  for (ErrorCode code : kAllErrorCodes) {
    if (text == to_string(code)) {
      out = code;
      return true;
    }
  }
  return false;
}

}  // namespace esm::serve
