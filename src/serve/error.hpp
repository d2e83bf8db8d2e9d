// One error-code space for both serving protocols.
//
// Every structured error the server can answer — over the newline `esm1`
// protocol or the binary `esm2` frame protocol — is one of these codes.
// The enum value is the byte `esm2` error frames carry on the wire and
// to_string() is the token `esm1` error lines carry, so the two protocols
// can never drift apart. Both representations are frozen: the numeric
// values and the strings are wire format, covered by an exhaustive
// round-trip test (tests/frame_test.cpp), and clients that match on the
// string tokens keep working unchanged.
#pragma once

#include <cstdint>
#include <string_view>

namespace esm::serve {

/// Stable error codes shared by esm1 (string token) and esm2 (wire byte).
/// Values are wire format — never renumber, only append.
enum class ErrorCode : std::uint8_t {
  bad_request = 1,    ///< malformed request line/payload for the verb
  bad_arch = 2,       ///< architecture payload failed to parse/validate
  unknown_verb = 3,   ///< verb is not part of the protocol
  oversized = 4,      ///< request exceeds the configured size limit
  reload_failed = 5,  ///< reload kept the old fleet (load error)
  server_error = 6,   ///< unexpected internal failure (backstop)
  unknown_model = 7,  ///< routing key names no loaded model
  bad_frame = 8,      ///< esm2 only: unparseable frame (magic/CRC/length)
  overloaded = 9,     ///< admission control shed the request; retry later
  deadline_exceeded = 10,  ///< the request's deadline passed before service
};

/// Every code, for exhaustive iteration in tests.
inline constexpr ErrorCode kAllErrorCodes[] = {
    ErrorCode::bad_request,   ErrorCode::bad_arch,
    ErrorCode::unknown_verb,  ErrorCode::oversized,
    ErrorCode::reload_failed, ErrorCode::server_error,
    ErrorCode::unknown_model, ErrorCode::bad_frame,
    ErrorCode::overloaded,    ErrorCode::deadline_exceeded,
};

/// The stable esm1 wire token for `code` ("bad_request", ...). Unknown
/// bytes (a newer server's code) render as "server_error" so old clients
/// still see a valid token.
const char* to_string(ErrorCode code);

/// Parses a wire token back to its code; false when `text` is no known
/// code. Round-trips to_string() exactly for every enumerator.
bool parse_error_code(std::string_view text, ErrorCode& out);

/// True for codes a client may retry verbatim and expect a different
/// outcome (today: `overloaded` — the shed was about momentary load, not
/// about the request). Everything else is either the request's fault
/// (bad_request, bad_arch, ...) or needs operator action (reload_failed),
/// and `deadline_exceeded` means the caller's own budget ran out, so an
/// automatic retry must not second-guess it.
bool error_code_retryable(ErrorCode code);

}  // namespace esm::serve
