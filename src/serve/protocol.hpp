// Wire protocol for the online prediction server: newline-delimited framed
// requests with versioned one-line responses, and the shared
// architecture-request parser. Transports live in serve/transport.hpp, the
// front end that runs them in serve/event_loop.hpp, and the one client
// (speaking this protocol or the binary esm2 frames) in serve/client.hpp.
//
// Request grammar (one line per request, no version prefix):
//   predict [<model>] <arch>  price one architecture
//   predict_batch [<model>] <arch>(;<arch>)*   price several in one request
//   info [<model>]            loaded-model identity
//   models                    list the fleet's model names
//   stats                     live counters + latency percentiles
//   reload <path>             hot-swap the served fleet (manifest or artifact)
//   shutdown                  drain in-flight requests, then stop
//   search <k=v ...>          run a whole NAS query against the fleet and
//                             return the latency/quality Pareto front; the
//                             k=v grammar and the front payload are
//                             documented in nas/search/wire.hpp (every
//                             token contains '=', so the grammar never
//                             collides with a routed model key)
//
// <model> is an optional routing key naming a fleet model. The grammar
// disambiguates without quoting: model names start with a letter
// ([A-Za-z][A-Za-z0-9_.-]*) while an <arch>'s first token always starts
// with a digit or sign, so "predict rpi4 3,5,2,7" routes to model "rpi4"
// and "predict 3,5,2,7" routes to the fleet's default model — the PR-5
// keyless protocol stays valid verbatim. A key naming no loaded model
// answers err unknown_model.
//
// <arch> is a comma-separated per-unit depth list ("3,5,2,7"), optionally
// refined per unit with block features: "<depth>:k<kernel>" or
// "<depth>:k<kernel>e<expansion>" (the feature applies to every block of
// that unit; omitted features take the space's first option). This is the
// exact grammar `esm_cli measure --archs` files and `predict --stdin` use.
// One scanner in protocol.cpp walks it in place; parse_arch_request() (an
// ArchConfig, for the CLI and flush()) and arch_cache_key() (the
// packed key a served predict looks up) are thin layers over it.
//
// Response grammar (one line per request, in request order):
//   esm1 ok <verb> <payload>
//   esm1 err <code> <detail...>
// The "esm1" prefix versions the response framing; clients reject other
// prefixes. Error codes are the stable tokens of serve/error.hpp; the
// detail is human-readable free text on the rest of the line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nets/arch.hpp"
#include "nets/supernet.hpp"
#include "serve/error.hpp"

namespace esm::serve {

/// Response-framing version token; bump on incompatible response changes.
inline constexpr const char* kResponsePrefix = "esm1";

// Error codes live in serve/error.hpp (one ErrorCode space shared by esm1
// and esm2).

/// Verb + rest-of-line payload of a request ("" when absent). The verb of
/// an empty line is "".
struct ParsedRequest {
  std::string verb;
  std::string payload;
  /// Per-request deadline in milliseconds from receipt; 0 = none. esm2
  /// carries it in the version-2 frame header; esm1 spells it as an
  /// optional leading "deadline=<ms>" payload token on predict verbs
  /// (extracted by the server, so split_request leaves it in `payload`).
  std::uint32_t deadline_ms = 0;
};

/// Splits a raw request line at the first space; trims a trailing '\r'.
ParsedRequest split_request(const std::string& line);

/// A request payload split into its optional routing key and the rest.
/// Both fields are views into the payload passed to split_model_key, so
/// they are valid only while that string is.
struct RoutedPayload {
  std::string_view model;  ///< "" when the request is keyless
  std::string_view rest;   ///< the payload with the key (and one space) removed
};

/// Splits the optional leading model key off a predict/predict_batch/info
/// payload: if the first space-separated token starts with a letter it is
/// the routing key, otherwise the whole payload is returned as `rest`.
/// Leading whitespace never turns an arch into a key (" 3,5" stays keyless).
RoutedPayload split_model_key(std::string_view payload);

/// Strips an optional leading "deadline=<ms>" token off a predict or
/// predict_batch payload (it precedes the optional model key:
/// "predict deadline=50 rpi4 3,5,2,7"). When present and valid, the token
/// plus one separating space are removed from `payload` and `deadline_ms`
/// is set. Returns false — with `error` describing the violation and the
/// payload untouched — when the token is present but is not 1–10 ASCII
/// digits without a leading zero (no sign, no whitespace, no zero) or is
/// out of u32 range; payloads without the token succeed unchanged. Model
/// names may not contain '=', so no routing key can collide with the
/// token.
bool extract_deadline_token(std::string& payload, std::uint32_t& deadline_ms,
                            std::string& error);

/// Formats "esm1 ok <verb> <payload>"; a trailing payload space is omitted
/// when the payload is empty.
std::string format_ok(const std::string& verb, const std::string& payload);

/// Formats "esm1 err <token> <detail>" with the code's stable wire token.
/// Newlines in the detail are replaced with spaces so the response stays
/// one frame.
std::string format_error(ErrorCode code, const std::string& detail);

/// Structured outcome of one request, before protocol rendering: esm1
/// renders a Reply as a text line (format_reply_esm1), esm2 as a binary
/// frame. Both protocols carry the same verb/payload/code, which is what
/// keeps their answers bit-identical.
struct Reply {
  bool ok = true;
  ErrorCode code = ErrorCode::server_error;  ///< valid when !ok
  std::string verb;       ///< request verb (names the ok response)
  std::string payload;    ///< ok payload text, or the error detail
  bool shutdown = false;  ///< the request was an accepted `shutdown`
};

/// Renders a Reply as its esm1 response line ("esm1 ok ..."/"esm1 err ...").
std::string format_reply_esm1(const Reply& reply);

/// A response split into its three fields.
struct ParsedResponse {
  bool ok = false;
  std::string verb_or_code;  ///< verb for ok, error code for err
  std::string payload;       ///< rest of the line
};

/// Parses a response line; returns false when the line is not a versioned
/// esm1 response.
bool parse_response(const std::string& line, ParsedResponse& out);

/// Parses a "k1=v1 k2=v2 ..." payload (info/stats responses) into a map.
std::map<std::string, std::string> parse_kv_payload(const std::string& payload);

/// Full-precision latency formatting used by responses and CSV output:
/// format_g17 (common/strings.hpp), the bytes of printf("%.17g").
std::string format_latency(double value_ms);

/// Parses one architecture request against `spec` — the shared parser for
/// the server protocol, `esm_cli measure --archs` files, and `esm_cli
/// predict --stdin`. Grammar: comma-separated units, each "<depth>",
/// "<depth>:k<kernel>", or "<depth>:k<kernel>e<expansion>". Expansions are
/// snapped to the nearest spec option within 1e-2 (so "0.667" selects 2/3).
/// Throws esm::ConfigError with the offending token on any violation,
/// including spec validation (unit count, depth range, unknown kernel).
ArchConfig parse_arch_request(const SupernetSpec& spec, std::string_view text);

/// Parses one architecture request straight into its packed prediction
/// cache key, without building an ArchConfig: a LEB128 varint of
/// `generation`, then one LEB128 varint per unit of its unit_code_digit
/// (nets/arch.hpp). Every shipped space fits in 15 bytes, so the key lives
/// in std::string's inline buffer and costs no allocation. The key is
/// canonical: two spellings share it exactly when their parsed ArchConfigs
/// share to_string(), except that a space without expansion options (whose
/// encoders ignore the expansion) drops the expansion from the key.
/// Accepts and rejects exactly what parse_arch_request does, with the same
/// esm::ConfigError text.
std::string arch_cache_key(const SupernetSpec& spec, std::uint64_t generation,
                           std::string_view text);

/// One predict_batch element: its packed cache key and its text (a view
/// into the payload, which a cache miss re-parses with parse_arch_request).
struct KeyedArch {
  std::string key;
  std::string_view text;
};

/// Splits a predict_batch payload on ';' and keys every element with
/// arch_cache_key; throws esm::ConfigError naming the failing element, on
/// an empty batch, or when the batch exceeds `max_archs`.
std::vector<KeyedArch> arch_cache_keys(const SupernetSpec& spec,
                                       std::uint64_t generation,
                                       std::string_view payload,
                                       std::size_t max_archs);

}  // namespace esm::serve
