// Tests for the shared error-code space (serve/error.hpp) and the esm2
// binary frame codec (serve/frame.hpp): exhaustive ErrorCode round trips
// with the wire strings pinned, frame encode/decode round trips for every
// shape, the truncation matrix (every proper prefix parses as need_more),
// the corruption matrix (a flipped byte in any section is rejected), the
// hostile-length bound, pipelined multi-frame decoding, and seeded
// generated input for the two decoders the reactor runs: esm2 streams fed
// in two chunks at every split point and mutated, and mutated esm1 lines
// through split_request, the deadline token and the model key.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "fuzz_mutator.hpp"
#include "serve/error.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"

namespace esm::serve {
namespace {

TEST(ErrorCodeTest, WireStringsArePinned) {
  // These strings are wire format: changing any of them breaks deployed
  // scripts that match on the token.
  EXPECT_STREQ(to_string(ErrorCode::bad_request), "bad_request");
  EXPECT_STREQ(to_string(ErrorCode::bad_arch), "bad_arch");
  EXPECT_STREQ(to_string(ErrorCode::unknown_verb), "unknown_verb");
  EXPECT_STREQ(to_string(ErrorCode::oversized), "oversized");
  EXPECT_STREQ(to_string(ErrorCode::reload_failed), "reload_failed");
  EXPECT_STREQ(to_string(ErrorCode::server_error), "server_error");
  EXPECT_STREQ(to_string(ErrorCode::unknown_model), "unknown_model");
  EXPECT_STREQ(to_string(ErrorCode::bad_frame), "bad_frame");
  EXPECT_STREQ(to_string(ErrorCode::overloaded), "overloaded");
  EXPECT_STREQ(to_string(ErrorCode::deadline_exceeded), "deadline_exceeded");
}

TEST(ErrorCodeTest, WireBytesArePinned) {
  // Bytes 1-8 are frozen since PR 5/8; 9 and 10 were appended in PR 9.
  EXPECT_EQ(static_cast<int>(ErrorCode::bad_request), 1);
  EXPECT_EQ(static_cast<int>(ErrorCode::bad_arch), 2);
  EXPECT_EQ(static_cast<int>(ErrorCode::unknown_verb), 3);
  EXPECT_EQ(static_cast<int>(ErrorCode::oversized), 4);
  EXPECT_EQ(static_cast<int>(ErrorCode::reload_failed), 5);
  EXPECT_EQ(static_cast<int>(ErrorCode::server_error), 6);
  EXPECT_EQ(static_cast<int>(ErrorCode::unknown_model), 7);
  EXPECT_EQ(static_cast<int>(ErrorCode::bad_frame), 8);
  EXPECT_EQ(static_cast<int>(ErrorCode::overloaded), 9);
  EXPECT_EQ(static_cast<int>(ErrorCode::deadline_exceeded), 10);
}

TEST(ErrorCodeTest, OnlyOverloadedIsRetryable) {
  for (const ErrorCode code : kAllErrorCodes) {
    EXPECT_EQ(error_code_retryable(code), code == ErrorCode::overloaded)
        << to_string(code);
  }
}

TEST(ErrorCodeTest, ExhaustiveRoundTrip) {
  for (const ErrorCode code : kAllErrorCodes) {
    ErrorCode parsed;
    ASSERT_TRUE(parse_error_code(to_string(code), parsed))
        << to_string(code);
    EXPECT_EQ(parsed, code);
  }
}

TEST(ErrorCodeTest, ParseRejectsUnknownTokens) {
  ErrorCode out;
  EXPECT_FALSE(parse_error_code("", out));
  EXPECT_FALSE(parse_error_code("bad", out));
  EXPECT_FALSE(parse_error_code("bad_requests", out));
  EXPECT_FALSE(parse_error_code("BAD_REQUEST", out));
}

TEST(ErrorCodeTest, UnknownByteDegradesToServerError) {
  // A newer server's code must still render as a valid token.
  EXPECT_STREQ(to_string(static_cast<ErrorCode>(200)), "server_error");
}

TEST(ErrorCodeTest, Esm1ErrorLineUsesTheSameToken) {
  EXPECT_EQ(format_error(ErrorCode::bad_arch, "nope"),
            "esm1 err bad_arch nope");
}

TEST(FrameVerbTest, NamesRoundTripAndMatchEsm1) {
  const std::vector<std::pair<FrameVerb, std::string>> verbs = {
      {FrameVerb::predict, "predict"},
      {FrameVerb::predict_batch, "predict_batch"},
      {FrameVerb::info, "info"},
      {FrameVerb::models, "models"},
      {FrameVerb::stats, "stats"},
      {FrameVerb::reload, "reload"},
      {FrameVerb::shutdown, "shutdown"},
  };
  for (const auto& [verb, name] : verbs) {
    EXPECT_EQ(frame_verb_name(static_cast<std::uint8_t>(verb)), name);
    FrameVerb parsed;
    ASSERT_TRUE(parse_frame_verb(name, parsed)) << name;
    EXPECT_EQ(parsed, verb);
  }
  EXPECT_EQ(frame_verb_name(0), "");
  EXPECT_EQ(frame_verb_name(99), "");
  FrameVerb out;
  EXPECT_FALSE(parse_frame_verb("predicts", out));
  EXPECT_FALSE(parse_frame_verb("", out));
}

constexpr std::size_t kCap = 4096;

Frame must_parse(std::string wire) {
  Frame frame;
  std::string error;
  const FrameParse r = parse_frame(wire, frame, error, kCap);
  EXPECT_EQ(r, FrameParse::ok) << error;
  EXPECT_TRUE(wire.empty()) << "frame not fully consumed";
  return frame;
}

TEST(FrameTest, RequestRoundTrip) {
  const Frame frame = must_parse(
      encode_request(0x0123456789abcdefULL, FrameVerb::predict, "3,5,2,7"));
  EXPECT_EQ(frame.request_id, 0x0123456789abcdefULL);
  EXPECT_EQ(frame.verb, static_cast<std::uint8_t>(FrameVerb::predict));
  EXPECT_EQ(frame.payload, "3,5,2,7");
}

TEST(FrameTest, EmptyPayloadRoundTrip) {
  const Frame frame = must_parse(encode_request(7, FrameVerb::stats, ""));
  EXPECT_EQ(frame.request_id, 7u);
  EXPECT_EQ(frame.verb, static_cast<std::uint8_t>(FrameVerb::stats));
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, OkResponseRoundTrip) {
  const Frame frame = must_parse(encode_ok_response(
      42, static_cast<std::uint8_t>(FrameVerb::predict), "1.5"));
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.verb, 0x80 | static_cast<std::uint8_t>(FrameVerb::predict));
  EXPECT_EQ(frame.payload, "1.5");
}

TEST(FrameTest, ErrorResponseRoundTrip) {
  const Frame frame = must_parse(encode_error_response(
      9, static_cast<std::uint8_t>(ErrorCode::bad_arch), "depth 0"));
  EXPECT_EQ(frame.request_id, 9u);
  EXPECT_EQ(frame.verb, kFrameErrorVerb);
  std::uint8_t code = 0;
  std::string_view detail;
  ASSERT_TRUE(split_error_payload(frame.payload, code, detail));
  EXPECT_EQ(static_cast<ErrorCode>(code), ErrorCode::bad_arch);
  EXPECT_EQ(detail, "depth 0");
}

TEST(FrameTest, SplitErrorPayloadRejectsEmpty) {
  std::uint8_t code = 0;
  std::string_view detail;
  EXPECT_FALSE(split_error_payload("", code, detail));
}

TEST(FrameTest, BinaryPayloadSurvives) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  const Frame frame =
      must_parse(encode_request(1, FrameVerb::predict_batch, payload));
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameTest, EveryTruncationNeedsMore) {
  // Every proper prefix of a valid frame must park as need_more — a
  // streaming parser can cut a frame at any byte.
  const std::string wire = encode_request(77, FrameVerb::predict, "3,5,2,7");
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::string buffer = wire.substr(0, len);
    Frame frame;
    std::string error;
    EXPECT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::need_more)
        << "prefix of " << len << " bytes: " << error;
    EXPECT_EQ(buffer.size(), len) << "need_more must not consume bytes";
  }
}

TEST(FrameTest, BadMagicRejectedImmediately) {
  // The first byte decides the protocol; a wrong one must be rejected
  // even before a full header arrives.
  std::string buffer = "e";  // an esm1-looking byte
  Frame frame;
  std::string error;
  EXPECT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::bad);

  std::string wire = encode_request(1, FrameVerb::predict, "3");
  wire[1] = 'x';  // magic1
  EXPECT_EQ(parse_frame(wire, frame, error, kCap), FrameParse::bad);
}

TEST(FrameTest, UnsupportedVersionRejected) {
  // Versions 1 and 2 are the supported set; 3 is from the future.
  std::string wire = encode_request(1, FrameVerb::predict, "3");
  wire[2] = 3;
  Frame frame;
  std::string error;
  EXPECT_EQ(parse_frame(wire, frame, error, kCap), FrameParse::bad);
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(FrameTest, ZeroDeadlineEmitsVersionOneBytes) {
  // The frozen-byte pin: encode_request without a deadline must keep
  // emitting the exact PR-8 version-1 layout, byte for byte.
  const std::string wire = encode_request(7, FrameVerb::predict, "3,5,2,7");
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 7);
  EXPECT_EQ(static_cast<unsigned char>(wire[0]), kFrameMagic0);
  EXPECT_EQ(static_cast<unsigned char>(wire[1]), kFrameMagic1);
  EXPECT_EQ(static_cast<std::uint8_t>(wire[2]), kFrameVersion);
  const Frame frame = must_parse(std::string(wire));
  EXPECT_EQ(frame.deadline_ms, 0u);
}

TEST(FrameTest, DeadlineFrameSharesVersionOnePrefix) {
  // Bytes [0,16) of a v2 frame are laid out exactly as v1 — only the
  // version byte differs — so deadline support cannot perturb the fields
  // deadline-unaware tooling reads.
  const std::string v1 = encode_request(42, FrameVerb::predict, "3,5,2,7");
  const std::string v2 = encode_request(42, FrameVerb::predict, "3,5,2,7",
                                        1500);
  ASSERT_EQ(v2.size(), kFrameHeaderBytesV2 + 7);
  EXPECT_EQ(static_cast<std::uint8_t>(v2[2]), kFrameVersionDeadline);
  for (std::size_t i = 0; i < 16; ++i) {
    if (i == 2) continue;  // the version byte
    EXPECT_EQ(v1[i], v2[i]) << "byte " << i;
  }
}

TEST(FrameTest, DeadlineRoundTripMatrix) {
  const std::uint32_t deadlines[] = {1, 50, 1000, 0x7fffffffu, 0xffffffffu};
  for (const std::uint32_t deadline_ms : deadlines) {
    for (const FrameVerb verb : {FrameVerb::predict, FrameVerb::predict_batch,
                                 FrameVerb::stats}) {
      const Frame frame = must_parse(
          encode_request(0xabcdef01u, verb, "3,5,2,7", deadline_ms));
      EXPECT_EQ(frame.request_id, 0xabcdef01u);
      EXPECT_EQ(frame.verb, static_cast<std::uint8_t>(verb));
      EXPECT_EQ(frame.deadline_ms, deadline_ms);
      EXPECT_EQ(frame.payload, "3,5,2,7");
    }
  }
}

TEST(FrameTest, DeadlineFrameTruncationNeedsMore) {
  const std::string wire =
      encode_request(77, FrameVerb::predict, "3,5,2,7", 250);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::string buffer = wire.substr(0, len);
    Frame frame;
    std::string error;
    EXPECT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::need_more)
        << "prefix of " << len << " bytes: " << error;
    EXPECT_EQ(buffer.size(), len) << "need_more must not consume bytes";
  }
}

TEST(FrameTest, DeadlineFrameFlippedByteIsRejected) {
  // The v2 CRC covers the deadline field too: corrupting any byte —
  // including the four deadline bytes at [16,20) — must never parse ok.
  const std::string wire = encode_request(0x1122334455667788ULL,
                                          FrameVerb::predict, "3,5,2,7", 99);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::string corrupted = wire;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x01);
    Frame frame;
    std::string error;
    EXPECT_NE(parse_frame(corrupted, frame, error, kCap), FrameParse::ok)
        << "flipped byte " << i;
  }
}

TEST(FrameTest, MixedVersionPipelineDecodes) {
  std::string buffer = encode_request(1, FrameVerb::predict, "3,5,2,7");
  buffer += encode_request(2, FrameVerb::predict, "1,1,1,1", 750);
  buffer += encode_request(3, FrameVerb::stats, "");
  Frame frame;
  std::string error;
  ASSERT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::ok);
  EXPECT_EQ(frame.request_id, 1u);
  EXPECT_EQ(frame.deadline_ms, 0u);
  ASSERT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::ok);
  EXPECT_EQ(frame.request_id, 2u);
  EXPECT_EQ(frame.deadline_ms, 750u);
  ASSERT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::ok);
  EXPECT_EQ(frame.request_id, 3u);
  EXPECT_EQ(frame.deadline_ms, 0u);
  EXPECT_TRUE(buffer.empty());
}

TEST(FrameTest, DeadlineTokenRoundTrip) {
  // The esm1 spelling of the same field: a leading "deadline=<ms>" token
  // is stripped off the payload; everything after it is untouched.
  std::string payload = "deadline=250 m1 3,5,2,7";
  std::uint32_t deadline_ms = 0;
  std::string error;
  ASSERT_TRUE(extract_deadline_token(payload, deadline_ms, error)) << error;
  EXPECT_EQ(deadline_ms, 250u);
  EXPECT_EQ(payload, "m1 3,5,2,7");

  payload = "3,5,2,7";  // no token: payload and deadline are untouched
  deadline_ms = 77;
  ASSERT_TRUE(extract_deadline_token(payload, deadline_ms, error));
  EXPECT_EQ(deadline_ms, 77u);
  EXPECT_EQ(payload, "3,5,2,7");
}

TEST(FrameTest, MalformedDeadlineTokenRejected) {
  std::uint32_t deadline_ms = 0;
  std::string error;
  for (const char* bad : {"deadline= 3,5,2,7", "deadline=abc 3,5,2,7",
                          "deadline=-5 3,5,2,7", "deadline=1e3 3,5,2,7",
                          "deadline=99999999999 3,5,2,7",
                          "deadline=+5 3,5,2,7", "deadline=\t5 3,5,2,7",
                          "deadline=007 3,5,2,7"}) {
    std::string payload = bad;
    error.clear();
    EXPECT_FALSE(extract_deadline_token(payload, deadline_ms, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FrameTest, FlippedByteInAnySectionIsRejected) {
  // One CRC over header + payload: flipping any bit of any section —
  // verb, id, length, CRC itself, payload — must not yield a valid frame.
  // (Flipping a length byte may legitimately park as need_more when the
  // declared length grows within the cap; it must never parse as ok.)
  const std::string wire = encode_request(0x1122334455667788ULL,
                                          FrameVerb::predict, "3,5,2,7");
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::string corrupted = wire;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x01);
    Frame frame;
    std::string error;
    const FrameParse r = parse_frame(corrupted, frame, error, kCap);
    EXPECT_NE(r, FrameParse::ok) << "flipped byte " << i;
  }
}

TEST(FrameTest, OversizedDeclaredLengthRejectedBeforeBuffering) {
  // A hostile length prefix is rejected from the header alone — no need
  // to feed (or allocate) the declared payload.
  std::string wire = encode_request(1, FrameVerb::predict, "33");
  std::string header = wire.substr(0, kFrameHeaderBytes);
  header[12] = static_cast<char>(0xFF);
  header[13] = static_cast<char>(0xFF);
  header[14] = static_cast<char>(0xFF);
  header[15] = 0x7F;
  Frame frame;
  std::string error;
  EXPECT_EQ(parse_frame(header, frame, error, kCap), FrameParse::bad);
  EXPECT_NE(error.find("oversized"), std::string::npos);
}

TEST(FrameTest, PayloadAtTheCapStillParses) {
  const std::string payload(kCap, 'x');
  const Frame frame =
      must_parse(encode_request(3, FrameVerb::predict_batch, payload));
  EXPECT_EQ(frame.payload.size(), kCap);
}

TEST(FrameTest, PipelinedFramesDecodeInOrder) {
  std::string buffer = encode_request(1, FrameVerb::predict, "3,5,2,7");
  buffer += encode_request(2, FrameVerb::stats, "");
  buffer += encode_request(3, FrameVerb::predict, "1,1,1,1");
  Frame frame;
  std::string error;
  ASSERT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::ok);
  EXPECT_EQ(frame.request_id, 1u);
  ASSERT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::ok);
  EXPECT_EQ(frame.request_id, 2u);
  ASSERT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::ok);
  EXPECT_EQ(frame.request_id, 3u);
  EXPECT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::need_more);
  EXPECT_TRUE(buffer.empty());
}

TEST(FrameTest, GarbageAfterValidFrameIsRejectedNotSkipped) {
  // Interleaved garbage cannot be resynchronized past: the frame before
  // it parses, the garbage after it is bad (the connection would close).
  std::string buffer = encode_request(5, FrameVerb::predict, "2,2,2,2");
  buffer += "predict 3,5,2,7\n";  // an esm1 line is garbage mid-esm2
  Frame frame;
  std::string error;
  ASSERT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::ok);
  EXPECT_EQ(frame.request_id, 5u);
  EXPECT_EQ(parse_frame(buffer, frame, error, kCap), FrameParse::bad);
}

// -- generated input -------------------------------------------------------

/// A seeded pipelined stream of v1 and v2 request frames: random verb
/// bytes, ids, deadlines and payloads. `frames` receives each frame.
std::string random_stream(Rng& rng, std::vector<Frame>& frames) {
  static constexpr std::string_view kAlphabet = "0123456789,:;ke. _adxyz";
  std::string stream;
  const int count = rng.uniform_int(1, 6);
  for (int f = 0; f < count; ++f) {
    Frame frame;
    frame.request_id = rng();
    frame.verb = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    frame.deadline_ms =
        rng.uniform_int(0, 1) == 0 ? 0 : static_cast<std::uint32_t>(rng());
    const int length = rng.uniform_int(0, 40);
    for (int i = 0; i < length; ++i) {
      frame.payload += kAlphabet[rng.uniform_u64(kAlphabet.size())];
    }
    stream += encode_frame(frame.request_id, frame.verb, frame.payload,
                           frame.deadline_ms);
    frames.push_back(std::move(frame));
  }
  return stream;
}

void expect_same_frame(const Frame& got, const Frame& want) {
  EXPECT_EQ(got.request_id, want.request_id);
  EXPECT_EQ(got.verb, want.verb);
  EXPECT_EQ(got.deadline_ms, want.deadline_ms);
  EXPECT_EQ(got.payload, want.payload);
}

TEST(FrameFuzzTest, TwoChunksSplitAtEveryOffsetDecodeLikeTheWholeStream) {
  Rng rng(0xf7a3e);
  for (int c = 0; c < 300; ++c) {
    std::vector<Frame> sent;
    const std::string stream = random_stream(rng, sent);
    for (std::size_t split = 0; split <= stream.size(); ++split) {
      std::string buffer = stream.substr(0, split);
      std::vector<Frame> got;
      Frame frame;
      std::string error;
      for (const std::string_view rest :
           {std::string_view(), std::string_view(stream).substr(split)}) {
        buffer.append(rest);
        FrameParse r;
        while ((r = parse_frame(buffer, frame, error, kCap)) ==
               FrameParse::ok) {
          got.push_back(frame);
        }
        ASSERT_EQ(r, FrameParse::need_more)
            << "case " << c << " split " << split << ": " << error;
      }
      EXPECT_TRUE(buffer.empty()) << "case " << c << " split " << split;
      ASSERT_EQ(got.size(), sent.size()) << "case " << c << " split " << split;
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_frame(got[i], sent[i]);
      }
    }
  }
}

TEST(FrameFuzzTest, MutatedStreamsReencodeExactlyOrAreRejected) {
  // Every frame a mutated stream yields re-encodes to exactly the bytes it
  // consumed (so its CRC held), every rejection says why, and a damaged
  // CRC is never accepted.
  Rng rng(0xbadf7a);
  static constexpr std::string_view kFragments[] = {
      "\xE5", "\xE5\x32", "\xE5\x32\x01", "\xE5\x32\x02", "\x03",
      std::string_view("\0\0\0\0", 4), "\xFF\xFF\xFF\xFF"};
  int accepted = 0;
  int rejected = 0;
  for (int c = 0; c < 20000; ++c) {
    std::vector<Frame> sent;
    const std::string seed = random_stream(rng, sent);

    // One flipped bit in the first frame's CRC field.
    std::string damaged = seed;
    const std::size_t crc_at = sent[0].deadline_ms != 0
                                   ? kFrameHeaderBytesV2 - 4
                                   : kFrameHeaderBytes - 4;
    damaged[crc_at + rng.uniform_u64(4)] ^=
        static_cast<char>(1 << rng.uniform_int(0, 7));
    Frame frame;
    std::string error;
    ASSERT_EQ(parse_frame(damaged, frame, error, kCap), FrameParse::bad)
        << "case " << c;
    EXPECT_EQ(error, "frame CRC mismatch");

    std::string stream = seed;
    for (int edits = rng.uniform_int(1, 3); edits > 0; --edits) {
      switch (rng.uniform_int(0, 5)) {
        case 0: fuzz::flip_bit(stream, rng); break;
        case 1: fuzz::splice(stream, {seed}, rng); break;
        case 2: fuzz::truncate(stream, rng); break;
        case 3: fuzz::erase_byte(stream, rng); break;
        case 4: fuzz::insert_fragment(stream, kFragments, rng); break;
        default: fuzz::insert_random_byte(stream, rng); break;
      }
    }
    std::string buffer = stream;
    for (;;) {
      const std::size_t before = buffer.size();
      error.clear();
      const FrameParse r = parse_frame(buffer, frame, error, kCap);
      if (r == FrameParse::ok) {
        ++accepted;
        const std::string_view consumed =
            std::string_view(stream).substr(stream.size() - before,
                                            before - buffer.size());
        ASSERT_EQ(encode_frame(frame.request_id, frame.verb, frame.payload,
                               frame.deadline_ms),
                  consumed)
            << "case " << c;
        continue;
      }
      if (r == FrameParse::bad) {
        ++rejected;
        EXPECT_FALSE(error.empty()) << "case " << c;
        EXPECT_EQ(buffer.size(), before) << "a rejection consumed bytes";
      }
      break;
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

TEST(Esm1FuzzTest, MutatedLinesKeepTheSplitDeadlineAndKeyContracts) {
  Rng rng(0xe5a1);
  const std::vector<std::string> seeds = {
      "predict 3,5,2,7",
      "predict deadline=50 rpi4 3,5,2,7",
      "predict_batch deadline=1 1,1,1,1;2:k5,2,2,2",
      "predict deadline=4294967295 gpu_a 7:k7e1,7,7,7",
      "predict default 3:k5,5:k7e0.667,2,7:k3e1",
      "search deadline=100 population=8 generations=1",
      "info gpu",
      "stats",
      "predict deadline=0 3,5,2,7\r",
  };
  static constexpr std::string_view kFragments[] = {
      "deadline=", " ", "  ", "\r", "\t", "0", "1", "-1", "+7",
      "4294967295", "4294967296", "99999999999999999999", "=", "_m", "a"};
  static const char* const kNumbers[] = {
      "0", "1", "65535", "4294967295", "4294967296", "-5", "007", ""};
  int with_deadline = 0;
  for (int c = 0; c < 20000; ++c) {
    std::string line = seeds[rng.uniform_u64(seeds.size())];
    for (int edits = rng.uniform_int(0, 3); edits > 0; --edits) {
      switch (rng.uniform_int(0, 6)) {
        case 0: fuzz::flip_bit(line, rng); break;
        case 1: fuzz::splice(line, seeds, rng); break;
        case 2: fuzz::truncate(line, rng); break;
        case 3: fuzz::erase_byte(line, rng); break;
        case 4: fuzz::insert_fragment(line, kFragments, rng); break;
        case 5: fuzz::replace_number(line, kNumbers, rng); break;
        default: fuzz::duplicate_field(line, ' ', rng); break;
      }
    }
    // split_request: the verb runs to the first space, the payload is the
    // rest, and a trailing '\r' goes.
    const ParsedRequest request = split_request(line);
    std::string trimmed = line;
    if (!trimmed.empty() && trimmed.back() == '\r') trimmed.pop_back();
    const std::size_t space = trimmed.find(' ');
    EXPECT_EQ(request.verb, trimmed.substr(0, space)) << line;
    EXPECT_EQ(request.payload,
              space == std::string::npos ? "" : trimmed.substr(space + 1))
        << line;

    // extract_deadline_token: accepted only when the token is the value's
    // one spelling (plain digits, no leading zero) and the value lies in
    // [1, 2^32 - 1], leaving exactly what follows the token; rejected with
    // a reason and the payload untouched; absent, a no-op.
    std::string payload = request.payload;
    std::uint32_t deadline_ms = 0;
    std::string error;
    const bool ok = extract_deadline_token(payload, deadline_ms, error);
    const bool has_token = request.payload.starts_with("deadline=");
    if (!has_token) {
      EXPECT_TRUE(ok) << line;
      EXPECT_EQ(payload, request.payload) << line;
      EXPECT_EQ(deadline_ms, 0u) << line;
    } else if (ok) {
      ++with_deadline;
      const std::size_t end = request.payload.find(' ');
      const std::string token = request.payload.substr(9, end - 9);
      EXPECT_GE(deadline_ms, 1u) << line;
      EXPECT_EQ(token, std::to_string(deadline_ms)) << line;
      EXPECT_EQ(payload, end == std::string::npos
                             ? ""
                             : request.payload.substr(end + 1))
          << line;
    } else {
      EXPECT_FALSE(error.empty()) << line;
      EXPECT_EQ(payload, request.payload) << line;
    }
    // A plain run of digits in range is always accepted.
    const std::string digits = std::to_string(1 + rng.uniform_u64(0xFFFFFFFFull));
    std::string plain = "deadline=" + digits + " 3,5,2,7";
    ASSERT_TRUE(extract_deadline_token(plain, deadline_ms, error)) << digits;
    EXPECT_EQ(std::to_string(deadline_ms), digits);
    EXPECT_EQ(plain, "3,5,2,7");

    // split_model_key: a key starts with a letter or '_' and runs to the
    // first space; key, space and rest rebuild the payload.
    const RoutedPayload routed = split_model_key(payload);
    if (routed.model.empty()) {
      EXPECT_EQ(routed.rest, payload) << line;
    } else {
      const char first = routed.model.front();
      EXPECT_TRUE((first >= 'a' && first <= 'z') ||
                  (first >= 'A' && first <= 'Z') || first == '_')
          << line;
      EXPECT_EQ(routed.model.find(' '), std::string_view::npos) << line;
      const std::string rebuilt =
          std::string(routed.model) +
          (payload.size() > routed.model.size() ? " " + std::string(routed.rest)
                                                : "");
      EXPECT_EQ(rebuilt, payload) << line;
    }
  }
  EXPECT_GT(with_deadline, 1000);
}

}  // namespace
}  // namespace esm::serve
