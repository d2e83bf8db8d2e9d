// Tests for the epoll reactor front end (serve/event_loop.hpp), the
// transport abstractions (serve/transport.hpp), and the EsmClient library
// (serve/client.hpp): both protocols round-tripping every verb through the
// loop, esm1 and esm2 sharing one listener concurrently, esm2 pipelining
// with out-of-order completion matched by request id, strict esm1
// response ordering, the malformed-frame rejection matrix at the
// connection level, backpressure (pause/resume and the slow-client drop),
// idle timeouts, drain semantics (every request on the wire answered,
// partial trailing bytes discarded), a real-TCP smoke, and the headline
// pin: 10,000 concurrent fd-less connections, zero drops, every response
// bit-identical to offline predict_all, stats reconciling exactly.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/chaos.hpp"
#include "serve/error.hpp"
#include "serve_harness.hpp"

namespace esm {
namespace {

using serve::EsmClient;
using serve::EventLoop;
using serve::EventLoopConfig;
using serve::Frame;
using serve::FrameVerb;
using serve::ClientChannel;
using serve::PredictionServer;
using serve::Protocol;
using serve::ServeConfig;

const std::string& artifact() {
  static const std::string path = build_artifact("event_loop.esm");
  return path;
}

TEST(EventLoopTest, Esm1RoundTripsEveryVerb) {
  Harness harness(serve_config(artifact()));
  EsmClient client = harness.client(Protocol::esm1);

  const double value = client.predict("3,5,2,7");
  EXPECT_GT(value, 0.0);
  EXPECT_EQ(client.predict("3,5,2,7"), value);  // cache hit, bit-identical

  const std::vector<double> batch =
      client.predict_batch({"3,5,2,7", "1,1,1,1"});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], value);

  EXPECT_EQ(client.info().at("model"), "default");
  EXPECT_EQ(client.models(), std::vector<std::string>{"default"});
  const std::map<std::string, std::string> stats = client.stats();
  EXPECT_EQ(stats.at("requests"), "3");
  EXPECT_EQ(stats.at("errors"), "0");
  client.reload(artifact());

  EXPECT_THROW(client.predict("9999,1,1,1"), ConfigError);     // bad_arch
  EXPECT_THROW(client.predict("nope", "3,5,2,7"), ConfigError);  // unknown
  const EsmClient::Response bad = client.call("frobnicate", "");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.verb_or_code, "unknown_verb");
}

TEST(EventLoopTest, Esm2RoundTripsEveryVerb) {
  Harness harness(serve_config(artifact()));
  EsmClient client = harness.client(Protocol::esm2);

  const double value = client.predict("3,5,2,7");
  EXPECT_GT(value, 0.0);
  EXPECT_EQ(client.predict("3,5,2,7"), value);

  const std::vector<double> batch =
      client.predict_batch({"3,5,2,7", "1,1,1,1"});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], value);

  EXPECT_EQ(client.info().at("model"), "default");
  EXPECT_EQ(client.models(), std::vector<std::string>{"default"});
  EXPECT_EQ(client.stats().at("errors"), "0");
  client.reload(artifact());

  const EsmClient::Response bad = client.call("predict", "9999,1,1,1");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.verb_or_code, "bad_arch");
}

TEST(EventLoopTest, ProtocolsAnswerBitIdentically) {
  Harness harness(serve_config(artifact()));
  EsmClient esm1 = harness.client(Protocol::esm1);
  EsmClient esm2 = harness.client(Protocol::esm2);
  for (const std::string& spec : arch_pool(32)) {
    const EsmClient::Response a = esm1.call("predict", spec);
    const EsmClient::Response b = esm2.call("predict", spec);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    // The payload text (not just the parsed double) must match exactly.
    EXPECT_EQ(a.payload, b.payload) << spec;
  }
}

TEST(EventLoopTest, MixedProtocolsShareOneListenerConcurrently) {
  Harness harness(serve_config(artifact()));
  const std::vector<std::string> pool = arch_pool(64);
  const std::map<std::string, double> expected =
      offline_predictions(artifact(), pool);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      EsmClient client =
          harness.client(t % 2 == 0 ? Protocol::esm1 : Protocol::esm2);
      for (int i = 0; i < 100; ++i) {
        const std::string& spec = pool[(t * 37 + i) % pool.size()];
        if (client.predict(spec) != expected.at(spec)) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(harness.loop.stats().dropped, 0u);
}

TEST(EventLoopTest, Esm2CompletesOutOfOrderMatchedById) {
  // Request 1 is a 64-arch batch, priced by the reactor's flush() once the
  // wakeup's reads are done; request 2 is a control verb answered inline
  // during the parse pass, so over esm2 the inline answer normally
  // overtakes the slow one on the wire. A read that splits the two frames
  // across wakeups lets the batch go first, so the overtake is asserted
  // across attempts, while the id<->verb matching must hold on every one.
  ServeConfig config = serve_config(artifact());
  config.cache_capacity = 0;  // keep the batch a miss on every attempt
  Harness harness(config);
  const std::string batch = join_batch(arch_pool(64));
  bool overtook = false;
  for (int attempt = 0; attempt < 50 && !overtook; ++attempt) {
    std::shared_ptr<ClientChannel> channel = harness.listener->connect();
    std::string wire =
        serve::encode_request(1, FrameVerb::predict_batch, batch);
    wire += serve::encode_request(2, FrameVerb::models, "");
    ASSERT_TRUE(channel->send(wire));
    std::string buffer;
    std::map<std::uint64_t, Frame> frames;
    const Frame first = next_frame(*channel, buffer);
    frames[first.request_id] = first;
    const Frame second = next_frame(*channel, buffer);
    frames[second.request_id] = second;
    ASSERT_EQ(frames.count(1u), 1u);
    ASSERT_EQ(frames.count(2u), 1u);
    EXPECT_EQ(frames[1u].verb,
              0x80 | static_cast<std::uint8_t>(FrameVerb::predict_batch));
    EXPECT_EQ(frames[2u].verb,
              0x80 | static_cast<std::uint8_t>(FrameVerb::models));
    overtook = first.request_id == 2u;
    channel->close();
  }
  EXPECT_TRUE(overtook) << "inline response never overtook the batch";
}

TEST(EventLoopTest, Esm1ResponsesStayInRequestOrder) {
  Harness harness(serve_config(artifact()));
  std::shared_ptr<ClientChannel> channel = harness.listener->connect();
  // Same shape as above, but esm1: even though `models` completes first
  // internally, the wire order must match the request order.
  const std::string batch = join_batch(arch_pool(64));
  ASSERT_TRUE(channel->send("predict_batch " + batch + "\nmodels\n"));
  std::string buffer;
  while (buffer.find('\n') == buffer.rfind('\n') ||
         buffer.find('\n') == std::string::npos) {
    ASSERT_TRUE(channel->receive_some(buffer));
  }
  EXPECT_EQ(buffer.rfind("esm1 ok predict_batch", 0), 0u)
      << "first line: " << buffer.substr(0, 40);
  EXPECT_NE(buffer.find("esm1 ok models"), std::string::npos);
  channel->close();
}

TEST(EventLoopTest, MalformedFrameMatrixAnswersThenCloses) {
  // Each corrupt frame must earn exactly one connection-level error frame
  // (request id 0, code bad_frame) followed by end-of-stream.
  const auto expect_bad_frame = [](std::string wire) {
    Harness harness(serve_config(artifact()));
    std::shared_ptr<ClientChannel> channel = harness.listener->connect();
    ASSERT_TRUE(channel->send(wire));
    std::string buffer;
    const Frame frame = next_frame(*channel, buffer);
    EXPECT_EQ(frame.request_id, 0u);
    EXPECT_EQ(frame.verb, serve::kFrameErrorVerb);
    std::uint8_t code = 0;
    std::string_view detail;
    ASSERT_TRUE(serve::split_error_payload(frame.payload, code, detail));
    EXPECT_EQ(static_cast<serve::ErrorCode>(code),
              serve::ErrorCode::bad_frame);
    // Then EOF: the connection cannot be resynchronized.
    std::string rest;
    while (channel->receive_some(rest)) {
    }
    EXPECT_TRUE(rest.empty());
  };

  std::string valid = serve::encode_request(5, FrameVerb::predict, "3,5,2,7");

  {  // bad magic1 (first byte 0xE5 sniffs esm2, second byte is wrong)
    std::string wire = valid;
    wire[1] = 'x';
    expect_bad_frame(wire);
  }
  {  // unsupported version
    std::string wire = valid;
    wire[2] = 9;
    expect_bad_frame(wire);
  }
  {  // CRC flip in the payload section
    std::string wire = valid;
    wire.back() = static_cast<char>(wire.back() ^ 0x01);
    expect_bad_frame(wire);
  }
  {  // CRC flip in the id section
    std::string wire = valid;
    wire[6] = static_cast<char>(wire[6] ^ 0x01);
    expect_bad_frame(wire);
  }
  {  // hostile declared length (over the frame cap)
    std::string wire = valid.substr(0, serve::kFrameHeaderBytes);
    wire[12] = static_cast<char>(0xFF);
    wire[13] = static_cast<char>(0xFF);
    wire[14] = static_cast<char>(0xFF);
    wire[15] = 0x7F;
    expect_bad_frame(wire);
  }
  {  // valid frame, then interleaved garbage: the first is answered, the
     // garbage earns the bad_frame close
    Harness harness(serve_config(artifact()));
    std::shared_ptr<ClientChannel> channel = harness.listener->connect();
    ASSERT_TRUE(channel->send(valid + "garbage that is not a frame"));
    // Both frames must arrive (the valid request answered, the garbage
    // closed out), but esm2 completion order is intentionally unordered:
    // the inline bad_frame error may overtake the flushed predict.
    std::string buffer;
    std::map<std::uint64_t, Frame> frames;
    for (int i = 0; i < 2; ++i) {
      const Frame frame = next_frame(*channel, buffer);
      frames[frame.request_id] = frame;
    }
    ASSERT_EQ(frames.count(5u), 1u);
    EXPECT_EQ(frames[5u].verb,
              0x80 | static_cast<std::uint8_t>(FrameVerb::predict));
    ASSERT_EQ(frames.count(0u), 1u);
    EXPECT_EQ(frames[0u].verb, serve::kFrameErrorVerb);
  }
}

TEST(EventLoopTest, TruncatedFrameWaitsInsteadOfClosing) {
  Harness harness(serve_config(artifact()));
  std::shared_ptr<ClientChannel> channel = harness.listener->connect();
  const std::string wire =
      serve::encode_request(3, FrameVerb::predict, "3,5,2,7");
  // Drip-feed: the parser must wait at every cut, then answer normally.
  ASSERT_TRUE(channel->send(wire.substr(0, 1)));
  ASSERT_TRUE(channel->send(wire.substr(1, 10)));
  ASSERT_TRUE(channel->send(wire.substr(11)));
  std::string buffer;
  const Frame frame = next_frame(*channel, buffer);
  EXPECT_EQ(frame.request_id, 3u);
  EXPECT_EQ(frame.verb, 0x80 | static_cast<std::uint8_t>(FrameVerb::predict));
  channel->close();
}

TEST(EventLoopTest, UnknownFrameVerbEarnsStructuredError) {
  Harness harness(serve_config(artifact()));
  std::shared_ptr<ClientChannel> channel = harness.listener->connect();
  ASSERT_TRUE(channel->send(serve::encode_frame(11, 42, "whatever")));
  std::string buffer;
  const Frame frame = next_frame(*channel, buffer);
  EXPECT_EQ(frame.request_id, 11u);
  EXPECT_EQ(frame.verb, serve::kFrameErrorVerb);
  std::uint8_t code = 0;
  std::string_view detail;
  ASSERT_TRUE(serve::split_error_payload(frame.payload, code, detail));
  EXPECT_EQ(static_cast<serve::ErrorCode>(code),
            serve::ErrorCode::unknown_verb);
  channel->close();
}

TEST(EventLoopTest, OversizedEsm2PayloadGetsStructuredError) {
  // Within the frame cap but over ServeConfig::max_line_bytes: the same
  // structured `oversized` error esm1 answers, and the connection lives.
  ServeConfig config = serve_config(artifact());
  config.max_line_bytes = 256;
  EventLoopConfig loop_config;
  loop_config.max_frame_payload = 4096;
  Harness harness(config, loop_config);
  EsmClient client = harness.client(Protocol::esm2);
  const EsmClient::Response big =
      client.call("predict", std::string(1024, '1'));
  EXPECT_FALSE(big.ok);
  EXPECT_EQ(big.verb_or_code, "oversized");
  EXPECT_GT(client.predict("3,5,2,7"), 0.0);  // still serving
}

TEST(EventLoopTest, BackpressurePausesThenRecovers) {
  // A 512-byte client buffer with a low watermark forces the loop through
  // pause/flush/resume cycles; a client that drains slowly must still get
  // every response, in order, with zero drops.
  EventLoopConfig loop_config;
  loop_config.out_high_watermark = 1024;
  loop_config.out_hard_cap = 1 << 20;
  Harness harness(serve_config(artifact()), loop_config);
  std::shared_ptr<ClientChannel> channel = harness.listener->connect(512);
  EsmClient client(channel, Protocol::esm1);

  constexpr int kRequests = 200;
  std::vector<std::uint64_t> ids;
  ids.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) ids.push_back(client.submit("info", ""));
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(client.await(id).ok);
  }
  EXPECT_EQ(harness.loop.stats().dropped, 0u);
}

TEST(EventLoopTest, SlowClientIsDroppedByWriteStall) {
  EventLoopConfig loop_config;
  loop_config.out_high_watermark = 256;
  loop_config.write_stall_timeout_s = 0.05;
  loop_config.tick_ms = 10;
  Harness harness(serve_config(artifact()), loop_config);
  std::shared_ptr<ClientChannel> channel = harness.listener->connect(64);
  // Flood without ever reading: output fills its 64-byte window and
  // stalls until the reaper drops the connection.
  for (int i = 0; i < 50; ++i) {
    if (!channel->send("models\n")) break;
  }
  for (int i = 0; i < 200 && harness.loop.stats().dropped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(harness.loop.stats().dropped, 1u);
}

TEST(EventLoopTest, Esm1HoldBackQueueIsCapped) {
  // esm1 ordered delivery parks out-of-order completions in a per-conn
  // hold-back map; a client that pipelines a slow head of line plus a
  // burst of fast control verbs overruns max_held_responses and is
  // dropped instead of buffering without bound.
  EventLoopConfig loop_config;
  loop_config.max_held_responses = 4;
  ServeConfig config = serve_config(artifact());
  config.cache_capacity = 0;
  Harness harness(config, loop_config);
  std::shared_ptr<ClientChannel> channel = harness.listener->connect();

  // Head of line: a heavy uncached batch that pins seq 0 in the batcher
  // for milliseconds. The `models` replies complete inline on the reactor
  // thread, so they pile up behind it immediately.
  std::string burst = "predict_batch " + join_batch(arch_pool(1000)) + "\n";
  for (int i = 0; i < 50; ++i) burst += "models\n";
  ASSERT_TRUE(channel->send(burst));

  for (int i = 0; i < 400 && harness.loop.stats().dropped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(harness.loop.stats().dropped, 1u);
}

TEST(EventLoopTest, GatherFlushSurvivesTinyWriteWindows) {
  // A 64-byte client window makes every flush a partial write_some:
  // the gather path must resume mid-buffer without corrupting or
  // reordering any pipelined esm2 response.
  const std::vector<std::string> pool = arch_pool(32);
  const std::map<std::string, double> expected =
      offline_predictions(artifact(), pool);
  Harness harness(serve_config(artifact()));
  std::shared_ptr<ClientChannel> channel = harness.listener->connect(64);
  EsmClient client(channel, Protocol::esm2);

  std::vector<std::pair<std::uint64_t, std::string>> sent;
  for (int i = 0; i < 64; ++i) {
    const std::string& spec = pool[(i * 5) % pool.size()];
    sent.push_back({client.submit("predict", spec), spec});
  }
  for (const auto& [id, spec] : sent) {
    const EsmClient::Response response = client.await(id);
    ASSERT_TRUE(response.ok) << response.raw;
    EXPECT_EQ(response.payload, serve::format_latency(expected.at(spec)))
        << spec;
  }
  EXPECT_EQ(harness.loop.stats().dropped, 0u);
}

TEST(EventLoopTest, TcpAndLoopbackFlushByteIdentically) {
  // The same pipelined esm1 workload over both transports, and over
  // loopback under the mild chaos profile: the gather flush (sendmsg
  // iovecs for TCP, buffer appends for loopback, one buffer per call
  // under chaos) must yield byte-identical response streams.
  const std::vector<std::string> pool = arch_pool(16);
  std::string burst;
  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    burst += "predict " + pool[i % pool.size()] + "\n";
  }
  burst += "models\ninfo\n";
  constexpr std::size_t kLines = kRequests + 2;

  const auto collect = [&](std::shared_ptr<serve::ClientChannel> channel) {
    EXPECT_TRUE(channel->send(burst));
    std::string bytes;
    std::size_t lines = 0;
    while (lines < kLines && channel->receive_some(bytes)) {
      lines = static_cast<std::size_t>(
          std::count(bytes.begin(), bytes.end(), '\n'));
    }
    channel->close();
    return bytes;
  };

  std::string loopback_bytes;
  {
    Harness harness(serve_config(artifact()));
    // A small response cap keeps the loopback side making partial
    // gather-flush progress the whole time.
    loopback_bytes =
        collect(harness.listener->connect(48));
  }

  std::string chaos_bytes;
  {
    // Mild chaos fragments reads and writes and stalls, but every byte
    // survives.
    Harness harness(serve_config(artifact()), {},
                    [](std::shared_ptr<serve::Listener> listener) {
                      return serve::make_chaos_listener(
                          std::move(listener),
                          serve::chaos_profile_by_name("mild"), 0x5eed);
                    });
    chaos_bytes = collect(harness.listener->connect(48));
  }

  std::string tcp_bytes;
  {
    PredictionServer server(serve_config(artifact()));
    EventLoop loop(server);
    int port = 0;
    loop.add_listener(
        std::shared_ptr<serve::Listener>(serve::make_tcp_listener(0, &port)));
    ASSERT_GT(port, 0);
    std::thread thread([&loop] { loop.run(); });
    tcp_bytes = collect(serve::connect_tcp("127.0.0.1", port));
    loop.request_stop();
    thread.join();
    server.request_stop();
    server.wait();
  }

  EXPECT_EQ(loopback_bytes, tcp_bytes);
  EXPECT_EQ(loopback_bytes, chaos_bytes);
}

TEST(EventLoopTest, IdleConnectionIsReaped) {
  EventLoopConfig loop_config;
  loop_config.idle_timeout_s = 0.05;
  loop_config.tick_ms = 10;
  Harness harness(serve_config(artifact()), loop_config);
  std::shared_ptr<ClientChannel> channel = harness.listener->connect();
  ASSERT_TRUE(channel->send("models\n"));
  std::string out;
  ASSERT_TRUE(channel->receive_some(out));
  // Now go quiet; the loop must reap us.
  for (int i = 0; i < 200 && harness.loop.stats().dropped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(harness.loop.stats().dropped, 1u);
  EXPECT_EQ(harness.loop.stats().active, 0u);
}

TEST(EventLoopTest, DrainAnswersEverythingOnTheWire) {
  Harness harness(serve_config(artifact()));
  constexpr std::size_t kClients = 16;
  constexpr std::size_t kPerClient = 25;
  // Distinct archs everywhere, so every request is a miss that may still
  // be queued for flush() when the drain begins.
  const std::vector<std::string> pool = arch_pool(kClients * kPerClient);
  std::vector<std::shared_ptr<ClientChannel>> channels;
  for (std::size_t c = 0; c < kClients; ++c) {
    channels.push_back(harness.listener->connect());
    std::string burst;
    for (std::size_t i = 0; i < kPerClient; ++i) {
      burst += "predict " + pool[c * kPerClient + i] + "\n";
    }
    burst += "predict 1,1,1";  // partial trailing line: discarded by drain
    ASSERT_TRUE(channels.back()->send(burst));
  }
  // Every complete request sent before the stop must be answered.
  harness.loop.request_stop();
  for (const std::shared_ptr<ClientChannel>& channel : channels) {
    std::string received;
    while (channel->receive_some(received)) {
    }
    std::istringstream responses(received);
    std::size_t lines = 0;
    std::size_t ok = 0;
    for (std::string line; std::getline(responses, line); ++lines) {
      ok += line.rfind("esm1 ok predict ", 0) == 0;
    }
    EXPECT_EQ(lines, kPerClient);
    EXPECT_EQ(ok, kPerClient);
  }
  EXPECT_EQ(harness.loop.stats().dropped, 0u);
}

TEST(EventLoopTest, ShutdownVerbDrainsTheLoop) {
  Harness harness(serve_config(artifact()));
  EsmClient client = harness.client(Protocol::esm2);
  client.shutdown();
  harness.thread.join();
  // The listener closed with the drain: no new connections.
  EXPECT_EQ(harness.listener->connect(), nullptr);
}

TEST(EventLoopTest, EpollFailureIsAConfigError) {
  // With no descriptor left to hand out, epoll_create1 fails (EMFILE) and
  // constructing the loop reports it, naming the call.
  PredictionServer server(serve_config(artifact()));
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::string error;
  try {
    EventLoop loop(server);
  } catch (const ConfigError& e) {
    error = e.what();
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(error.rfind("epoll_create1(): ", 0), 0u) << error;
}

TEST(EventLoopTest, TcpTransportEndToEnd) {
  ServeConfig config = serve_config(artifact());
  PredictionServer server(config);
  EventLoop loop(server);
  int port = 0;
  loop.add_listener(
      std::shared_ptr<serve::Listener>(serve::make_tcp_listener(0, &port)));
  ASSERT_GT(port, 0);
  std::thread thread([&loop] { loop.run(); });

  {
    EsmClient esm1(serve::connect_tcp("127.0.0.1", port), Protocol::esm1);
    EsmClient esm2(serve::connect_tcp("127.0.0.1", port), Protocol::esm2);
    const EsmClient::Response a = esm1.call("predict", "3,5,2,7");
    const EsmClient::Response b = esm2.call("predict", "3,5,2,7");
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.payload, b.payload);
    EXPECT_EQ(esm2.stats().at("errors"), "0");
  }

  loop.request_stop();
  thread.join();
  EXPECT_EQ(loop.stats().dropped, 0u);
  server.request_stop();
  server.wait();
}

// The headline pin: 10,000 concurrent connections on one reactor thread —
// half esm1, half esm2 on the same listener — all holding pipelined
// requests in flight at once, zero drops, every response bit-identical to
// offline predict_all, and the server's stats reconciling exactly.
// Loopback connections are fd-less, so this runs under any ulimit.
TEST(EventLoopTest, TenThousandConcurrentConnectionsZeroDrops) {
  constexpr std::size_t kConns = 10000;
  constexpr std::size_t kThreads = 8;
  constexpr int kPerConn = 2;

  const std::vector<std::string> pool = arch_pool(311);
  const std::map<std::string, double> expected =
      offline_predictions(artifact(), pool);

  Harness harness(serve_config(artifact()));
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = kConns * t / kThreads;
      const std::size_t end = kConns * (t + 1) / kThreads;
      std::vector<EsmClient> clients;
      std::vector<std::vector<std::pair<std::uint64_t, std::string>>> sent;
      clients.reserve(end - begin);
      sent.resize(end - begin);
      // Phase 1: open every connection and pipeline every request before
      // awaiting anything — all connections are concurrently in flight.
      for (std::size_t c = begin; c < end; ++c) {
        clients.emplace_back(harness.listener->connect(),
                             c % 2 == 0 ? Protocol::esm1 : Protocol::esm2);
        for (int i = 0; i < kPerConn; ++i) {
          const std::string& spec = pool[(c * 7 + i * 131) % pool.size()];
          sent[c - begin].push_back(
              {clients.back().submit("predict", spec), spec});
        }
      }
      // Phase 2: collect and verify bit-identity.
      for (std::size_t c = 0; c < clients.size(); ++c) {
        for (const auto& [id, spec] : sent[c]) {
          const EsmClient::Response response = clients[c].await(id);
          if (!response.ok ||
              response.payload != serve::format_latency(expected.at(spec))) {
            ++mismatches;
          }
        }
      }
      for (EsmClient& client : clients) client.close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);

  const EventLoop::Stats loop_stats = harness.loop.stats();
  EXPECT_EQ(loop_stats.accepted, kConns);
  EXPECT_EQ(loop_stats.dropped, 0u);
  EXPECT_EQ(loop_stats.requests, kConns * kPerConn);

  // Stats reconcile exactly: every request classified exactly once.
  EsmClient auditor = harness.client(Protocol::esm2);
  const std::map<std::string, std::string> stats = auditor.stats();
  const auto count = [&stats](const char* key) {
    return std::stoull(stats.at(key));
  };
  EXPECT_EQ(count("requests"), kConns * kPerConn);
  EXPECT_EQ(count("errors"), 0u);
  EXPECT_EQ(count("requests"),
            count("hits") + count("misses") + count("errors"));
  EXPECT_EQ(count("archs"), kConns * kPerConn);
  EXPECT_EQ(count("archs"), count("arch_hits") + count("arch_misses"));
  EXPECT_EQ(count("batched_archs"), count("arch_misses"));
}

}  // namespace
}  // namespace esm
