// Tests for the streaming prediction server (src/net): the frame codec
// against a fuzz-style malformed-frame suite (truncation at every header
// boundary, oversized length fields with bounded allocation, bad
// magic/version/CRC answered with typed errors while the connection
// survives), and the live server over a real unix socket — byte-identity
// against the serial engine, admission-queue backpressure (RETRY_LATER,
// never a silent drop), per-request deadlines, stale-socket startup
// robustness, graceful drain with snapshot-on-shutdown, one evaluation
// per frame (interleaved connections and pipelined frames each answered
// byte-identically and matched by request id, the evaluator seeing each
// frame alone with its own deadline, post-eval deadline re-check,
// buffer-pool reuse), and multi-client concurrent soaks (run under TSan
// in CI) including drain-under-load with large and small frames.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/registry.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "perf/signature.hpp"
#include "svc/engine.hpp"
#include "test_seed.hpp"

namespace maia::net {
namespace {

// ------------------------------------------------------------- fixtures ---

perf::KernelSignature test_kernel(double flops, double bytes) {
  perf::KernelSignature s;
  s.name = "net-test";
  s.flops = flops;
  s.dram_bytes = bytes;
  s.vector_fraction = 0.9;
  return s;
}

svc::QueryEngine make_engine(svc::EngineConfig config = {}) {
  svc::QueryEngine engine(arch::maia_node(), config);
  engine.register_kernel(test_kernel(1e11, 1e8));
  engine.register_kernel(test_kernel(1e9, 1e10));
  return engine;
}

/// A reproducible batch mixing all three query kinds (latency working
/// sets kept small so uncached evaluation stays fast).
std::vector<svc::Query> random_batch(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  const arch::DeviceId devices[] = {arch::DeviceId::kHost, arch::DeviceId::kPhi0,
                                    arch::DeviceId::kPhi1};
  std::vector<svc::Query> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 3) {
      case 0: {
        svc::ExecQuery q;
        q.kernel = static_cast<std::uint16_t>(rng() % 3);  // 2 = out of range
        q.device = devices[rng() % 3];
        q.threads = static_cast<std::uint16_t>(rng() % 300);
        batch.push_back(svc::Query::of(q));
        break;
      }
      case 1: {
        svc::CollectiveQuery q;
        q.op = static_cast<svc::CollectiveOp>(rng() % 10);
        q.device = devices[rng() % 3];
        q.ranks = static_cast<std::uint16_t>(rng() % 300);
        q.message_bytes = sim::Bytes{1} << (rng() % 20);
        q.stack = (rng() % 2) ? fabric::SoftwareStack::kPreUpdate
                              : fabric::SoftwareStack::kPostUpdate;
        batch.push_back(svc::Query::of(q));
        break;
      }
      default: {
        svc::LatencyQuery q;
        q.device = devices[rng() % 3];
        q.working_set = sim::Bytes{1024} << (rng() % 6);
        q.iterations = static_cast<std::uint16_t>(rng() % 3);
        batch.push_back(svc::Query::of(q));
        break;
      }
    }
  }
  return batch;
}

/// Compare wire results against the engine's serial reference, bit-exact.
void expect_identical(const std::vector<WireResult>& results,
                      const svc::BatchResults& reference) {
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(std::memcmp(&results[i].value, &reference.values()[i], 8), 0)
        << "value diverged at " << i;
    EXPECT_EQ(std::memcmp(&results[i].secondary, &reference.secondary()[i], 8), 0)
        << "secondary diverged at " << i;
    EXPECT_EQ(results[i].flags, reference.flags()[i]) << "flags diverged at " << i;
  }
}

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/maia_net_test." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// RAII server over a fresh engine on a unique socket path.
struct TestServer {
  svc::QueryEngine engine;
  ServerConfig config;
  std::unique_ptr<Server> server;

  explicit TestServer(ServerConfig base = {}, svc::EngineConfig engine_config = {})
      : engine(make_engine(engine_config)) {
    config = std::move(base);
    config.socket_path = unique_socket_path();
    server = std::make_unique<Server>(engine, config);
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
  }

  ~TestServer() {
    if (server != nullptr && server->running()) {
      server->resume_workers();
      server->request_drain();
      server->wait();
    }
    ::unlink(config.socket_path.c_str());
  }

  void connect(Client& client) {
    std::string error;
    ASSERT_TRUE(client.connect(config.socket_path, &error)) << error;
  }
};

FrameHeader batch_header(std::uint64_t id, std::uint32_t deadline_ms = 0) {
  FrameHeader h;
  h.type = FrameType::kBatchRequest;
  h.request_id = id;
  h.deadline_ms = deadline_ms;
  return h;
}

// ----------------------------------------------------------- frame codec ---

TEST(FrameCodecTest, RoundTripsHeaderAndPayload) {
  FrameHeader header;
  header.type = FrameType::kBatchRequest;
  header.request_id = 0x1234'5678'9abc'def0ull;
  header.deadline_ms = 250;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes = encode_frame(header, payload);
  ASSERT_EQ(bytes.size(), kHeaderBytes + payload.size());

  FrameParser parser;
  parser.feed(bytes);
  Frame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.header.version, kProtocolVersion);
  EXPECT_EQ(frame.header.type, FrameType::kBatchRequest);
  EXPECT_EQ(frame.header.request_id, header.request_id);
  EXPECT_EQ(frame.header.deadline_ms, 250u);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
}

TEST(FrameCodecTest, ParsesByteAtATime) {
  FrameHeader header;
  header.type = FrameType::kPing;
  header.request_id = 7;
  const std::vector<std::uint8_t> bytes = encode_frame(header, {});
  FrameParser parser;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    parser.feed({&bytes[i], 1});
    ASSERT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
  }
  parser.feed({&bytes.back(), 1});
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.header.request_id, 7u);
}

TEST(FrameCodecTest, TruncationAtEveryBoundaryIsJustNeedMore) {
  // A frame cut at any byte — every header boundary and every payload
  // offset — must neither crash, nor poison, nor yield a frame.
  const std::vector<svc::Query> queries = random_batch(test::case_seed(101), 8);
  const std::vector<std::uint8_t> bytes =
      encode_frame(batch_header(42), encode_batch_request(queries));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameParser parser;
    parser.feed({bytes.data(), cut});
    Frame frame;
    ASSERT_EQ(parser.next(frame), FrameParser::Status::kNeedMore) << "cut=" << cut;
    ASSERT_FALSE(parser.poisoned()) << "cut=" << cut;
    // Delivering the remainder completes the frame.
    parser.feed({bytes.data() + cut, bytes.size() - cut});
    ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame) << "cut=" << cut;
    ASSERT_EQ(frame.header.request_id, 42u);
  }
}

TEST(FrameCodecTest, BadMagicPoisonsTheStream) {
  std::vector<std::uint8_t> bytes = encode_frame(batch_header(9), {});
  bytes[0] ^= 0xff;
  FrameParser parser;
  parser.feed(bytes);
  Frame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kBadMagic);
  EXPECT_TRUE(parser.poisoned());
  // A poisoned parser refuses everything after the desync point.
  parser.feed(encode_frame(batch_header(10), {}));
  EXPECT_EQ(parser.next(frame), FrameParser::Status::kNeedMore);
}

TEST(FrameCodecTest, BadVersionIsSkippableAndStreamRecovers) {
  FrameHeader bad = batch_header(11);
  bad.version = kProtocolVersion + 1;
  const std::vector<std::uint8_t> junk_payload = {1, 2, 3};
  std::vector<std::uint8_t> bytes = encode_frame(bad, junk_payload);
  const std::vector<std::uint8_t> good = encode_frame(batch_header(12), {});
  bytes.insert(bytes.end(), good.begin(), good.end());

  FrameParser parser;
  parser.feed(bytes);
  Frame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kBadVersion);
  EXPECT_EQ(parser.rejected_id(), 11u);
  EXPECT_FALSE(parser.poisoned());
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.header.request_id, 12u);
}

TEST(FrameCodecTest, BadTypeIsSkippable) {
  FrameHeader bad = batch_header(13);
  std::vector<std::uint8_t> bytes = encode_frame(bad, {});
  put_u16(bytes.data() + 6, 0x7777);  // unknown frame type
  put_u32(bytes.data() + 24, svc::crc32(nullptr, 0));
  const std::vector<std::uint8_t> good = encode_frame(batch_header(14), {});
  bytes.insert(bytes.end(), good.begin(), good.end());

  FrameParser parser;
  parser.feed(bytes);
  Frame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kBadType);
  EXPECT_EQ(parser.rejected_id(), 13u);
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.header.request_id, 14u);
}

TEST(FrameCodecTest, BadCrcIsSkippable) {
  const std::vector<std::uint8_t> crc_payload = {0xaa, 0xbb, 0xcc};
  std::vector<std::uint8_t> bytes = encode_frame(batch_header(15), crc_payload);
  bytes[kHeaderBytes + 1] ^= 0x01;  // corrupt payload in flight
  const std::vector<std::uint8_t> good = encode_frame(batch_header(16), {});
  bytes.insert(bytes.end(), good.begin(), good.end());

  FrameParser parser;
  parser.feed(bytes);
  Frame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kBadCrc);
  EXPECT_EQ(parser.rejected_id(), 15u);
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kFrame);
  EXPECT_EQ(frame.header.request_id, 16u);
}

TEST(FrameCodecTest, OversizedLengthIsBoundedAndPoisons) {
  // A hostile length field must not drive allocation: the parser rejects
  // from the header alone, buffering nothing beyond bytes actually fed.
  std::vector<std::uint8_t> bytes = encode_frame(batch_header(17), {});
  put_u32(bytes.data() + 20, 0xffff'ffffu);  // claims a 4 GiB payload
  FrameParser parser(/*max_payload=*/1024);
  parser.feed(bytes);
  Frame frame;
  ASSERT_EQ(parser.next(frame), FrameParser::Status::kTooLarge);
  EXPECT_TRUE(parser.poisoned());
  EXPECT_LE(parser.buffered_bytes(), bytes.size());
}

TEST(FrameCodecTest, FuzzRandomBytesNeverCrashOrOverAllocate) {
  std::mt19937 rng(test::case_seed(103));
  for (int round = 0; round < 200; ++round) {
    FrameParser parser(/*max_payload=*/4096);
    std::vector<std::uint8_t> junk(1 + rng() % 512);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    // Occasionally make the junk magic-prefixed so deeper header paths run.
    if (rng() % 2 == 0 && junk.size() >= 4) put_u32(junk.data(), kMagic);
    parser.feed(junk);
    Frame frame;
    for (int step = 0; step < 64; ++step) {
      const FrameParser::Status status = parser.next(frame);
      if (status == FrameParser::Status::kNeedMore) break;
      if (status == FrameParser::Status::kFrame) {
        ASSERT_LE(frame.payload.size(), 4096u);
      }
      if (parser.poisoned()) break;
    }
    ASSERT_LE(parser.buffered_bytes(), junk.size());
  }
}

TEST(FrameCodecTest, BatchRequestRoundTripsAllKinds) {
  const std::vector<svc::Query> queries = random_batch(test::case_seed(105), 64);
  const std::vector<std::uint8_t> payload = encode_batch_request(queries);
  std::vector<svc::Query> decoded;
  ASSERT_EQ(decode_batch_request(payload, decoded), WireError::kOk);
  ASSERT_EQ(decoded.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(decoded[i].kind, queries[i].kind) << i;
    switch (queries[i].kind) {
      case svc::QueryKind::kExec:
        EXPECT_EQ(decoded[i].exec.kernel, queries[i].exec.kernel);
        EXPECT_EQ(decoded[i].exec.device, queries[i].exec.device);
        EXPECT_EQ(decoded[i].exec.threads, queries[i].exec.threads);
        break;
      case svc::QueryKind::kCollective:
        EXPECT_EQ(decoded[i].coll.op, queries[i].coll.op);
        EXPECT_EQ(decoded[i].coll.device, queries[i].coll.device);
        EXPECT_EQ(decoded[i].coll.ranks, queries[i].coll.ranks);
        EXPECT_EQ(decoded[i].coll.message_bytes, queries[i].coll.message_bytes);
        EXPECT_EQ(decoded[i].coll.stack, queries[i].coll.stack);
        break;
      case svc::QueryKind::kLatency:
        EXPECT_EQ(decoded[i].lat.device, queries[i].lat.device);
        EXPECT_EQ(decoded[i].lat.working_set, queries[i].lat.working_set);
        EXPECT_EQ(decoded[i].lat.iterations, queries[i].lat.iterations);
        break;
    }
  }
}

TEST(FrameCodecTest, MalformedBatchPayloadsAreRejected) {
  std::vector<svc::Query> decoded;
  // Too short for even the count prelude.
  EXPECT_EQ(decode_batch_request(std::vector<std::uint8_t>(4), decoded),
            WireError::kMalformed);
  // Count promises more records than the payload holds.
  std::vector<std::uint8_t> payload = encode_batch_request(
      random_batch(test::case_seed(107), 4));
  put_u32(payload.data(), 5);
  EXPECT_EQ(decode_batch_request(payload, decoded), WireError::kMalformed);
  // Trailing garbage after the promised records.
  put_u32(payload.data(), 4);
  payload.push_back(0);
  EXPECT_EQ(decode_batch_request(payload, decoded), WireError::kMalformed);
  payload.pop_back();
  // Unknown query kind / device / op / stack, each at record 0.
  for (const std::size_t offset : {std::size_t{8}, std::size_t{9}}) {
    std::vector<std::uint8_t> bad = payload;
    bad[offset] = 0x7f;
    EXPECT_EQ(decode_batch_request(bad, decoded), WireError::kMalformed)
        << "offset " << offset;
  }
  {
    std::vector<std::uint8_t> bad = payload;
    bad[8] = 1;     // collective...
    bad[9] = 0;
    bad[10] = 99;   // ...with an unknown op
    EXPECT_EQ(decode_batch_request(bad, decoded), WireError::kMalformed);
    bad[10] = 0;
    bad[11] = 9;    // ...with an unknown software stack
    EXPECT_EQ(decode_batch_request(bad, decoded), WireError::kMalformed);
  }
}

TEST(FrameCodecTest, BatchResponseRoundTripsBitExactDoubles) {
  const std::vector<double> values = {0.0, -0.0, 1.5e-300, 7.25e300};
  const std::vector<double> secondary = {3.14, -2.5, 0.0, 1e-12};
  const std::vector<std::uint32_t> flags = {0, 1, 0, 1};
  const std::vector<std::uint8_t> payload =
      encode_batch_response(values, secondary, flags);
  const auto decoded = decode_batch_response(payload);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::memcmp(&(*decoded)[i].value, &values[i], 8), 0);
    EXPECT_EQ(std::memcmp(&(*decoded)[i].secondary, &secondary[i], 8), 0);
    EXPECT_EQ((*decoded)[i].flags, flags[i]);
  }
  EXPECT_FALSE(decode_batch_response(std::vector<std::uint8_t>(7)).has_value());
}

TEST(FrameCodecTest, ErrorAndStatsRoundTrip) {
  std::uint32_t detail = 0;
  EXPECT_EQ(decode_error(encode_error(WireError::kRetryLater, 17), &detail),
            WireError::kRetryLater);
  EXPECT_EQ(detail, 17u);
  EXPECT_EQ(decode_error(std::vector<std::uint8_t>(3)), WireError::kMalformed);

  WireStats stats;
  stats.served = 101;
  stats.rejected = 7;
  stats.engine_hits = 99;
  stats.connected_clients = 4;
  const auto decoded = decode_stats(encode_stats(stats));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->served, 101u);
  EXPECT_EQ(decoded->rejected, 7u);
  EXPECT_EQ(decoded->engine_hits, 99u);
  EXPECT_EQ(decoded->connected_clients, 4u);
}

// ----------------------------------------------------------- live server ---

TEST(ServerTest, PingAndBatchAreByteIdenticalToSerial) {
  TestServer ts;
  Client client;
  ts.connect(client);
  EXPECT_TRUE(client.ping().ok());

  const std::vector<svc::Query> queries = random_batch(test::case_seed(109), 256);
  std::vector<WireResult> results;
  const ClientOutcome outcome = client.evaluate(queries, results);
  ASSERT_TRUE(outcome.ok()) << wire_error_name(outcome.error);

  svc::BatchResults reference;
  ts.engine.evaluate_serial(queries, reference);
  expect_identical(results, reference);

  // Same workload again: every query is now cached and the answer must
  // not change — and the server-side stats must show it.
  const ClientOutcome warm = client.evaluate(queries, results);
  ASSERT_TRUE(warm.ok());
  expect_identical(results, reference);
  const std::optional<WireStats> stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->served, 2u);
  EXPECT_GE(stats->engine_hits, queries.size());  // warm pass all hits
}

TEST(ServerTest, MalformedFramesGetTypedErrorsAndConnectionSurvives) {
  TestServer ts;
  Client client;
  ts.connect(client);
  const std::vector<svc::Query> queries = random_batch(test::case_seed(111), 16);

  // Bad version: typed error, then the connection still serves.
  FrameHeader bad_version = batch_header(501);
  bad_version.version = 99;
  ASSERT_TRUE(client.send_raw(encode_frame(bad_version, {})));
  std::optional<Frame> response = client.read_response(501);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->header.type, FrameType::kError);
  EXPECT_EQ(decode_error(response->payload), WireError::kBadVersion);

  // Bad CRC: typed error, connection survives.
  std::vector<std::uint8_t> corrupt =
      encode_frame(batch_header(502), encode_batch_request(queries));
  corrupt[kHeaderBytes] ^= 0x40;
  ASSERT_TRUE(client.send_raw(corrupt));
  response = client.read_response(502);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->header.type, FrameType::kError);
  EXPECT_EQ(decode_error(response->payload), WireError::kMalformed);

  // Malformed batch payload (bad query kind): typed error, survives.
  std::vector<std::uint8_t> bad_kind = encode_batch_request(queries);
  bad_kind[8] = 0x7f;
  ASSERT_TRUE(client.send_raw(encode_frame(batch_header(503), bad_kind)));
  response = client.read_response(503);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->header.type, FrameType::kError);
  EXPECT_EQ(decode_error(response->payload), WireError::kMalformed);

  // After all that abuse the connection still answers real work.
  std::vector<WireResult> results;
  ASSERT_TRUE(client.evaluate(queries, results).ok());
  svc::BatchResults reference;
  ts.engine.evaluate_serial(queries, reference);
  expect_identical(results, reference);
  EXPECT_EQ(ts.server->stats().malformed, 3u);

  // Bad magic desyncs the stream: typed error, then the server hangs up.
  std::vector<std::uint8_t> desync = encode_frame(batch_header(504), {});
  desync[0] ^= 0xff;
  ASSERT_TRUE(client.send_raw(desync));
  response = client.read_response(504);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(decode_error(response->payload), WireError::kBadMagic);
  EXPECT_FALSE(client.read_response(505).has_value());  // EOF: closed
}

TEST(ServerTest, FullAdmissionQueueAnswersRetryLater) {
  ServerConfig config;
  config.workers = 1;
  config.admission_depth = 2;
  TestServer ts(config);
  ts.server->pause_workers();

  Client client;
  ts.connect(client);
  const std::vector<svc::Query> queries = random_batch(test::case_seed(113), 8);
  const std::vector<std::uint8_t> payload = encode_batch_request(queries);

  // Fill the queue (workers frozen), then overflow it.
  ASSERT_TRUE(client.send_raw(encode_frame(batch_header(601), payload)));
  ASSERT_TRUE(client.send_raw(encode_frame(batch_header(602), payload)));
  ASSERT_TRUE(client.send_raw(encode_frame(batch_header(603), payload)));

  std::optional<Frame> rejection = client.read_response(603);
  ASSERT_TRUE(rejection.has_value());
  ASSERT_EQ(rejection->header.type, FrameType::kError);
  EXPECT_EQ(decode_error(rejection->payload), WireError::kRetryLater);

  // Nothing admitted was dropped: both queued batches complete once the
  // workers thaw, with correct answers.
  ts.server->resume_workers();
  svc::BatchResults reference;
  ts.engine.evaluate_serial(queries, reference);
  for (const std::uint64_t id : {601ull, 602ull}) {
    std::optional<Frame> response = client.read_response(id);
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->header.type, FrameType::kBatchResponse) << id;
    const auto decoded = decode_batch_response(response->payload);
    ASSERT_TRUE(decoded.has_value());
    expect_identical(*decoded, reference);
  }
  EXPECT_EQ(ts.server->stats().rejected, 1u);
  EXPECT_EQ(ts.server->stats().served, 2u);
}

TEST(ServerTest, ExpiredDeadlineGetsTypedTimeout) {
  ServerConfig config;
  config.workers = 1;
  TestServer ts(config);
  ts.server->pause_workers();

  Client client;
  ts.connect(client);
  const std::vector<svc::Query> queries = random_batch(test::case_seed(115), 4);
  ASSERT_TRUE(client.send_raw(encode_frame(batch_header(701, /*deadline_ms=*/5),
                                           encode_batch_request(queries))));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ts.server->resume_workers();

  std::optional<Frame> response = client.read_response(701);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->header.type, FrameType::kError);
  EXPECT_EQ(decode_error(response->payload), WireError::kDeadlineExceeded);
  EXPECT_EQ(ts.server->stats().timed_out, 1u);

  // A generous deadline still serves normally on the same connection.
  std::vector<WireResult> results;
  EXPECT_TRUE(client.evaluate(queries, results, /*deadline_ms=*/60'000).ok());
}

TEST(ServerTest, StaleSocketIsReclaimedLiveSocketIsRefused) {
  // A leftover path from a crashed server: bound once, never unlinked.
  const std::string path = unique_socket_path();
  {
    svc::QueryEngine engine = make_engine();
    ServerConfig config;
    config.socket_path = path;
    Server crashed(engine, config);
    std::string error;
    ASSERT_TRUE(crashed.start(&error)) << error;
    // Simulate a crash: the process dies without drain; the destructor
    // path we model here still leaves no listener behind.
    crashed.request_drain();
    crashed.wait();
  }
  // Recreate the stale file the way an unclean death leaves it.
  {
    svc::QueryEngine engine = make_engine();
    ServerConfig config;
    config.socket_path = path;
    Server victim(engine, config);
    std::string error;
    ASSERT_TRUE(victim.start(&error)) << error;
    // While it is alive, a second server must refuse to steal the path.
    svc::QueryEngine engine2 = make_engine();
    Server thief(engine2, config);
    std::string thief_error;
    EXPECT_FALSE(thief.start(&thief_error));
    EXPECT_NE(thief_error.find("live server"), std::string::npos) << thief_error;
    victim.request_drain();
    victim.wait();
  }
  // Dead but still on disk (no unlink by the "crashed" owner).
  {
    // Manufacture the stale socket file explicitly.
    svc::QueryEngine engine = make_engine();
    ServerConfig config;
    config.socket_path = path;
    Server server(engine, config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;  // reclaims any leftover
    EXPECT_TRUE(socket_alive(path));
    server.request_drain();
    server.wait();
    EXPECT_FALSE(socket_alive(path));
  }
  ::unlink(path.c_str());
}

TEST(ServerTest, GracefulDrainFlushesInFlightAndSavesSnapshot) {
  const std::string snapshot_path = unique_socket_path() + ".snap";
  ServerConfig config;
  config.workers = 1;
  config.admission_depth = 8;
  config.snapshot_out = snapshot_path;
  TestServer ts(config);
  ts.server->pause_workers();

  Client client;
  ts.connect(client);
  const std::vector<svc::Query> queries = random_batch(test::case_seed(117), 32);
  const std::vector<std::uint8_t> payload = encode_batch_request(queries);
  ASSERT_TRUE(client.send_raw(encode_frame(batch_header(801), payload)));
  ASSERT_TRUE(client.send_raw(encode_frame(batch_header(802), payload)));

  // Give the reactor a beat to admit both, then drain under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ts.server->request_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // New work during drain is refused with a typed DRAINING error...
  ASSERT_TRUE(client.send_raw(encode_frame(batch_header(803), payload)));
  std::optional<Frame> refused = client.read_response(803);
  ASSERT_TRUE(refused.has_value());
  ASSERT_EQ(refused->header.type, FrameType::kError);
  EXPECT_EQ(decode_error(refused->payload), WireError::kDraining);

  // ...while everything admitted before the drain still completes.
  ts.server->resume_workers();
  svc::BatchResults reference;
  ts.engine.evaluate_serial(queries, reference);
  for (const std::uint64_t id : {801ull, 802ull}) {
    std::optional<Frame> response = client.read_response(id);
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->header.type, FrameType::kBatchResponse) << id;
    const auto decoded = decode_batch_response(response->payload);
    ASSERT_TRUE(decoded.has_value());
    expect_identical(*decoded, reference);
  }

  EXPECT_EQ(ts.server->wait(), 0);
  EXPECT_FALSE(socket_alive(ts.config.socket_path));

  // The drain saved a loadable snapshot that warms a fresh engine.
  svc::QueryEngine warm = make_engine();
  const svc::SnapshotLoadResult loaded = warm.load_snapshot(snapshot_path);
  EXPECT_TRUE(loaded.ok()) << svc::snapshot_error_name(loaded.error);
  EXPECT_GT(loaded.records_loaded, 0u);
  ::unlink(snapshot_path.c_str());
}

// --------------------------------------------- one evaluation per frame ---

TEST(ServerTest, InterleavedConnectionsGetByteIdenticalResponses) {
  // Four connections, four different-size frames, all admitted while the
  // workers are frozen — on resume every connection must get exactly its
  // own response, byte-identical to a standalone serial evaluation.
  ServerConfig config;
  config.workers = 1;
  config.admission_depth = 16;
  TestServer ts(config);
  ts.server->pause_workers();

  constexpr int kConns = 4;
  std::vector<Client> clients(kConns);
  std::vector<std::vector<svc::Query>> workloads;
  for (int c = 0; c < kConns; ++c) {
    ts.connect(clients[c]);
    workloads.push_back(random_batch(
        test::case_seed(121) + static_cast<std::uint32_t>(c),
        48 + 16 * static_cast<std::size_t>(c)));
  }
  for (int c = 0; c < kConns; ++c) {
    ASSERT_TRUE(clients[c].send_raw(encode_frame(
        batch_header(900 + static_cast<std::uint64_t>(c)),
        encode_batch_request(workloads[c]))));
  }
  // Give the reactor (which keeps running while workers are paused) time
  // to admit all four frames into the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.server->resume_workers();

  for (int c = 0; c < kConns; ++c) {
    std::optional<Frame> response =
        clients[c].read_response(900 + static_cast<std::uint64_t>(c));
    ASSERT_TRUE(response.has_value()) << c;
    ASSERT_EQ(response->header.type, FrameType::kBatchResponse) << c;
    const auto decoded = decode_batch_response(response->payload);
    ASSERT_TRUE(decoded.has_value()) << c;
    svc::BatchResults reference;
    ts.engine.evaluate_serial(workloads[c], reference);
    expect_identical(*decoded, reference);
  }
  const ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.served, 4u);
}

TEST(ServerTest, EvaluatorSeesEachFrameAlone) {
  // Four frames from four connections queue behind a paused worker, all
  // with one deadline.  The evaluator must still be called once per frame,
  // with that frame's own queries and deadline_ms, and every response must
  // carry exactly its own call's stub answers.
  using Call = std::pair<std::size_t, std::uint32_t>;  // (queries, deadline)
  std::mutex calls_mutex;
  std::vector<Call> calls;
  ServerConfig config;
  config.workers = 1;
  config.admission_depth = 16;
  config.evaluator = [&](std::span<const svc::Query> queries,
                         svc::BatchResults& out,
                         std::uint32_t deadline_ms) -> WireError {
    {
      std::lock_guard<std::mutex> lock(calls_mutex);
      calls.emplace_back(queries.size(), deadline_ms);
    }
    out.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out.values_mut()[i] = static_cast<double>(i);
      out.secondary_mut()[i] = static_cast<double>(queries.size());
      out.flags_mut()[i] = 0;
    }
    return WireError::kOk;
  };
  TestServer ts(config);
  ts.server->pause_workers();

  constexpr std::uint32_t kDeadlineMs = 60'000;
  const std::vector<std::size_t> sizes = {5, 6, 7, 8};
  std::vector<Client> clients(sizes.size());
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    ts.connect(clients[c]);
    const std::vector<svc::Query> queries = random_batch(
        test::case_seed(131) + static_cast<std::uint32_t>(c), sizes[c]);
    ASSERT_TRUE(clients[c].send_raw(encode_frame(
        batch_header(950 + c, kDeadlineMs), encode_batch_request(queries))));
  }
  // The reactor keeps admitting while the worker is paused; wait until all
  // four frames sit in the queue together.
  for (int spin = 0; spin < 500 && ts.server->stats().queue_depth < sizes.size();
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(ts.server->stats().queue_depth, sizes.size());
  ts.server->resume_workers();

  for (std::size_t c = 0; c < sizes.size(); ++c) {
    std::optional<Frame> response = clients[c].read_response(950 + c);
    ASSERT_TRUE(response.has_value()) << c;
    ASSERT_EQ(response->header.type, FrameType::kBatchResponse) << c;
    const auto decoded = decode_batch_response(response->payload);
    ASSERT_TRUE(decoded.has_value()) << c;
    ASSERT_EQ(decoded->size(), sizes[c]) << c;
    const double secondary = static_cast<double>(sizes[c]);
    for (std::size_t i = 0; i < sizes[c]; ++i) {
      const double value = static_cast<double>(i);
      EXPECT_EQ(std::memcmp(&(*decoded)[i].value, &value, 8), 0) << c << "/" << i;
      EXPECT_EQ(std::memcmp(&(*decoded)[i].secondary, &secondary, 8), 0)
          << c << "/" << i;
      EXPECT_EQ((*decoded)[i].flags, 0u) << c << "/" << i;
    }
  }
  std::lock_guard<std::mutex> lock(calls_mutex);
  const std::multiset<Call> seen(calls.begin(), calls.end());
  const std::multiset<Call> expected = {
      {5, kDeadlineMs}, {6, kDeadlineMs}, {7, kDeadlineMs}, {8, kDeadlineMs}};
  EXPECT_EQ(seen, expected);
}

TEST(ServerTest, PipelinedFramesAreMatchedById) {
  // A lone frame and a pipelined burst on one connection are each answered
  // promptly and byte-identically; the burst's responses are matched by
  // request id, since two workers may finish them in any order.
  ServerConfig config;
  config.workers = 2;
  TestServer ts(config);
  Client client;
  ts.connect(client);
  const std::vector<svc::Query> queries = random_batch(test::case_seed(123), 8);
  svc::BatchResults reference;
  ts.engine.evaluate_serial(queries, reference);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<WireResult> results;
  ASSERT_TRUE(client.evaluate(queries, results).ok());
  const double lone_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  expect_identical(results, reference);
  EXPECT_LT(lone_ms, 250.0) << "a lone frame was not answered promptly";

  const std::vector<std::uint8_t> payload = encode_batch_request(queries);
  const auto t1 = std::chrono::steady_clock::now();
  for (const std::uint64_t id : {911ull, 912ull, 913ull}) {
    ASSERT_TRUE(client.send_raw(encode_frame(batch_header(id), payload)));
  }
  // Two workers may answer the burst out of order (PROTOCOL.md: responses
  // are matched by request_id), and read_response() drops frames for other
  // ids, so take the three responses as they arrive.
  std::set<std::uint64_t> pending = {911, 912, 913};
  while (!pending.empty()) {
    std::optional<Frame> response = client.read_frame();
    ASSERT_TRUE(response.has_value());
    const std::uint64_t id = response->header.request_id;
    ASSERT_EQ(pending.erase(id), 1u) << "unexpected response " << id;
    ASSERT_EQ(response->header.type, FrameType::kBatchResponse) << id;
    const auto decoded = decode_batch_response(response->payload);
    ASSERT_TRUE(decoded.has_value());
    expect_identical(*decoded, reference);
  }
  const double burst_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t1)
          .count();
  EXPECT_LT(burst_ms, 250.0) << "a pipelined burst was not answered promptly";
}

TEST(ServerTest, DeadlineRecheckedAfterEvaluation) {
  // A frame that evaluates slowly must not smuggle results past its
  // deadline: the deadline is re-checked AFTER the evaluation, and an
  // expired frame gets the typed timeout even though its results were
  // computed.
  ServerConfig config;
  config.workers = 1;
  config.evaluator = [](std::span<const svc::Query> queries,
                        svc::BatchResults& out,
                        std::uint32_t) -> WireError {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    out.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out.values_mut()[i] = static_cast<double>(i);
      out.secondary_mut()[i] = 0.5;
      out.flags_mut()[i] = 0;
    }
    return WireError::kOk;
  };
  TestServer ts(config);
  Client client;
  ts.connect(client);
  const std::vector<svc::Query> queries = random_batch(test::case_seed(125), 4);

  // Deadline far above queue latency but far below the evaluation time:
  // the pre-evaluation check passes, the post-evaluation re-check fires.
  ASSERT_TRUE(client.send_raw(encode_frame(batch_header(921, /*deadline_ms=*/30),
                                           encode_batch_request(queries))));
  std::optional<Frame> response = client.read_response(921);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->header.type, FrameType::kError);
  EXPECT_EQ(decode_error(response->payload), WireError::kDeadlineExceeded);
  EXPECT_EQ(ts.server->stats().timed_out, 1u);
  EXPECT_EQ(ts.server->stats().served, 0u);

  // Without a deadline the same slow evaluator serves its stub results.
  std::vector<WireResult> results;
  ASSERT_TRUE(client.evaluate(queries, results).ok());
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double expected = static_cast<double>(i);
    EXPECT_EQ(std::memcmp(&results[i].value, &expected, 8), 0) << i;
  }
  EXPECT_EQ(ts.server->stats().served, 1u);
}

TEST(ServerTest, BufferPoolReusesAfterWarmup) {
  // The zero-copy response path must hit zero steady-state allocation:
  // after a few same-shaped frames warm the buffer pool, further frames
  // recycle buffers (reuse counter grows, allocation counter is flat).
  ServerConfig config;
  config.workers = 1;
  TestServer ts(config);
  Client client;
  ts.connect(client);
  const std::vector<svc::Query> queries = random_batch(test::case_seed(127), 64);
  std::vector<WireResult> results;
  for (int warm = 0; warm < 8; ++warm) {
    ASSERT_TRUE(client.evaluate(queries, results).ok());
  }

  const ServerStats warmed = ts.server->stats();
  for (int round = 0; round < 16; ++round) {
    ASSERT_TRUE(client.evaluate(queries, results).ok());
  }
  const ServerStats after = ts.server->stats();
  EXPECT_EQ(after.bufpool_allocations, warmed.bufpool_allocations)
      << "steady-state frames still allocated";
  EXPECT_GE(after.bufpool_reuses, warmed.bufpool_reuses + 16);
}

// A soak with N concurrent clients hammering one server — byte-identity
// for every response, then a drain under load that must neither drop an
// admitted request nor deadlock.  Runs under TSan in CI.
TEST(ServerSoakTest, ConcurrentClientsStayByteIdenticalThroughDrain) {
  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 12;
  constexpr std::size_t kBatchSize = 96;

  ServerConfig config;
  config.workers = 3;
  config.admission_depth = 6;  // small: backpressure really happens
  TestServer ts(config);

  // Per-client workloads and their serial references, precomputed so the
  // concurrent phase only compares.
  std::vector<std::vector<svc::Query>> workloads;
  std::vector<svc::BatchResults> references(kClients);
  for (int c = 0; c < kClients; ++c) {
    workloads.push_back(random_batch(
        test::case_seed(119) + static_cast<std::uint32_t>(c), kBatchSize));
    ts.engine.evaluate_serial(workloads.back(), references[c]);
  }

  std::atomic<int> divergences{0};
  std::atomic<int> transport_failures{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> draining_refusals{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      std::string error;
      if (!client.connect(ts.config.socket_path, &error)) {
        transport_failures.fetch_add(1);
        return;
      }
      std::vector<WireResult> results;
      for (int b = 0; b < kBatchesPerClient; ++b) {
        const ClientOutcome outcome =
            client.evaluate_with_retry(workloads[c], results);
        if (outcome.error == WireError::kDraining ||
            (outcome.error == WireError::kMalformed && !client.connected())) {
          break;  // server is shutting down under us — expected later
        }
        if (outcome.error == WireError::kMalformed) {
          break;  // disconnected mid-read during drain
        }
        if (!outcome.ok()) {
          transport_failures.fetch_add(1);
          break;
        }
        const svc::BatchResults& reference = references[c];
        bool same = results.size() == reference.size();
        for (std::size_t i = 0; same && i < results.size(); ++i) {
          same = std::memcmp(&results[i].value, &reference.values()[i], 8) == 0 &&
                 std::memcmp(&results[i].secondary, &reference.secondary()[i],
                             8) == 0 &&
                 results[i].flags == reference.flags()[i];
        }
        if (!same) divergences.fetch_add(1);
        completed.fetch_add(1);
      }
    });
  }

  // Let the herd run, then drain while they are still sending.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.server->request_drain();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ts.server->wait(), 0);

  EXPECT_EQ(divergences.load(), 0);
  EXPECT_EQ(transport_failures.load(), 0);
  EXPECT_GT(completed.load(), 0u);
  (void)draining_refusals;

  // Every admitted request was answered: served + rejected + timed out +
  // refused-during-drain accounts for every batch frame that arrived.
  const ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.served, completed.load() + stats.timed_out);
}

// The same drain-under-load soak with small frames from more clients than
// workers: the drain must still answer every admitted frame, byte-identical.
// Runs under TSan.
TEST(ServerSoakTest, DrainUnderLoadSmallFrames) {
  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 24;
  constexpr std::size_t kBatchSize = 24;

  ServerConfig config;
  config.workers = 2;
  config.admission_depth = 8;
  TestServer ts(config);

  std::vector<std::vector<svc::Query>> workloads;
  std::vector<svc::BatchResults> references(kClients);
  for (int c = 0; c < kClients; ++c) {
    workloads.push_back(random_batch(
        test::case_seed(129) + static_cast<std::uint32_t>(c), kBatchSize));
    ts.engine.evaluate_serial(workloads.back(), references[c]);
  }

  std::atomic<int> divergences{0};
  std::atomic<int> transport_failures{0};
  std::atomic<std::uint64_t> completed{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      std::string error;
      if (!client.connect(ts.config.socket_path, &error)) {
        transport_failures.fetch_add(1);
        return;
      }
      std::vector<WireResult> results;
      for (int b = 0; b < kBatchesPerClient; ++b) {
        const ClientOutcome outcome =
            client.evaluate_with_retry(workloads[c], results);
        if (outcome.error == WireError::kDraining ||
            outcome.error == WireError::kMalformed) {
          break;  // server is shutting down under us — expected later
        }
        if (!outcome.ok()) {
          transport_failures.fetch_add(1);
          break;
        }
        const svc::BatchResults& reference = references[c];
        bool same = results.size() == reference.size();
        for (std::size_t i = 0; same && i < results.size(); ++i) {
          same = std::memcmp(&results[i].value, &reference.values()[i], 8) == 0 &&
                 std::memcmp(&results[i].secondary, &reference.secondary()[i],
                             8) == 0 &&
                 results[i].flags == reference.flags()[i];
        }
        if (!same) divergences.fetch_add(1);
        completed.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.server->request_drain();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ts.server->wait(), 0);

  EXPECT_EQ(divergences.load(), 0);
  EXPECT_EQ(transport_failures.load(), 0);
  EXPECT_GT(completed.load(), 0u);

  const ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.served, completed.load() + stats.timed_out);
}

}  // namespace
}  // namespace maia::net
