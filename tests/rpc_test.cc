// Tests for the RPC layer (src/rpc): the frame codec (round trips,
// garbage/truncated/oversized frames rejected with Status, never crashes),
// explicit wire serialization of every protocol message, the server loop's
// handler dispatch, and the client's deadline behaviour against a peer that
// accepts but never answers.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/server.h"
#include "rpc/wire.h"

namespace kspdg {
namespace {

std::string TestSocketPath(const char* tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  return dir + "/kspdg-rpc-test-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

// ---------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------

TEST(FrameCodecTest, HeaderRoundTrips) {
  std::string frame = EncodeFrame(7, "hello");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 5);
  uint8_t type = 0;
  uint32_t length = 0;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &type, &length).ok());
  EXPECT_EQ(type, 7u);
  EXPECT_EQ(length, 5u);
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), "hello");
}

TEST(FrameCodecTest, EmptyPayloadRoundTrips) {
  std::string frame = EncodeFrame(1, "");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);
  uint8_t type = 0;
  uint32_t length = 0;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &type, &length).ok());
  EXPECT_EQ(type, 1u);
  EXPECT_EQ(length, 0u);
}

TEST(FrameCodecTest, RejectsBadMagic) {
  std::string frame = EncodeFrame(3, "x");
  frame[0] ^= 0x5A;  // corrupt the magic word
  uint8_t type = 0;
  uint32_t length = 0;
  Status status = DecodeFrameHeader(frame.data(), &type, &length);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(FrameCodecTest, RejectsOversizedLength) {
  // Hand-build a header whose length field exceeds the payload cap: the
  // decoder must reject it instead of letting the receiver allocate it.
  std::string frame = EncodeFrame(3, "x");
  uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(frame.data() + 5, &huge, sizeof(huge));
  uint8_t type = 0;
  uint32_t length = 0;
  Status status = DecodeFrameHeader(frame.data(), &type, &length);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

// A peer that closes mid-frame (truncated header or truncated payload)
// yields a clean kUnavailable from ReadFrame, never a hang or a crash.
TEST(FrameCodecTest, TruncatedFramesYieldUnavailable) {
  for (size_t cut : {size_t{0}, size_t{3}, kFrameHeaderBytes,
                     kFrameHeaderBytes + 2}) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(SetNonBlocking(fds[0]).ok());
    std::string frame = EncodeFrame(9, "payload");
    ASSERT_LT(cut, frame.size());
    ASSERT_EQ(send(fds[1], frame.data(), cut, 0),
              static_cast<ssize_t>(cut));
    close(fds[1]);  // truncate: the rest of the frame never arrives
    uint8_t type = 0;
    std::string payload;
    Status status =
        ReadFrame(fds[0], &type, &payload, DeadlineAfterMillis(2000));
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << "cut=" << cut;
    close(fds[0]);
  }
}

TEST(FrameCodecTest, GarbageStreamIsRejectedNotTrusted) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SetNonBlocking(fds[0]).ok());
  const char garbage[] = "this is not a kspdg frame at all............";
  ASSERT_GT(send(fds[1], garbage, sizeof(garbage), 0), 0);
  uint8_t type = 0;
  std::string payload;
  Status status =
      ReadFrame(fds[0], &type, &payload, DeadlineAfterMillis(2000));
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  close(fds[0]);
  close(fds[1]);
}

TEST(FrameCodecTest, WriteThenReadAcrossSocketPair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SetNonBlocking(fds[0]).ok());
  ASSERT_TRUE(SetNonBlocking(fds[1]).ok());
  std::string payload(100000, 'x');  // larger than one pipe buffer
  std::thread writer([&] {
    Status written = WriteFrame(fds[1], 5, payload, DeadlineAfterMillis(5000));
    EXPECT_TRUE(written.ok()) << written.ToString();
  });
  uint8_t type = 0;
  std::string got;
  Status read = ReadFrame(fds[0], &type, &got, DeadlineAfterMillis(5000));
  writer.join();
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(type, 5u);
  EXPECT_EQ(got, payload);
  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// Wire serialization: every message round-trips; corrupt payloads reject.
// ---------------------------------------------------------------------------

TEST(WireTest, ReaderRejectsTruncationAndTrailingGarbage) {
  WireWriter writer;
  writer.U32(7);
  writer.U64(1234567890123ull);
  writer.F64(3.5);
  writer.Str("abc");
  std::string payload = writer.Take();

  // Full payload reads back exactly.
  {
    WireReader reader(payload);
    uint32_t a = 0;
    uint64_t b = 0;
    double c = 0;
    std::string d;
    ASSERT_TRUE(reader.U32(&a).ok());
    ASSERT_TRUE(reader.U64(&b).ok());
    ASSERT_TRUE(reader.F64(&c).ok());
    ASSERT_TRUE(reader.Str(&d).ok());
    ASSERT_TRUE(reader.ExpectEnd().ok());
    EXPECT_EQ(a, 7u);
    EXPECT_EQ(b, 1234567890123ull);
    EXPECT_EQ(c, 3.5);
    EXPECT_EQ(d, "abc");
  }
  // Every truncation point fails with a Status, never reads out of bounds.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireReader reader(std::string_view(payload.data(), cut));
    uint32_t a = 0;
    uint64_t b = 0;
    double c = 0;
    std::string d;
    Status status = reader.U32(&a);
    if (status.ok()) status = reader.U64(&b);
    if (status.ok()) status = reader.F64(&c);
    if (status.ok()) status = reader.Str(&d);
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
  }
  // Trailing garbage is a protocol error.
  {
    std::string longer = payload + "!";
    WireReader reader(longer);
    uint32_t a = 0;
    uint64_t b = 0;
    double c = 0;
    std::string d;
    ASSERT_TRUE(reader.U32(&a).ok() && reader.U64(&b).ok() &&
                reader.F64(&c).ok() && reader.Str(&d).ok());
    EXPECT_FALSE(reader.ExpectEnd().ok());
  }
}

TEST(WireTest, LoadGraphRequestRoundTripsTheGraph) {
  Graph graph = MakeRandomConnected(24, 30, 1, 9, 7);
  DtlpOptions dtlp;
  dtlp.partition.max_vertices = 8;
  dtlp.index.xi = 3;
  LoadGraphRequest request =
      LoadGraphRequest::FromGraph(graph, /*shard_id=*/1, /*num_shards=*/3,
                                  dtlp);
  // Checkpoint shipping: the weights above belong to epoch 4, and the new
  // worker is replica 2 of its shard.
  request.replica_id = 2;
  request.base_epoch = 4;
  std::string payload = request.Encode();

  LoadGraphRequest decoded;
  ASSERT_TRUE(LoadGraphRequest::Decode(payload, &decoded).ok());
  EXPECT_EQ(decoded.shard_id, 1u);
  EXPECT_EQ(decoded.num_shards, 3u);
  EXPECT_EQ(decoded.replica_id, 2u);
  EXPECT_EQ(decoded.base_epoch, 4u);
  EXPECT_EQ(decoded.dtlp.partition.max_vertices, 8u);
  EXPECT_EQ(decoded.dtlp.index.xi, 3u);
  Result<Graph> rebuilt = decoded.BuildGraph();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const Graph& got = rebuilt.value();
  ASSERT_EQ(got.NumVertices(), graph.NumVertices());
  ASSERT_EQ(got.NumEdges(), graph.NumEdges());
  EXPECT_EQ(got.directed(), graph.directed());
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    EXPECT_EQ(got.EdgeU(e), graph.EdgeU(e));
    EXPECT_EQ(got.EdgeV(e), graph.EdgeV(e));
    EXPECT_EQ(got.ForwardVfrags(e), graph.ForwardVfrags(e));
    EXPECT_EQ(got.BackwardVfrags(e), graph.BackwardVfrags(e));
    // Bit-exact: the remote parity guarantee depends on it.
    EXPECT_EQ(got.ForwardWeight(e), graph.ForwardWeight(e));
    EXPECT_EQ(got.BackwardWeight(e), graph.BackwardWeight(e));
  }

  // Corrupt payloads reject at every truncation point (spot-check a few).
  for (size_t cut : {size_t{0}, payload.size() / 3, payload.size() - 1}) {
    LoadGraphRequest reject;
    EXPECT_FALSE(
        LoadGraphRequest::Decode(payload.substr(0, cut), &reject).ok());
  }
}

TEST(WireTest, BuildGraphValidatesStructure) {
  Graph graph = MakeRandomConnected(10, 12, 1, 9, 11);
  LoadGraphRequest request =
      LoadGraphRequest::FromGraph(graph, 0, 1, DtlpOptions{});
  // Vertex id out of range must be rejected, not trusted.
  request.edge_u[0] = 99;
  EXPECT_FALSE(request.BuildGraph().ok());
}

TEST(WireTest, PartialsMessagesRoundTripBitExactDistances) {
  PartialsRequest request;
  request.epoch = 42;
  request.x = 7;
  request.y = 19;
  request.depth = 5;
  request.sgids = {2, 3, 11};
  PartialsRequest got_request;
  ASSERT_TRUE(PartialsRequest::Decode(request.Encode(), &got_request).ok());
  EXPECT_EQ(got_request.epoch, 42u);
  EXPECT_EQ(got_request.x, 7u);
  EXPECT_EQ(got_request.y, 19u);
  EXPECT_EQ(got_request.depth, 5u);
  EXPECT_EQ(got_request.sgids, request.sgids);

  PartialsReply reply;
  SubgraphPartials list;
  list.sgid = 3;
  Path p1;
  p1.vertices = {7, 9, 19};
  p1.distance = 0.1 + 0.2;  // famously not 0.3: must survive bit-exactly
  Path p2;
  p2.vertices = {7, 19};
  p2.distance = 1.0 / 3.0;
  list.paths = {p1, p2};
  reply.lists = {list, {11, {}}};
  PartialsReply got_reply;
  ASSERT_TRUE(PartialsReply::Decode(reply.Encode(), &got_reply).ok());
  ASSERT_EQ(got_reply.lists.size(), 2u);
  EXPECT_EQ(got_reply.lists[0].sgid, 3u);
  ASSERT_EQ(got_reply.lists[0].paths.size(), 2u);
  EXPECT_EQ(got_reply.lists[0].paths[0].vertices, p1.vertices);
  EXPECT_EQ(got_reply.lists[0].paths[0].distance, p1.distance);
  EXPECT_EQ(got_reply.lists[0].paths[1].distance, p2.distance);
  EXPECT_EQ(got_reply.lists[1].sgid, 11u);
  EXPECT_TRUE(got_reply.lists[1].paths.empty());

  EXPECT_FALSE(PartialsReply::Decode("garbage", &got_reply).ok());
}

TEST(WireTest, EpochAndPingMessagesRoundTrip) {
  EpochPrepareRequest prepare;
  prepare.epoch = 9;
  prepare.updates = {{0, 1.5, 2.5}, {7, 3.25, 3.25}};
  EpochPrepareRequest got_prepare;
  ASSERT_TRUE(
      EpochPrepareRequest::Decode(prepare.Encode(), &got_prepare).ok());
  EXPECT_EQ(got_prepare.epoch, 9u);
  ASSERT_EQ(got_prepare.updates.size(), 2u);
  EXPECT_EQ(got_prepare.updates[0].edge, 0u);
  EXPECT_EQ(got_prepare.updates[0].new_forward, 1.5);
  EXPECT_EQ(got_prepare.updates[1].edge, 7u);
  EXPECT_EQ(got_prepare.updates[1].new_backward, 3.25);

  EpochPrepareReply prepared;
  prepared.epoch = 9;
  prepared.updates_applied = 13;
  prepared.subgraphs_touched = 4;
  EpochPrepareReply got_prepared;
  ASSERT_TRUE(
      EpochPrepareReply::Decode(prepared.Encode(), &got_prepared).ok());
  EXPECT_EQ(got_prepared.updates_applied, 13u);
  EXPECT_EQ(got_prepared.subgraphs_touched, 4u);

  PingRequest ping;
  ping.nonce = 77;
  PingRequest got_ping;
  ASSERT_TRUE(PingRequest::Decode(ping.Encode(), &got_ping).ok());
  EXPECT_EQ(got_ping.nonce, 77u);

  PingReply pong;
  pong.nonce = 77;
  pong.epoch = 3;
  pong.shard_id = 1;
  pong.replica_id = 2;
  // The metrics blob is opaque at this layer but must survive the trip:
  // encode a real worker-style snapshot and decode it back on the far side.
  MetricsRegistry worker_registry;
  worker_registry.GetCounter("worker_pings_total").Increment(5);
  worker_registry.GetGauge("worker_epoch").Set(3);
  pong.metrics_blob = worker_registry.Snapshot().EncodeWire();
  PingReply got_pong;
  ASSERT_TRUE(PingReply::Decode(pong.Encode(), &got_pong).ok());
  EXPECT_EQ(got_pong.nonce, 77u);
  EXPECT_EQ(got_pong.epoch, 3u);
  EXPECT_EQ(got_pong.shard_id, 1u);
  EXPECT_EQ(got_pong.replica_id, 2u);
  MetricsSnapshot carried;
  ASSERT_TRUE(
      MetricsSnapshot::DecodeWire(got_pong.metrics_blob, &carried).ok());
  EXPECT_EQ(carried.CounterTotal("worker_pings_total"), 5u);
  EXPECT_EQ(carried.GaugeSampleCount("worker_epoch"), 1u);

  // A worker that exports no metrics sends an empty blob; that must
  // round-trip too (older replies are exactly this shape).
  PingReply bare;
  bare.nonce = 78;
  PingReply got_bare;
  ASSERT_TRUE(PingReply::Decode(bare.Encode(), &got_bare).ok());
  EXPECT_EQ(got_bare.nonce, 78u);
  EXPECT_TRUE(got_bare.metrics_blob.empty());

  LoadGraphReply loaded;
  loaded.subgraphs_owned = 5;
  loaded.vertices_owned = 40;
  LoadGraphReply got_loaded;
  ASSERT_TRUE(LoadGraphReply::Decode(loaded.Encode(), &got_loaded).ok());
  EXPECT_EQ(got_loaded.subgraphs_owned, 5u);
  EXPECT_EQ(got_loaded.vertices_owned, 40u);
}

TEST(WireTest, ErrorReplyCarriesEveryStatusCode) {
  const Status statuses[] = {
      Status::InvalidArgument("a"), Status::NotFound("b"),
      Status::OutOfRange("c"),      Status::FailedPrecondition("d"),
      Status::Internal("e"),        Status::IOError("f"),
      Status::Unavailable("g"),     Status::DeadlineExceeded("h"),
      Status::ResourceExhausted("i"),
  };
  for (const Status& status : statuses) {
    ErrorReply reply = ErrorReply::FromStatus(status);
    ErrorReply decoded;
    ASSERT_TRUE(ErrorReply::Decode(reply.Encode(), &decoded).ok());
    Status got = decoded.ToStatus();
    EXPECT_EQ(got.code(), status.code());
    EXPECT_EQ(got.message(), status.message());
  }
  // Unknown code bytes are rejected, not mapped to something arbitrary.
  WireWriter writer;
  writer.U8(200);
  writer.Str("bogus");
  ErrorReply decoded;
  EXPECT_FALSE(ErrorReply::Decode(writer.Take(), &decoded).ok());
}

// ---------------------------------------------------------------------------
// Client/server behaviour.
// ---------------------------------------------------------------------------

TEST(RpcClientServerTest, EchoRoundTripAndErrorReplies) {
  std::string path = TestSocketPath("echo");
  Result<std::unique_ptr<RpcServer>> server = RpcServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::thread serving([&] {
    RpcServer::Handler handler =
        [](MessageType type, const std::string& payload,
           MessageType* reply_type, std::string* reply_payload,
           bool* shutdown) -> Status {
      switch (type) {
        case MessageType::kPingRequest:
          *reply_type = MessageType::kPingReply;
          *reply_payload = payload;  // echo
          return Status::OK();
        case MessageType::kPartialsRequest:
          return Status::FailedPrecondition("not loaded");
        case MessageType::kShutdownRequest:
          *reply_type = MessageType::kShutdownReply;
          *shutdown = true;
          return Status::OK();
        default:
          return Status::InvalidArgument("unexpected type");
      }
    };
    Status served = server.value()->Serve(handler, /*idle_timeout_ms=*/10000);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  RpcClientOptions options;
  options.deadline_ms = 2000;
  RpcClient client(path, options);

  PingRequest ping;
  ping.nonce = 123;
  std::string reply_payload;
  Status called = client.Call(MessageType::kPingRequest, ping.Encode(),
                              MessageType::kPingReply, &reply_payload);
  ASSERT_TRUE(called.ok()) << called.ToString();
  PingRequest echoed;
  ASSERT_TRUE(PingRequest::Decode(reply_payload, &echoed).ok());
  EXPECT_EQ(echoed.nonce, 123u);

  // A handler rejection travels back as an ErrorReply and surfaces as the
  // carried Status — and is NOT retried (one call, whatever the budget).
  uint64_t calls_before = client.calls();
  Status rejected =
      client.Call(MessageType::kPartialsRequest, "",
                  MessageType::kPartialsReply, &reply_payload);
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.calls(), calls_before + 1);
  EXPECT_EQ(client.retries(), 0u);

  Status shutdown = client.Call(MessageType::kShutdownRequest, "",
                                MessageType::kShutdownReply, &reply_payload);
  EXPECT_TRUE(shutdown.ok()) << shutdown.ToString();
  serving.join();
}

TEST(RpcClientServerTest, IdleTimeoutReturnsDeadlineExceeded) {
  std::string path = TestSocketPath("idle");
  Result<std::unique_ptr<RpcServer>> server = RpcServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  RpcServer::Handler handler =
      [](MessageType, const std::string&, MessageType*, std::string*,
         bool*) -> Status { return Status::OK(); };
  // No client ever connects: the orphan guard fires.
  Status served = server.value()->Serve(handler, /*idle_timeout_ms=*/50);
  EXPECT_EQ(served.code(), StatusCode::kDeadlineExceeded);
}

// The deadline test the fault model rests on: a peer that accepts the
// connection (full listen backlog) but never reads or replies must cost the
// caller exactly its deadline budget, never a hang.
TEST(RpcClientServerTest, StalledServerYieldsDeadlineExceeded) {
  std::string path = TestSocketPath("stalled");
  int listener = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  unlink(path.c_str());
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 4), 0);
  // Deliberately never accept(): the connect succeeds into the backlog, the
  // request is buffered by the kernel, and no reply ever arrives.

  RpcClientOptions options;
  options.deadline_ms = 150;
  options.max_retries = 1;
  options.backoff_ms = 5;
  RpcClient client(path, options);
  PingRequest ping;
  ping.nonce = 1;
  std::string reply_payload;
  auto start = std::chrono::steady_clock::now();
  Status called = client.Call(MessageType::kPingRequest, ping.Encode(),
                              MessageType::kPingReply, &reply_payload);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_EQ(called.code(), StatusCode::kDeadlineExceeded) << called.ToString();
  EXPECT_EQ(client.deadline_expired(), 2u);  // first attempt + one retry
  EXPECT_EQ(client.retries(), 1u);
  // Bounded: two attempts + backoff, with generous slack for slow machines.
  EXPECT_LT(elapsed, 5000);
  close(listener);
  unlink(path.c_str());
}

// The client's transport counters are strictly monotonic over the life of
// the object: Disconnect/reconnect cycles never reset them. The registry
// callbacks that export these (rpc_calls_total and friends) — and any
// rate computed from two scrapes — depend on a counter never going
// backwards.
TEST(RpcClientServerTest, CountersStayMonotonicAcrossReconnects) {
  std::string path = TestSocketPath("monotonic");
  Result<std::unique_ptr<RpcServer>> server = RpcServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::thread serving([&] {
    RpcServer::Handler handler =
        [](MessageType type, const std::string& payload,
           MessageType* reply_type, std::string* reply_payload,
           bool* shutdown) -> Status {
      if (type == MessageType::kShutdownRequest) {
        *reply_type = MessageType::kShutdownReply;
        *shutdown = true;
        return Status::OK();
      }
      *reply_type = MessageType::kPingReply;
      *reply_payload = payload;  // echo
      return Status::OK();
    };
    Status served = server.value()->Serve(handler, /*idle_timeout_ms=*/10000);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  RpcClientOptions options;
  options.deadline_ms = 2000;
  RpcClient client(path, options);
  uint64_t last_calls = 0;
  uint64_t last_sent = 0;
  uint64_t last_received = 0;
  for (int round = 0; round < 3; ++round) {
    PingRequest ping;
    ping.nonce = static_cast<uint64_t>(round);
    std::string reply_payload;
    Status called = client.Call(MessageType::kPingRequest, ping.Encode(),
                                MessageType::kPingReply, &reply_payload);
    ASSERT_TRUE(called.ok()) << "round " << round << ": " << called.ToString();
    EXPECT_GT(client.calls(), last_calls) << round;
    EXPECT_GT(client.bytes_sent(), last_sent) << round;
    EXPECT_GT(client.bytes_received(), last_received) << round;
    last_calls = client.calls();
    last_sent = client.bytes_sent();
    last_received = client.bytes_received();
    // Tear the transport down; the next round reconnects. The counters
    // must carry forward, never restart from zero.
    client.Disconnect();
    EXPECT_EQ(client.calls(), last_calls) << round;
    EXPECT_EQ(client.bytes_sent(), last_sent) << round;
    EXPECT_EQ(client.bytes_received(), last_received) << round;
  }
  EXPECT_EQ(client.calls(), 3u);
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_EQ(client.deadline_expired(), 0u);

  std::string reply_payload;
  EXPECT_TRUE(client
                  .Call(MessageType::kShutdownRequest, "",
                        MessageType::kShutdownReply, &reply_payload)
                  .ok());
  serving.join();
}

TEST(RpcClientServerTest, ConnectToMissingSocketIsBoundedAndUnavailable) {
  RpcClientOptions options;
  options.deadline_ms = 100;
  options.max_retries = 0;
  RpcClient client(TestSocketPath("nonexistent"), options);
  std::string reply_payload;
  Status called = client.Call(MessageType::kPingRequest, PingRequest{}.Encode(),
                              MessageType::kPingReply, &reply_payload);
  EXPECT_FALSE(called.ok());
  EXPECT_TRUE(called.code() == StatusCode::kUnavailable ||
              called.code() == StatusCode::kDeadlineExceeded)
      << called.ToString();
}

}  // namespace
}  // namespace kspdg
