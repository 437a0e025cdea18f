// The pipelined service loop (service::Service): out-of-order v2 completion
// (a slow compare ahead of K fast simulates must not delay their replies),
// per-connection backpressure at --max-inflight, strict v1 compatibility on
// the same server, malformed v2 frames, frames over the byte limit and
// oversized synthetic targets answered without killing the stream, targets
// that name no registry model refused on every path without a file being
// read, an `end` with stray spaces ending its frame and not the next one,
// --record/--replay fidelity for pipelined traffic (ids preserved, replay
// deterministic and byte-identical), and the loop over a real loopback
// socket (TCP_NODELAY on both ends, no delayed-ACK stall on large replies;
// cache hits answered on the reading thread at depth 8, byte for byte,
// ahead of a slow miss and past a half-sent frame).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "api/wire.hpp"
#include "service/service.hpp"
#include "service/tcp.hpp"

namespace spivar {
namespace {

namespace fs = std::filesystem;

/// A per-test scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("spivar_serve_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] fs::path path() const { return path_; }

 private:
  fs::path path_;
};

api::AnyRequest simulate_envelope(const std::string& target, std::uint64_t seed = 1) {
  api::SimulateRequest simulate;
  simulate.options.seed = seed;
  api::AnyRequest envelope;
  envelope.payload = simulate;
  envelope.target = target;
  return envelope;
}

/// A deterministically slow request: all-orders strategy comparison on a
/// corpus-minted model whose decision space takes ~40 ms — two orders of
/// magnitude above a fig1 simulate, so completion-order assertions cannot
/// flake on scheduler jitter.
api::AnyRequest slow_compare_envelope() {
  api::CompareRequest compare;
  compare.all_orders = true;
  api::AnyRequest envelope;
  envelope.payload = compare;
  envelope.target = "sweep/i3v3c2-s1";
  return envelope;
}

/// Splits a reply stream back into frames and pairs each with its v2 frame
/// id (nullopt = an untagged v1 reply).
std::vector<std::pair<std::optional<std::uint64_t>, std::string>> parse_replies(
    const std::string& stream) {
  std::istringstream in{stream};
  std::vector<std::pair<std::optional<std::uint64_t>, std::string>> replies;
  while (const auto frame = api::wire::read_frame(in)) {
    replies.emplace_back(api::wire::response_frame_id(*frame), *frame);
  }
  return replies;
}

// --- out-of-order completion -------------------------------------------------

TEST(PipelinedServe, SlowCompareAheadDoesNotDelaySimulateReplies) {
  service::Service svc{{.jobs = 2}};

  // Frame 1 is the slow compare; frames 2..5 are fast simulates queued
  // behind it on the wire. Pipelining means the simulates' replies stream
  // back while the compare is still evaluating: the time to every simulate
  // reply is bounded by the simulates themselves, not the compare. The
  // reply order proves it — all four simulate replies precede the compare's.
  std::string input = api::wire::encode(slow_compare_envelope(), 1);
  for (std::uint64_t id = 2; id <= 5; ++id) {
    input += api::wire::encode(simulate_envelope("fig1", id), id);
  }
  std::istringstream in{input};
  std::ostringstream out;
  const service::StreamStats stats = svc.serve_stream(in, out);

  EXPECT_EQ(stats.frames, 5u);
  EXPECT_EQ(stats.pipelined, 5u);

  const auto replies = parse_replies(out.str());
  ASSERT_EQ(replies.size(), 5u);
  std::vector<std::uint64_t> order;
  for (const auto& [id, frame] : replies) {
    ASSERT_TRUE(id.has_value()) << frame;
    order.push_back(*id);
    EXPECT_TRUE(api::wire::decode_response(frame).ok()) << frame;
  }
  // Every id answered exactly once...
  std::vector<std::uint64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  // ...and the slow compare's reply comes last: the fast replies overtook it.
  EXPECT_EQ(order.back(), 1u) << "compare reply did not arrive last";
}

// --- backpressure ------------------------------------------------------------

TEST(PipelinedServe, BackpressureEngagesAtMaxInflight) {
  service::Service svc{{.jobs = 2, .max_inflight = 1}};

  std::string input;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    input += api::wire::encode(simulate_envelope("fig1", id), id);
  }
  std::istringstream in{input};
  std::ostringstream out;
  const service::StreamStats stats = svc.serve_stream(in, out);

  // The reader had frames 2..4 ready while slot 1 was still evaluating: it
  // must have stalled (stopped consuming the stream) before each submit.
  EXPECT_EQ(stats.pipelined, 4u);
  EXPECT_GE(stats.backpressure_waits, 1u);

  // max-inflight 1 degenerates to strict ordering — replies in request order.
  const auto replies = parse_replies(out.str());
  ASSERT_EQ(replies.size(), 4u);
  for (std::uint64_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].first, i + 1) << "reply " << i << " out of order";
  }
}

// --- v1 compatibility --------------------------------------------------------

TEST(PipelinedServe, V1ClientsKeepStrictArrivalOrder) {
  service::Service svc{{.jobs = 4}};

  // v1 frames on a pipelining-capable server: handled inline, answered in
  // arrival order, replies untagged — indistinguishable from protocol v1.
  std::string input;
  input += api::wire::encode(simulate_envelope("fig2", 1));
  input += api::wire::encode(simulate_envelope("fig1", 2));
  input += api::wire::control_frame("ping", {});
  std::istringstream in{input};
  std::ostringstream out;
  const service::StreamStats stats = svc.serve_stream(in, out);

  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.pipelined, 0u);
  EXPECT_EQ(stats.backpressure_waits, 0u);

  std::istringstream replies{out.str()};
  const auto first = api::wire::read_frame(replies);
  const auto second = api::wire::read_frame(replies);
  const auto third = api::wire::read_frame(replies);
  ASSERT_TRUE(first && second && third);
  EXPECT_EQ(first->rfind("response v1 ok simulate", 0), 0u) << *first;
  EXPECT_EQ(api::wire::response_frame_id(*first), std::nullopt);
  const auto fig2 = api::wire::decode_response(*first);
  ASSERT_TRUE(fig2.ok());
  EXPECT_TRUE(std::holds_alternative<api::SimulateResponse>(fig2.value()));
  EXPECT_EQ(api::wire::response_frame_id(*second), std::nullopt);
  EXPECT_EQ(api::wire::decode_info(*third).value(), "pong");
}

// --- malformed v2 frames -----------------------------------------------------

TEST(PipelinedServe, MalformedV2FramesAnswerWithoutKillingTheStream) {
  service::Service svc{{.jobs = 2}};

  std::string input;
  // Body error on line 2: decodable header, so the error reply carries the
  // frame id.
  input += "request v2 simulate 5\nfroznar 1\nend\n";
  // Unparseable frame id: still answered (untagged, like a v1 error) with
  // the header's line number.
  input += "request v2 simulate banana\nend\n";
  // And the connection is still alive for a well-formed frame.
  input += api::wire::encode(simulate_envelope("fig1", 1), 9);
  std::istringstream in{input};
  std::ostringstream out;
  const service::StreamStats stats = svc.serve_stream(in, out);

  EXPECT_EQ(stats.frames, 3u);
  const auto replies = parse_replies(out.str());
  ASSERT_EQ(replies.size(), 3u);

  const auto find_reply = [&](std::optional<std::uint64_t> id) -> const std::string& {
    for (const auto& [reply_id, frame] : replies) {
      if (reply_id == id) return frame;
    }
    static const std::string missing;
    ADD_FAILURE() << "no reply tagged " << (id ? std::to_string(*id) : "<none>");
    return missing;
  };

  const auto bad_body = api::wire::decode_response(find_reply(5));
  ASSERT_FALSE(bad_body.ok());
  EXPECT_TRUE(bad_body.diagnostics().has_code(api::diag::kWireError));
  EXPECT_NE(bad_body.error_summary().find("line 2"), std::string::npos);
  EXPECT_NE(bad_body.error_summary().find("froznar"), std::string::npos);

  const auto bad_id = api::wire::decode_response(find_reply(std::nullopt));
  ASSERT_FALSE(bad_id.ok());
  EXPECT_NE(bad_id.error_summary().find("line 1"), std::string::npos);

  EXPECT_TRUE(api::wire::decode_response(find_reply(9)).ok());
}

TEST(PipelinedServe, OversizedSyntheticTargetsAnswerATypedErrorAndTheStreamLivesOn) {
  service::Service svc{{.jobs = 2}};

  // 2^9 applications, past the cap of 2^8: refused while the target parses,
  // by name and by `--opt` knobs alike, and the next frame is still served.
  std::string input = api::wire::encode(simulate_envelope("sweep/i9v2c1-s1"), 1);
  api::AnyRequest tuned = simulate_envelope("synthetic");
  tuned.target_options = {"interfaces=9", "cluster_size=1"};
  input += api::wire::encode(tuned, 2);
  input += api::wire::encode(simulate_envelope("fig1"), 3);
  std::istringstream in{input};
  std::ostringstream out;
  EXPECT_EQ(svc.serve_stream(in, out).frames, 3u);

  const auto replies = parse_replies(out.str());
  ASSERT_EQ(replies.size(), 3u) << out.str();
  for (const auto& [id, frame] : replies) {
    ASSERT_TRUE(id.has_value()) << frame;
    const auto reply = api::wire::decode_response(frame);
    if (*id == 3) {
      EXPECT_TRUE(reply.ok()) << frame;
      continue;
    }
    ASSERT_FALSE(reply.ok()) << frame;
    EXPECT_TRUE(reply.diagnostics().has_code(*id == 1 ? api::diag::kUnknownBuiltin
                                                      : api::diag::kBadOption))
        << frame;
    EXPECT_NE(reply.error_summary().find("over the limit of 256"), std::string::npos) << frame;
  }
}

TEST(PipelinedServe, FramesOverTheByteLimitAnswerATypedErrorAndTheStreamLivesOn) {
  const TempDir dir;
  const std::string log_path = (dir.path() / "requests.log").string();
  service::Service svc{{.jobs = 2, .record = log_path}};

  // A v1 frame over the limit, a v2 frame over it, a header line over it on
  // its own, a frame that fits, and last one endless line: no newline
  // before the stream ends.
  const std::string padding(service::kMaxFrameBytes, 'x');
  std::string input = "request v1 simulate\ntarget \"fig1\"\n" + padding + "\nend\n";
  input += "request v2 simulate 4\ntarget \"fig1\"\n" + padding + "\nend\n";
  input += "request v2 simulate 5 " + padding + "\nend\n";
  input += api::wire::encode(simulate_envelope("fig1"), 6);
  input += padding + padding;
  std::istringstream in{input};
  std::ostringstream out;
  EXPECT_EQ(svc.serve_stream(in, out).frames, 5u);

  // One reply per frame. Each over-limit one names the limit; only the v2
  // frame whose header fitted keeps its id.
  const auto expect_over_limit = [](const std::string& frame) {
    const auto reply = api::wire::decode_response(frame);
    ASSERT_FALSE(reply.ok()) << frame;
    EXPECT_TRUE(reply.diagnostics().has_code(api::diag::kWireError)) << frame;
    EXPECT_NE(reply.error_summary().find("limit of " + std::to_string(service::kMaxFrameBytes) +
                                         " bytes"),
              std::string::npos)
        << frame;
  };
  std::vector<std::string> untagged;
  std::map<std::uint64_t, std::string> tagged;
  for (const auto& [id, frame] : parse_replies(out.str())) {
    if (id.has_value()) {
      tagged[*id] = frame;
    } else {
      untagged.push_back(frame);
    }
  }
  ASSERT_EQ(untagged.size(), 3u) << out.str();
  for (const std::string& frame : untagged) expect_over_limit(frame);
  ASSERT_EQ(tagged.size(), 2u) << out.str();
  expect_over_limit(tagged[4]);
  EXPECT_TRUE(api::wire::decode_response(tagged[6]).ok()) << tagged[6];

  // Nothing over the limit reached the request log.
  std::ifstream recorded{log_path};
  std::vector<std::string> logged;
  while (const auto frame = api::wire::read_frame(recorded)) logged.push_back(*frame);
  EXPECT_EQ(logged, std::vector<std::string>{api::wire::encode(simulate_envelope("fig1"), 6)});
}

// --- the service loads registry models only ----------------------------------

TEST(PipelinedServe, TargetsNamingNoRegistryModelAreRefusedWithoutReadingAFile) {
  // A file holding a sentinel line, and a valid .spit model named by the
  // same sentinel. Opened as a target, the first comes back in a parse
  // error and the second loads and answers under its name.
  const TempDir dir;
  const std::string sentinel = "SENTINEL-4f9c2e";
  const std::string secret = (dir.path() / "secret.txt").string();
  std::ofstream{secret} << sentinel << "\n";
  const std::string model = (dir.path() / "model.spit").string();
  {
    api::Session source;
    const auto fig1 = source.load(api::ModelSpec{"fig1"});
    const auto named =
        source.load(api::ModelText{source.write_text(fig1.value().id).value(), sentinel});
    std::ofstream{model} << source.write_text(named.value().id).value();
  }
  const auto expect_refused = [&](const std::string& frame) {
    EXPECT_EQ(frame.find(sentinel), std::string::npos) << frame;
    const auto reply = api::wire::decode_response(frame);
    EXPECT_FALSE(reply.ok()) << frame;
    EXPECT_TRUE(reply.diagnostics().has_code(api::diag::kUnknownBuiltin)) << frame;
  };
  const auto expect_answered = [](const std::string& frame) {
    EXPECT_TRUE(api::wire::decode_response(frame).ok()) << frame;
  };

  // A v1 frame, a v2 frame and `control load`, each followed by a
  // registry-named frame on the same stream.
  service::Service svc{{.jobs = 2}};
  for (const std::string& target : {secret, model}) {
    std::string input = api::wire::encode(simulate_envelope(target)) +
                        api::wire::encode(simulate_envelope("fig1")) +
                        api::wire::encode(simulate_envelope(target), 1) +
                        api::wire::encode(simulate_envelope("fig1"), 2);
    input += api::wire::control_frame("load", {target}) +
             api::wire::control_frame("load", {"fig1"});
    std::istringstream in{input};
    std::ostringstream out;
    svc.serve_stream(in, out);

    std::vector<std::string> v1;
    std::map<std::uint64_t, std::string> v2;
    for (const auto& [id, frame] : parse_replies(out.str())) {
      if (id.has_value()) {
        v2[*id] = frame;
      } else {
        v1.push_back(frame);
      }
    }
    ASSERT_EQ(v1.size(), 4u) << out.str();
    expect_refused(v1[0]);
    expect_answered(v1[1]);
    expect_refused(v1[2]);
    EXPECT_TRUE(api::wire::decode_info(v1[3]).ok()) << v1[3];
    ASSERT_EQ(v2.size(), 2u) << out.str();
    expect_refused(v2[1]);
    expect_answered(v2[2]);
  }

  // A replay evaluates in arrival order through the same loop.
  {
    std::istringstream in{api::wire::encode(simulate_envelope(model), 1) +
                          api::wire::encode(simulate_envelope(secret), 2) +
                          api::wire::encode(simulate_envelope("fig1"), 3)};
    std::ostringstream out;
    svc.serve_stream(in, out, service::Service::StreamMode::kOrdered);
    const auto replies = parse_replies(out.str());
    ASSERT_EQ(replies.size(), 3u) << out.str();
    expect_refused(replies[0].second);
    expect_refused(replies[1].second);
    expect_answered(replies[2].second);
  }
  std::vector<std::string> names;
  for (const api::ModelInfo& info : svc.session().models()) names.push_back(info.name);
  EXPECT_EQ(names, std::vector<std::string>{"fig1"});

  // --warm discards its replies: nothing but the registry model is loaded.
  service::Service warmed{{.jobs = 2}};
  std::istringstream log{api::wire::encode(simulate_envelope(model)) +
                         api::wire::encode(simulate_envelope(secret), 1) +
                         api::wire::control_frame("load", {model}) +
                         api::wire::encode(simulate_envelope("fig1"), 2)};
  warmed.warm(log);
  names.clear();
  for (const api::ModelInfo& info : warmed.session().models()) names.push_back(info.name);
  EXPECT_EQ(names, std::vector<std::string>{"fig1"});
}

TEST(PipelinedServe, TerminatorWithStraySpacesEndsItsFrame) {
  service::Service svc{{.jobs = 2}};

  // `end ` reads as `end` to the decoder, so it must end the frame for the
  // reader too: frame 2 is its own request, not content after frame 1.
  std::istringstream in{
      "request v2 simulate 1\ntarget \"fig1\"\nend \n\n"
      "request v2 analyze 2\ntarget \"fig2\"\nend\n"};
  std::ostringstream out;
  const service::StreamStats stats = svc.serve_stream(in, out);

  EXPECT_EQ(stats.frames, 2u);
  const auto replies = parse_replies(out.str());
  ASSERT_EQ(replies.size(), 2u) << out.str();
  for (const auto& [id, frame] : replies) {
    ASSERT_TRUE(id.has_value()) << frame;
    EXPECT_TRUE(api::wire::decode_response(frame).ok()) << frame;
  }
}

// --- record / replay for pipelined traffic -----------------------------------

TEST(PipelinedServe, RecordedV2TrafficReplaysInSubmissionOrderWithIds) {
  TempDir dir;
  const std::string log_path = (dir.path() / "requests.log").string();

  std::string input;
  api::AnyRequest compare;
  compare.payload = api::CompareRequest{};
  compare.target = "fig2";
  input += api::wire::encode(compare, 1);
  for (std::uint64_t id = 2; id <= 4; ++id) {
    input += api::wire::encode(simulate_envelope("fig1", id), id);
  }
  {
    service::Service svc{{.jobs = 2, .record = log_path}};
    std::istringstream in{input};
    std::ostringstream out;
    svc.serve_stream(in, out);
    EXPECT_EQ(parse_replies(out.str()).size(), 4u);
  }

  // The log holds the whole v2 frames — ids included — in the order the
  // reader pulled them off the stream (the submission order), regardless of
  // the order their replies completed.
  std::ifstream recorded{log_path};
  std::vector<std::uint64_t> logged;
  while (const auto frame = api::wire::read_frame(recorded)) {
    const auto id = api::wire::peek_head(*frame).request_id;
    ASSERT_TRUE(id.has_value()) << *frame;
    logged.push_back(*id);
  }
  EXPECT_EQ(logged, (std::vector<std::uint64_t>{1, 2, 3, 4}));

  // Replay (ordered mode) answers one frame at a time in recorded order,
  // replies still tagged — and is deterministic: two replays byte-match.
  const auto replay = [&] {
    service::Service svc{{.jobs = 2}};
    std::ifstream log{log_path};
    std::ostringstream out;
    svc.serve_stream(log, out, service::Service::StreamMode::kOrdered);
    return out.str();
  };
  const std::string first = replay();
  const auto replies = parse_replies(first);
  ASSERT_EQ(replies.size(), 4u);
  for (std::uint64_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].first, i + 1) << "replay reply " << i << " out of order";
    EXPECT_TRUE(api::wire::decode_response(replies[i].second).ok());
  }
  EXPECT_EQ(replay(), first);
}

// --- real sockets ------------------------------------------------------------

bool no_delay(const service::Socket& sock) {
  int flag = 0;
  socklen_t len = sizeof(flag);
  return ::getsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &flag, &len) == 0 && flag != 0;
}

TEST(PipelinedServe, LoopbackRepliesOverThePutAreaDoNotWaitForDelayedAcks) {
  // The cache answers every timed round trip, so what is timed is the
  // socket path and not the evaluation (slow under a sanitizer).
  service::Service svc{{.jobs = 2, .cache = 64}};
  service::Socket listener = service::listen_loopback(0);
  ASSERT_TRUE(listener.valid());
  const std::uint16_t port = service::bound_port(listener);

  // The server side exactly as spivar_serve runs a connection: accept, one
  // FdStreamBuf under separate istream/ostream, serve_stream to EOF.
  std::atomic<bool> server_no_delay{false};
  std::thread server{[&] {
    service::Socket connection = service::accept_client(listener);
    if (!connection.valid()) return;
    server_no_delay = no_delay(connection);
    service::FdStreamBuf buffer{connection.fd()};
    std::istream in{&buffer};
    std::ostream out{&buffer};
    svc.serve_stream(in, out);
  }};

  service::Socket client = service::connect_to({"127.0.0.1", port});
  if (!client.valid()) {
    ::shutdown(listener.fd(), SHUT_RDWR);  // unblocks the pending accept
    server.join();
    FAIL() << "cannot connect to 127.0.0.1:" << port;
  }
  EXPECT_TRUE(no_delay(client));
  service::FdStreamBuf buffer{client.fd()};
  std::istream in{&buffer};
  std::ostream out{&buffer};

  // Depth-1 round trips of a compare whose reply (~5.6 KB) is larger than
  // the 4096-byte put area, so the server writes it in two pieces. With
  // Nagle on, the second piece waits for the client's delayed ACK (~40 ms)
  // on every round trip after the first, which evaluates and is untimed.
  api::AnyRequest compare;
  compare.payload = api::CompareRequest{};
  compare.target = "sweep/i2v2c2-s7";
  std::vector<double> round_trip_ms;
  for (std::uint64_t id = 1; id <= 11; ++id) {
    const auto start = std::chrono::steady_clock::now();
    out << api::wire::encode(compare, id) << std::flush;
    const auto reply = api::wire::read_frame(in);
    const auto stop = std::chrono::steady_clock::now();
    if (!reply) {
      ADD_FAILURE() << "connection closed before reply " << id;
      break;
    }
    EXPECT_EQ(api::wire::response_frame_id(*reply), id);
    EXPECT_GT(reply->size(), 4096u) << "the reply must span more than one put area";
    if (id > 1) {
      round_trip_ms.push_back(std::chrono::duration<double, std::milli>(stop - start).count());
    }
  }
  ::shutdown(client.fd(), SHUT_WR);  // EOF: serve_stream drains and returns
  server.join();

  EXPECT_TRUE(server_no_delay.load());
  ASSERT_EQ(round_trip_ms.size(), 10u);
  std::sort(round_trip_ms.begin(), round_trip_ms.end());
  const double median = (round_trip_ms[4] + round_trip_ms[5]) / 2.0;
  EXPECT_LT(median, 20.0) << "median depth-1 round trip " << median << " ms";
}

// --- cache hits on the reading thread, over real sockets ---------------------

/// One client connection with a receive timeout: a reply that never comes
/// reads as end of stream after kReplyTimeoutS instead of hanging the test.
struct LoopbackClient {
  static constexpr int kReplyTimeoutS = 20;

  explicit LoopbackClient(std::uint16_t port)
      : socket(service::connect_to({"127.0.0.1", port})),
        buffer(socket.fd()),
        in(&buffer),
        out(&buffer) {
    const timeval timeout{.tv_sec = kReplyTimeoutS, .tv_usec = 0};
    ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }

  service::Socket socket;
  service::FdStreamBuf buffer;
  std::istream in;
  std::ostream out;
};

TEST(PipelinedServe, LoopbackDepth8AnswersHitsOnTheReaderByteForByte) {
  service::Service svc{{.jobs = 2, .cache = 256}};
  service::Socket listener = service::listen_loopback(0);
  ASSERT_TRUE(listener.valid());
  const std::uint16_t port = service::bound_port(listener);

  // Two connections, each served exactly as spivar_serve serves one.
  std::vector<std::thread> connections;
  std::thread acceptor{[&] {
    for (int i = 0; i < 2; ++i) {
      service::Socket connection = service::accept_client(listener);
      if (!connection.valid()) return;
      connections.emplace_back([&svc, connection = std::move(connection)] {
        service::FdStreamBuf buffer{connection.fd()};
        std::istream in{&buffer};
        std::ostream out{&buffer};
        svc.serve_stream(in, out);
      });
    }
  }};
  LoopbackClient a{port};
  LoopbackClient b{port};
  if (!a.socket.valid() || !b.socket.valid()) {
    ::shutdown(listener.fd(), SHUT_RDWR);  // unblocks a pending accept
  }
  acceptor.join();
  // However the checks below end, half-close both clients (each server
  // loop then drains and returns) and join the connection threads.
  class Joiner {
   public:
    Joiner(std::vector<int> fds, std::vector<std::thread>& threads)
        : fds_(std::move(fds)), threads_(threads) {}
    ~Joiner() {
      for (const int fd : fds_) ::shutdown(fd, SHUT_WR);
      for (std::thread& thread : threads_) thread.join();
    }
    Joiner(const Joiner&) = delete;
    Joiner& operator=(const Joiner&) = delete;

   private:
    std::vector<int> fds_;
    std::vector<std::thread>& threads_;
  } joiner{{a.socket.fd(), b.socket.fd()}, connections};
  ASSERT_EQ(connections.size(), 2u) << "cannot connect to 127.0.0.1:" << port;

  // The oracle: every reply equals the encoding of an in-process call.
  api::Session reference;
  const auto expected = [&](const api::AnyRequest& request, std::uint64_t id) {
    return api::wire::encode(reference.call(request), id);
  };
  std::vector<api::AnyRequest> cached;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) cached.push_back(simulate_envelope("fig1", seed));
  api::AnyRequest analyze;
  analyze.payload = api::AnalyzeRequest{};
  analyze.target = "fig2";
  cached.push_back(analyze);
  std::vector<api::Result<api::AnyResponse>> cached_results;
  for (const api::AnyRequest& request : cached) cached_results.push_back(reference.call(request));
  const auto cached_reply = [&](std::size_t index, std::uint64_t id) {
    return api::wire::encode(cached_results.at(index), id);
  };

  // Reads `count` replies, keyed by frame id, in arrival order.
  const auto read_replies = [](LoopbackClient& client, std::size_t count) {
    std::vector<std::pair<std::uint64_t, std::string>> replies;
    for (std::size_t i = 0; i < count; ++i) {
      std::optional<std::string> frame = api::wire::read_frame(client.in);
      if (!frame) break;
      replies.emplace_back(api::wire::response_frame_id(*frame).value_or(0), std::move(*frame));
    }
    return replies;
  };

  // Warm-up: the seven cached keys evaluate once (memory-tier misses).
  {
    std::string warm;
    for (std::size_t i = 0; i < cached.size(); ++i) warm += api::wire::encode(cached[i], 100 + i);
    a.out << warm << std::flush;
    for (const auto& [id, frame] : read_replies(a, cached.size())) {
      EXPECT_EQ(frame, cached_reply(id - 100, id));
    }
  }

  // Depth 8 on both connections at once: an uncached slow compare first,
  // then seven hits. Each hit is answered on its reader from the stored
  // frame, so all seven overtake the compare sent before them.
  std::vector<api::AnyRequest> compares;
  for (LoopbackClient* client : {&a, &b}) {
    api::AnyRequest compare = slow_compare_envelope();
    std::get<api::CompareRequest>(compare.payload).options.seed = compares.size() + 1;
    std::string burst = api::wire::encode(compare, 1);
    for (std::size_t i = 0; i < cached.size(); ++i) burst += api::wire::encode(cached[i], 2 + i);
    client->out << burst << std::flush;
    compares.push_back(std::move(compare));
  }
  for (std::size_t c = 0; c < 2; ++c) {
    LoopbackClient& client = c == 0 ? a : b;
    const auto replies = read_replies(client, 1 + cached.size());
    ASSERT_EQ(replies.size(), 1 + cached.size()) << "connection " << c;
    for (const auto& [id, frame] : replies) {
      EXPECT_EQ(frame, id == 1 ? expected(compares[c], 1) : cached_reply(id - 2, id))
          << "connection " << c << " reply " << id;
    }
    EXPECT_EQ(replies.back().first, 1u) << "connection " << c << ": a hit waited for the compare";
  }

  // A hit followed by half of the next frame: the reader blocks on the
  // missing half, and the hit's reply must not wait with it.
  {
    const std::string next = api::wire::encode(cached[1], 21);
    const std::size_t half = next.size() / 2;
    a.out << api::wire::encode(cached[0], 20) << next.substr(0, half) << std::flush;
    const auto first = read_replies(a, 1);
    ASSERT_EQ(first.size(), 1u) << "the hit's reply did not arrive within "
                                << LoopbackClient::kReplyTimeoutS << " s";
    EXPECT_EQ(first.front().second, cached_reply(0, 20));
    a.out << next.substr(half) << std::flush;
    const auto second = read_replies(a, 1);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second.front().second, cached_reply(1, 21));
  }

  // A burst, then a half-close: every reply still arrives (the held hits
  // and the evaluated miss alike), then the server closes the stream.
  {
    std::string burst;
    for (std::size_t i = 0; i < cached.size(); ++i) burst += api::wire::encode(cached[i], 30 + i);
    const api::AnyRequest miss = simulate_envelope("fig2", 77);
    burst += api::wire::encode(miss, 40);
    b.out << burst << std::flush;
    ::shutdown(b.socket.fd(), SHUT_WR);
    const auto replies = read_replies(b, cached.size() + 1);
    ASSERT_EQ(replies.size(), cached.size() + 1);
    for (const auto& [id, frame] : replies) {
      EXPECT_EQ(frame, id == 40 ? expected(miss, 40) : cached_reply(id - 30, id));
    }
    EXPECT_FALSE(api::wire::read_frame(b.in).has_value());
  }

  ::shutdown(a.socket.fd(), SHUT_WR);
  EXPECT_FALSE(api::wire::read_frame(a.in).has_value());
}

TEST(PipelinedServe, ShutdownReplyLeavesBeforeTheSocketsClose) {
  // spivar_serve's on_shutdown shuts every client socket down, the asking
  // one included: the reply (written on the reading thread, so held) must
  // be on the wire first, with any hits held ahead of it.
  service::Service svc{{.jobs = 2, .cache = 16}};
  service::Socket listener = service::listen_loopback(0);
  ASSERT_TRUE(listener.valid());
  const std::uint16_t port = service::bound_port(listener);
  std::thread server{[&] {
    service::Socket connection = service::accept_client(listener);
    if (!connection.valid()) return;
    svc.on_shutdown = [fd = connection.fd()] { ::shutdown(fd, SHUT_RDWR); };
    service::FdStreamBuf buffer{connection.fd()};
    std::istream in{&buffer};
    std::ostream out{&buffer};
    svc.serve_stream(in, out);
  }};
  LoopbackClient client{port};
  if (!client.socket.valid()) {
    ::shutdown(listener.fd(), SHUT_RDWR);
    server.join();
    FAIL() << "cannot connect to 127.0.0.1:" << port;
  }
  const api::AnyRequest request = simulate_envelope("fig1", 3);
  client.out << api::wire::encode(request, 1) << std::flush;
  const auto evaluated = api::wire::read_frame(client.in);  // a miss: now cached
  client.out << api::wire::encode(request, 2) << api::wire::control_frame("shutdown")
             << std::flush;
  const auto hit = api::wire::read_frame(client.in);
  const auto reply = api::wire::read_frame(client.in);
  server.join();

  ASSERT_TRUE(evaluated.has_value());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(api::wire::response_frame_id(*hit), 2u);
  EXPECT_EQ(hit->substr(hit->find('\n')), evaluated->substr(evaluated->find('\n')));
  ASSERT_TRUE(reply.has_value()) << "the shutdown reply was lost";
  EXPECT_EQ(api::wire::decode_info(*reply).value(), "shutting down");
}

}  // namespace
}  // namespace spivar
