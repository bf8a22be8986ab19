// End-to-end loopback tests for the network front end: a real NetServer
// on 127.0.0.1, driven by raw blocking client sockets. Covers keep-alive
// pipelining, slow-header (slowloris) and stalled-reader timeouts, a peer
// reset under backpressure, oversized-request rejection, graceful drain,
// robot-first shedding, and a partial-write / short-read torture pass
// with deliberately tiny socket buffers. Every count is read from the
// registry the server is built with.
#include "src/net/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "src/http/wire.h"
#include "src/net/loadgen.h"
#include "src/net/socket.h"
#include "src/proxy/proxy_server.h"
#include "src/site/site_model.h"
#include "src/util/hash.h"
#include "src/util/strings.h"
#include "tests/http/response_reader.h"

namespace robodet {
namespace {

void SleepMs(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

// A small client receive buffer makes the server meet write backpressure.
void SetRecvBufferBytes(int fd, int bytes) {
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

// Echo-style handler: "/bytes/N" returns an N-byte body, POSTs report the
// received body length, a "robot" User-Agent marks the connection for the
// shed policy.
NetHandler MakeEchoHandler() {
  return [](Request&& request) {
    ServedResponse served;
    served.response.status = StatusCode::kOk;
    served.response.headers.Set("Content-Type", "text/plain");
    const std::string& path = request.url.path();
    if (path.rfind("/bytes/", 0) == 0) {
      const auto n = ParseU64(std::string_view(path).substr(7));
      served.response.body.assign(static_cast<size_t>(n.value_or(1)), 'x');
    } else if (request.method == Method::kPost) {
      served.response.body = "len=" + std::to_string(request.body.size());
    } else {
      served.response.body = "hello " + path;
    }
    served.robot = request.UserAgent() == "robot";
    return served;
  };
}

// Minimal blocking client: sends raw bytes, frames responses off the
// stream (so pipelined responses on one connection work).
class TestClient {
 public:
  bool Connect(uint16_t port) {
    std::string error;
    auto fd = ConnectTcp("127.0.0.1", port, &error);
    if (!fd.has_value()) {
      ADD_FAILURE() << "connect failed: " << error;
      return false;
    }
    fd_ = std::move(*fd);
    buffer_.clear();
    return true;
  }

  bool Send(std::string_view data) {
    size_t off = 0;
    while (off < data.size()) {
      const IoResult wrote = WriteOnce(fd_.get(), data.data() + off, data.size() - off);
      if (wrote.n <= 0 && !wrote.would_block) {
        return false;
      }
      if (wrote.n > 0) {
        off += static_cast<size_t>(wrote.n);
      }
    }
    return true;
  }

  // Reads one complete response; nullopt on EOF/error mid-message or a
  // malformed response head.
  std::optional<Response> ReadResponse() {
    for (;;) {
      ResponseRead read = ReadResponseText(buffer_);
      if (!read.error.empty()) {
        ADD_FAILURE() << "bad response: " << read.error;
        return std::nullopt;
      }
      if (read.framed.has_value()) {
        buffer_.erase(0, read.framed->size);
        return std::move(read.framed->response);
      }
      if (!FillBuffer()) {
        return std::nullopt;
      }
    }
  }

  // True when the server closed the stream with no further bytes. A reset
  // counts: it still means "closed, nothing more coming" to this client.
  bool AtEof() {
    if (!buffer_.empty()) {
      return false;
    }
    char byte;
    const IoResult got = ReadOnce(fd_.get(), &byte, 1);
    if (got.n > 0) {
      buffer_.push_back(byte);
      return false;
    }
    return got.eof || got.error == ECONNRESET;
  }

  void Close() { fd_.reset(); }
  int fd() const { return fd_.get(); }

 private:
  bool FillBuffer() {
    char chunk[16 * 1024];
    const IoResult got = ReadOnce(fd_.get(), chunk, sizeof(chunk));
    if (got.n <= 0) {
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(got.n));
    return true;
  }

  ScopedFd fd_;
  std::string buffer_;
};

uint64_t NetCount(const MetricsRegistry& registry, std::string_view name,
                  const Labels& labels = {}) {
  return registry.Scrape().CounterValue(name, labels);
}

int64_t OpenConnections(const MetricsRegistry& registry) {
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* open = snapshot.Find("robodet_net_open_connections");
  return open != nullptr ? open->gauge : -1;
}

std::string SimpleGet(const std::string& path, const std::string& extra = "") {
  return "GET " + path + " HTTP/1.1\r\nHost: t\r\nUser-Agent: test\r\n" + extra + "\r\n";
}

TEST(LoopbackTest, ServesAndKeepsAlive) {
  NetServerConfig config;
  config.workers = 1;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Send(SimpleGet("/p" + std::to_string(i))));
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, StatusCode::kOk);
    EXPECT_EQ(response->body, "hello /p" + std::to_string(i));
    EXPECT_EQ(response->headers.Get("Connection").value_or(""), "keep-alive");
  }
  // Three requests, one connection.
  EXPECT_EQ(NetCount(registry, "robodet_net_accepted_total"), 1u);
  EXPECT_EQ(NetCount(registry, "robodet_net_requests_total"), 3u);
}

TEST(LoopbackTest, PipelinedBatchAnswersInOrder) {
  // Deeper than the per-wake bound (16) and sent in one write: no later
  // bytes arrive to wake the connection, so the server must resume the
  // leftovers itself instead of answering them with a 408 at read_timeout.
  constexpr int kDepth = 40;
  NetServerConfig config;
  config.workers = 1;
  config.limits.read_timeout = 1 * kSecond;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  std::string batch;
  for (int i = 0; i < kDepth; ++i) {
    batch += SimpleGet("/seq" + std::to_string(i));
  }
  ASSERT_TRUE(client.Send(batch));
  for (int i = 0; i < kDepth; ++i) {
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    EXPECT_EQ(response->body, "hello /seq" + std::to_string(i));
  }
  EXPECT_EQ(NetCount(registry, "robodet_net_accepted_total"), 1u);
}

TEST(LoopbackTest, ConnectionCloseHonored) {
  NetServerConfig config;
  config.workers = 1;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(SimpleGet("/bye", "Connection: close\r\n")));
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->headers.Get("Connection").value_or(""), "close");
  EXPECT_TRUE(client.AtEof());
}

TEST(LoopbackTest, Http10DefaultsToClose) {
  NetServerConfig config;
  config.workers = 1;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("GET /old HTTP/1.0\r\nHost: t\r\n\r\n"));
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->headers.Get("Connection").value_or(""), "close");
  EXPECT_TRUE(client.AtEof());
}

TEST(LoopbackTest, SlowHeadersTimeOutWith408) {
  NetServerConfig config;
  config.workers = 1;
  config.limits.read_timeout = 120;
  config.limits.idle_timeout = 10 * kSecond;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // A slowloris trickle: start a request, never finish the headers.
  ASSERT_TRUE(client.Send("GET /slow HTTP/1.1\r\nHost: t\r\nX-Trickle: a"));
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kRequestTimeout);
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(NetCount(registry, "robodet_net_timeouts_total", {{"kind", "read"}}), 1u);
}

TEST(LoopbackTest, IdleKeepAliveConnectionReaped) {
  NetServerConfig config;
  config.workers = 1;
  config.limits.idle_timeout = 150;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(SimpleGet("/once")));
  ASSERT_TRUE(client.ReadResponse().has_value());
  // Sit idle past the timeout; the server hangs up without a response.
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(NetCount(registry, "robodet_net_timeouts_total", {{"kind", "idle"}}), 1u);
}

TEST(LoopbackTest, OversizedHeaderBlockRejected431) {
  NetServerConfig config;
  config.workers = 1;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // A request line longer than any legal one, no newline in sight.
  ASSERT_TRUE(client.Send(std::string(kMaxWireLineBytes + 512, 'A')));
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kHeaderFieldsTooLarge);
  EXPECT_TRUE(client.AtEof());
}

TEST(LoopbackTest, OversizedDeclaredBodyRejected413) {
  NetServerConfig config;
  config.workers = 1;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("POST /upload HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                          std::to_string(kMaxWireBodyBytes + 1) + "\r\n\r\n"));
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kPayloadTooLarge);
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(NetCount(registry, "robodet_net_parse_errors_total"), 1u);
}

TEST(LoopbackTest, GarbageRequestRejected400) {
  NetServerConfig config;
  config.workers = 1;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("NOT A REQUEST AT ALL\r\n\r\n"));
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kBadRequest);
  EXPECT_TRUE(client.AtEof());
}

TEST(LoopbackTest, SpaceBeforeColonRejected400) {
  // RFC 9112 §5.1: a server must reject whitespace between a field name
  // and its colon. Trimming it would read a Content-Length that a
  // stricter hop ignores.
  NetServerConfig config;
  config.workers = 1;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("POST /upload HTTP/1.1\r\nHost: t\r\nContent-Length : 5\r\n\r\nabcde"));
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kBadRequest);
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(NetCount(registry, "robodet_net_parse_errors_total"), 1u);
  EXPECT_EQ(NetCount(registry, "robodet_net_requests_total"), 0u);
}

TEST(LoopbackTest, GracefulDrainCompletesInFlight) {
  // Handler slow enough that the drain lands while a request is in
  // flight on the worker thread.
  NetHandler slow = [](Request&& request) {
    SleepMs(150);
    ServedResponse served;
    served.response.status = StatusCode::kOk;
    served.response.body = "done " + request.url.path();
    return served;
  };
  NetServerConfig config;
  config.workers = 1;
  config.drain_timeout = 2 * kSecond;
  MetricsRegistry registry;
  NetServer server(config, std::move(slow), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(SimpleGet("/inflight")));
  SleepMs(40);  // Let the worker pick the request up.
  server.BeginDrain();
  // The in-flight request still gets its answer...
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "done /inflight");
  // ...and the connection closes afterwards.
  EXPECT_TRUE(client.AtEof());
  server.Wait();
  EXPECT_EQ(OpenConnections(registry), 0);
}

TEST(LoopbackTest, DrainClosesIdleConnectionsImmediately) {
  NetServerConfig config;
  config.workers = 1;
  config.drain_timeout = 2 * kSecond;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(SimpleGet("/warm")));
  ASSERT_TRUE(client.ReadResponse().has_value());

  server.BeginDrain();
  server.Wait();
  EXPECT_TRUE(client.AtEof());
}

TEST(LoopbackTest, RobotConnectionsShedFirstAtCapacity) {
  NetServerConfig config;
  config.workers = 1;
  config.max_connections = 2;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Fill the cap: one robot-flagged connection, one human.
  TestClient robot;
  ASSERT_TRUE(robot.Connect(server.port()));
  ASSERT_TRUE(robot.Send("GET /r HTTP/1.1\r\nHost: t\r\nUser-Agent: robot\r\n\r\n"));
  ASSERT_TRUE(robot.ReadResponse().has_value());

  TestClient human;
  ASSERT_TRUE(human.Connect(server.port()));
  ASSERT_TRUE(human.Send(SimpleGet("/h")));
  ASSERT_TRUE(human.ReadResponse().has_value());

  // A newcomer evicts the idle robot, not the human.
  TestClient newcomer;
  ASSERT_TRUE(newcomer.Connect(server.port()));
  ASSERT_TRUE(newcomer.Send(SimpleGet("/new")));
  const auto served = newcomer.ReadResponse();
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->status, StatusCode::kOk);
  EXPECT_TRUE(robot.AtEof());
  EXPECT_EQ(NetCount(registry, "robodet_net_shed_total", {{"mode", "evict"}}), 1u);

  // With only human connections left, the next newcomer gets a 503.
  TestClient rejected;
  ASSERT_TRUE(rejected.Connect(server.port()));
  ASSERT_TRUE(rejected.Send(SimpleGet("/late")));
  const auto refusal = rejected.ReadResponse();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->status, StatusCode::kServiceUnavailable);
  EXPECT_TRUE(rejected.AtEof());
  EXPECT_EQ(NetCount(registry, "robodet_net_shed_total", {{"mode", "reject"}}), 1u);
  // The human connection survived the whole episode.
  ASSERT_TRUE(human.Send(SimpleGet("/h2")));
  EXPECT_TRUE(human.ReadResponse().has_value());
}

TEST(LoopbackTest, PartialWriteTortureWithTinyBuffers) {
  // A tiny send buffer forces the server through the would-block /
  // EPOLLOUT / backpressure path on every response.
  NetServerConfig config;
  config.workers = 1;
  config.accepted_sndbuf = 4096;
  config.limits.write_high_water = 64 * 1024;
  config.limits.write_low_water = 16 * 1024;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  const size_t kBody = 512 * 1024;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(client.Send(SimpleGet("/bytes/" + std::to_string(kBody))));
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.has_value()) << "round " << round;
    ASSERT_EQ(response->body.size(), kBody);
    EXPECT_EQ(response->body.find_first_not_of('x'), std::string::npos);
  }
}

TEST(LoopbackTest, StalledReaderHitsWriteTimeout) {
  // The client asks for a body far larger than both kernel buffers and
  // never reads it, so the server's writes stop making progress and the
  // write deadline closes the connection.
  NetServerConfig config;
  config.workers = 1;
  config.accepted_sndbuf = 4096;
  config.limits.write_timeout = 200;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  SetRecvBufferBytes(client.fd(), 4096);
  // Bounds the final read below: a server that never closes fails the
  // test instead of hanging it.
  const timeval read_timeout{5, 0};
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
                         sizeof(read_timeout)),
            0);
  const size_t kBody = 4u << 20;
  ASSERT_TRUE(client.Send(SimpleGet("/bytes/" + std::to_string(kBody))));

  const Labels write_kind = {{"kind", "write"}};
  for (int i = 0; i < 200; ++i) {
    if (NetCount(registry, "robodet_net_timeouts_total", write_kind) == 1 &&
        OpenConnections(registry) == 0) {
      break;
    }
    SleepMs(25);
  }
  EXPECT_EQ(NetCount(registry, "robodet_net_timeouts_total", write_kind), 1u);
  EXPECT_EQ(OpenConnections(registry), 0);

  // The client gets what the kernel buffers held, then the stream ends.
  size_t received = 0;
  char chunk[64 * 1024];
  for (;;) {
    const IoResult got = ReadOnce(client.fd(), chunk, sizeof(chunk));
    if (got.n <= 0) {
      EXPECT_TRUE(got.eof || got.error == ECONNRESET);
      break;
    }
    received += static_cast<size_t>(got.n);
  }
  EXPECT_LT(received, kBody);
}

TEST(LoopbackTest, PeerResetWithQueuedOutputClosesAtOnce) {
  // The client asks for a body over the write high-water mark, reads none
  // of it and resets. The error event must close the connection at once:
  // not spin the worker until the write deadline, and not loop on the
  // failing send.
  NetServerConfig config;
  config.workers = 1;
  config.accepted_sndbuf = 4096;
  config.limits.write_timeout = 10 * kSecond;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  SetRecvBufferBytes(client.fd(), 4096);
  ASSERT_TRUE(client.Send(SimpleGet("/bytes/" + std::to_string(4u << 20))));
  for (int i = 0; i < 200 && NetCount(registry, "robodet_net_requests_total") == 0; ++i) {
    SleepMs(5);
  }
  ASSERT_EQ(NetCount(registry, "robodet_net_requests_total"), 1u);
  SleepMs(100);  // The server fills the buffers and waits for EPOLLOUT.
  const linger reset{1, 0};  // close() sends RST.
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)), 0);
  client.Close();

  for (int i = 0; i < 100 && OpenConnections(registry) != 0; ++i) {
    SleepMs(10);
  }
  EXPECT_EQ(OpenConnections(registry), 0);
  EXPECT_EQ(NetCount(registry, "robodet_net_timeouts_total", {{"kind", "write"}}), 0u);
}

TEST(LoopbackTest, ShortReadTortureDribbledRequestBody) {
  NetServerConfig config;
  config.workers = 1;
  config.limits.read_timeout = 10 * kSecond;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  const std::string body(100 * 1024, 'b');
  const std::string request = "POST /upload HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  // Dribble the request in small uneven slices so the server assembles it
  // across many reads.
  size_t off = 0;
  size_t slice = 1;
  while (off < request.size()) {
    const size_t n = std::min(slice, request.size() - off);
    ASSERT_TRUE(client.Send(std::string_view(request).substr(off, n)));
    off += n;
    slice = slice * 2 + 1;
    if (slice > 8192) {
      slice = 3;
    }
  }
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "len=" + std::to_string(body.size()));
}

TEST(LoopbackTest, MultiWorkerLoadgenRoundTrip) {
  NetServerConfig config;
  config.workers = 4;
  MetricsRegistry registry;
  NetServer server(config, MakeEchoHandler(), registry);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LoadGenConfig load;
  load.port = server.port();
  load.connections = 8;
  load.requests_per_connection = 50;
  load.paths = {"/a", "/b", "/bytes/2000"};
  const LoadGenReport report = RunLoadGen(load);
  EXPECT_EQ(report.responses_2xx, 400u);
  EXPECT_EQ(report.io_failures, 0u);
  EXPECT_EQ(NetCount(registry, "robodet_net_requests_total"), 400u);
}

TEST(LoopbackTest, ProxyServerBehindRealSockets) {
  // The whole stack in-process: loadgen → NetServer → ProxyServer with
  // instrumentation over a generated site, stamped by a WallClock.
  WallClock clock;
  SiteConfig site_config;
  site_config.num_pages = 10;
  Rng site_rng(7);
  SiteModel site = SiteModel::Generate(site_config, site_rng);
  std::vector<std::string> pages;
  for (size_t i = 0; i < site_config.num_pages; ++i) {
    pages.push_back(site.RenderPage(i));
  }
  ProxyConfig proxy_config;
  proxy_config.host = site.host();
  proxy_config.concurrent = true;
  ProxyServer proxy(proxy_config, &clock,
                    FallibleOriginHandler([&pages](const Request& r) {
                      return OriginResult::Ok(
                          MakeHtmlResponse(pages[Fnv1a(r.url.path()) % pages.size()]));
                    }),
                    37);

  // Every loadgen connection shares 127.0.0.1, so two workers serve one
  // session at once; Handle's own per-client lock keeps that safe.
  NetHandler handler = [&proxy](Request&& request) {
    ServedResponse served;
    served.response = proxy.Handle(request).response;
    return served;
  };
  NetServerConfig config;
  config.workers = 2;
  config.clock = &clock;
  NetServer server(config, std::move(handler), proxy.metrics());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LoadGenConfig load;
  load.port = server.port();
  load.connections = 4;
  load.requests_per_connection = 25;
  load.paths = {SiteModel::PagePath(0), SiteModel::PagePath(1)};
  const LoadGenReport report = RunLoadGen(load);
  EXPECT_EQ(report.responses_2xx, 100u);

  // The pages went through instrumentation, and the net counters landed
  // in the same registry the proxy reports into.
  const RegistrySnapshot snapshot = proxy.metrics().Scrape();
  EXPECT_GE(snapshot.CounterValue("robodet_requests_total"), 100u);
  EXPECT_GE(snapshot.CounterValue("robodet_pages_instrumented_total"), 100u);
  EXPECT_GE(snapshot.CounterValue("robodet_net_requests_total"), 100u);
}

}  // namespace
}  // namespace robodet
