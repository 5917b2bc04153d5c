// Scrape-server smoke tests: bind an ephemeral port, issue raw-socket
// HTTP GETs, and check the status lines and bodies of /metrics, /healthz
// and /spans — plus 404/405 handling and idempotent shutdown.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "telemetry/ball_trace.hpp"
#include "telemetry/scrape_server.hpp"
#include "telemetry/shared_registry.hpp"

namespace {

using iba::telemetry::BallSpan;
using iba::telemetry::ScrapeServer;
using iba::telemetry::SharedRegistry;

/// One blocking HTTP exchange against 127.0.0.1:port; returns the whole
/// response (the server closes the connection after each request).
std::string http_get(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0) << std::strerror(errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  EXPECT_EQ(rc, 0) << std::strerror(errno);
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string status_line(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

TEST(Scrape, ServesMetricsFromLiveRegistry) {
  SharedRegistry registry;
  registry.with([](iba::telemetry::Registry& r) {
    r.counter("balls_deleted_total").inc(42);
    r.gauge("pool_size").set(17.0);
  });
  ScrapeServer server(0, registry);
  ASSERT_NE(server.port(), 0);

  const std::string response =
      http_get(server.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.1 200 OK");
  EXPECT_NE(response.find("Content-Length:"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_NE(body.find("iba_balls_deleted_total 42"), std::string::npos)
      << body;
  EXPECT_NE(body.find("iba_pool_size 17"), std::string::npos) << body;

  // The endpoint reads a fresh snapshot on every request.
  registry.with([](iba::telemetry::Registry& r) {
    r.counter("balls_deleted_total").inc(8);
  });
  const std::string after =
      http_get(server.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(body_of(after).find("iba_balls_deleted_total 50"),
            std::string::npos);
  EXPECT_GE(server.requests_served(), 2u);
}

TEST(Scrape, HealthzAnswersOk) {
  SharedRegistry registry;
  ScrapeServer server(0, registry);
  const std::string response =
      http_get(server.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(body_of(response), "ok\n");
}

TEST(Scrape, SpansStreamsJsonLinesFromTheSource) {
  SharedRegistry registry;
  ScrapeServer server(0, registry, [] {
    BallSpan span;
    span.ball_id = 7;
    span.arrival_round = 10;
    span.accept_round = 11;
    span.service_round = 13;
    span.pool_rounds = 1;
    span.bin_rounds = 2;
    span.accept_bin = 3;
    span.throws = 2;
    span.failed_throws = 1;
    return std::vector<BallSpan>{span};
  });
  const std::string response =
      http_get(server.port(), "GET /spans HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.1 200 OK");
  const std::string body = body_of(response);
  EXPECT_NE(body.find("\"ball_id\":7"), std::string::npos) << body;
  EXPECT_NE(body.find("\"wait\":3"), std::string::npos) << body;
  EXPECT_EQ(body.back(), '\n');
}

TEST(Scrape, SpansWithoutSourceIsEmpty) {
  SharedRegistry registry;
  ScrapeServer server(0, registry);
  const std::string response =
      http_get(server.port(), "GET /spans HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.1 200 OK");
  EXPECT_TRUE(body_of(response).empty());
}

TEST(Scrape, UnknownPathIs404AndPostIs405) {
  SharedRegistry registry;
  ScrapeServer server(0, registry);
  const std::string missing =
      http_get(server.port(), "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(status_line(missing), "HTTP/1.1 404 Not Found");
  const std::string post =
      http_get(server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(status_line(post), "HTTP/1.1 405 Method Not Allowed");
}

TEST(Scrape, StopIsIdempotentAndJoins) {
  SharedRegistry registry;
  ScrapeServer server(0, registry);
  const std::uint16_t port = server.port();
  const std::string response =
      http_get(port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.1 200 OK");
  server.stop();
  server.stop();  // second stop must be a no-op
  // After stop, connections are refused (nothing is listening).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_NE(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ::close(fd);
}

TEST(Scrape, TwoServersBindDistinctEphemeralPorts) {
  SharedRegistry registry;
  ScrapeServer a(0, registry);
  ScrapeServer b(0, registry);
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
}

}  // namespace
