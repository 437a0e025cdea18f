// Minimal POSIX TCP plumbing shared by the service layer, spivar_cli's
// `remote` mode and the load generator: an RAII socket, an iostream adapter
// over a file descriptor, and loopback-oriented listen/accept/connect
// helpers. The wire protocol itself lives in api/wire — this header only
// moves its bytes.
#pragma once

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <istream>
#include <optional>
#include <streambuf>
#include <string>
#include <utility>

namespace spivar::service {

/// Owning socket descriptor; closes on destruction, movable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { reset(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// Bidirectional std::streambuf over a socket fd. Reads are buffered; writes
/// buffer until sync() (std::flush), which the frame loop issues per frame.
class FdStreamBuf final : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) noexcept : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }

 protected:
  int_type underflow() override {
    ssize_t n = 0;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR);  // a signal must not read as EOF
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type ch) override {
    if (!flush_out()) return traits_type::eof();
    if (ch != traits_type::eof()) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return 0;
  }

  int sync() override { return flush_out() ? 0 : -1; }

 private:
  bool flush_out() {
    const char* data = pbase();
    std::size_t left = static_cast<std::size_t>(pptr() - pbase());
    while (left > 0) {
      const ssize_t n = ::write(fd_, data, left);
      if (n < 0 && errno == EINTR) continue;  // interrupted, not broken
      if (n <= 0) return false;
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    setp(out_, out_ + sizeof(out_));
    return true;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

/// `host:port` endpoint; nullopt when `spec` is malformed.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

inline std::optional<Endpoint> parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) return std::nullopt;
  Endpoint endpoint;
  endpoint.host = spec.substr(0, colon);
  // Strict digits-only port: "8080junk", " 8080" and "+8080" are typos,
  // not endpoints.
  const char* first = spec.data() + colon + 1;
  const char* last = spec.data() + spec.size();
  unsigned port = 0;
  const auto [end, ec] = std::from_chars(first, last, port);
  if (ec != std::errc{} || end != last || port == 0 || port > 65535) return std::nullopt;
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

/// Listens on the loopback interface; port 0 picks an ephemeral port.
/// Invalid socket on failure.
inline Socket listen_loopback(std::uint16_t port) {
  Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!sock.valid()) return {};
  const int reuse = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) return {};
  if (::listen(sock.fd(), 16) != 0) return {};
  return sock;
}

/// The port a listening socket actually bound (resolves port 0).
inline std::uint16_t bound_port(const Socket& sock) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

/// Turns off Nagle's algorithm. Frames are flushed whole, so batching small
/// segments buys nothing, while a reply written in more than one piece (one
/// over the 4096-byte put area, or a pipelined reply behind an unacknowledged
/// one) would wait out the peer's delayed ACK: ~40 ms per round trip.
inline void set_no_delay(const Socket& sock) {
  const int on = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
}

/// Accepts one connection with TCP_NODELAY set. Invalid socket (errno
/// intact) on failure.
inline Socket accept_client(const Socket& listener) {
  Socket client{::accept(listener.fd(), nullptr, nullptr)};
  if (client.valid()) set_no_delay(client);
  return client;
}

/// Connects to host:port (names resolve through getaddrinfo) with
/// TCP_NODELAY set. Invalid socket on failure.
inline Socket connect_to(const Endpoint& endpoint) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  if (::getaddrinfo(endpoint.host.c_str(), std::to_string(endpoint.port).c_str(), &hints,
                    &found) != 0) {
    return {};
  }
  Socket sock;
  for (const addrinfo* it = found; it != nullptr; it = it->ai_next) {
    Socket candidate{::socket(it->ai_family, it->ai_socktype, it->ai_protocol)};
    if (!candidate.valid()) continue;
    if (::connect(candidate.fd(), it->ai_addr, it->ai_addrlen) == 0) {
      set_no_delay(candidate);
      sock = std::move(candidate);
      break;
    }
  }
  ::freeaddrinfo(found);
  return sock;
}

}  // namespace spivar::service
