#include "common/net.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "common/assert.hpp"
#include "common/fields.hpp"

namespace basrpt {

namespace {

void fill_uds(const Endpoint& ep, sockaddr_un* addr) {
  BASRPT_REQUIRE(!ep.path.empty(), "net: empty uds path");
  BASRPT_REQUIRE(ep.path.size() < sizeof(addr->sun_path),
                 "net: uds path too long: " + ep.path);
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, ep.path.c_str(), ep.path.size() + 1);
}

void fill_tcp(const Endpoint& ep, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(ep.port);
  BASRPT_REQUIRE(inet_pton(AF_INET, ep.host.c_str(), &addr->sin_addr) == 1,
                 "net: not a numeric IPv4 address: " + ep.host);
}

}  // namespace

std::string Endpoint::str() const {
  if (kind == Kind::kUds) {
    return "uds:" + path;
  }
  return "tcp:" + host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("uds:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUds;
    ep.path = spec.substr(4);
    BASRPT_REQUIRE(!ep.path.empty(),
                   "net: uds endpoint needs a path: '" + spec + "'");
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    BASRPT_REQUIRE(colon != std::string::npos && colon > 0,
                   "net: tcp endpoint is tcp:<host>:<port>: '" + spec + "'");
    ep.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    std::int64_t port = 0;
    BASRPT_REQUIRE(fields::parse_i64(port_text, &port) && port > 0 &&
                       port <= 65535,
                   "net: bad tcp port: '" + port_text + "'");
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  throw ConfigError(
      "net: endpoint must be uds:<path> or tcp:<host>:<port>, got '" +
      spec + "'");
}

UniqueFd listen_endpoint(const Endpoint& ep, int backlog) {
  UniqueFd fd(::socket(
      ep.kind == Endpoint::Kind::kUds ? AF_UNIX : AF_INET,
      SOCK_STREAM | SOCK_CLOEXEC, 0));
  BASRPT_REQUIRE(fd.valid(),
                 std::string("net: socket() failed: ") + strerror(errno));
  if (ep.kind == Endpoint::Kind::kUds) {
    ::unlink(ep.path.c_str());  // stale file from a SIGKILLed daemon
    sockaddr_un addr;
    fill_uds(ep, &addr);
    BASRPT_REQUIRE(::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "net: cannot bind " + ep.str() + ": " + strerror(errno));
  } else {
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    fill_tcp(ep, &addr);
    BASRPT_REQUIRE(::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "net: cannot bind " + ep.str() + ": " + strerror(errno));
  }
  BASRPT_REQUIRE(::listen(fd.get(), backlog) == 0,
                 "net: cannot listen on " + ep.str() + ": " +
                     strerror(errno));
  return fd;
}

UniqueFd connect_endpoint(const Endpoint& ep) {
  UniqueFd fd(::socket(
      ep.kind == Endpoint::Kind::kUds ? AF_UNIX : AF_INET,
      SOCK_STREAM | SOCK_CLOEXEC, 0));
  BASRPT_REQUIRE(fd.valid(),
                 std::string("net: socket() failed: ") + strerror(errno));
  int rc;
  if (ep.kind == Endpoint::Kind::kUds) {
    sockaddr_un addr;
    fill_uds(ep, &addr);
    do {
      rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
  } else {
    sockaddr_in addr;
    fill_tcp(ep, &addr);
    do {
      rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) {
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  if (rc != 0) {
    return UniqueFd();  // peer absent/refusing: the caller backs off
  }
  return fd;
}

UniqueFd accept_on(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int fdflags = ::fcntl(fd, F_GETFD);
      if (fdflags >= 0) {
        ::fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC);
      }
      return UniqueFd(fd);
    }
    if (errno == EINTR) {
      continue;
    }
    return UniqueFd();  // EAGAIN / transient: nothing to accept
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  BASRPT_REQUIRE(flags >= 0 &&
                     ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 "net: cannot set O_NONBLOCK");
}

void unlink_endpoint(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUds) {
    ::unlink(ep.path.c_str());
  }
}

}  // namespace basrpt
