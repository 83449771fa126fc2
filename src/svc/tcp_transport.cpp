#include "svc/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace agilla::svc {
namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

TcpTransport::TcpTransport(Options options) : options_(std::move(options)) {}

TcpTransport::~TcpTransport() { stop(); }

bool TcpTransport::start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad listen address '" + options_.host + "'";
    stop();
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    stop();
    return false;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    stop();
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                &bound_len);
  port_ = ntohs(bound.sin_port);
  if (!set_nonblocking(listen_fd_) || ::pipe(wake_pipe_) != 0 ||
      !set_nonblocking(wake_pipe_[0])) {
    *error = "fcntl/pipe failed";
    stop();
    return false;
  }
  running_.store(true);
  io_thread_ = std::thread([this] { io_loop(); });
  return true;
}

void TcpTransport::stop() {
  if (running_.exchange(false)) {
    wake();
    io_thread_.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) {
      ::close(conn.fd);
    }
  }
  conns_.clear();
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

void TcpTransport::wake() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &byte, 1);
  }
}

std::deque<TransportEvent> TcpTransport::poll() {
  std::deque<TransportEvent> batch;
  std::lock_guard<std::mutex> lock(mutex_);
  batch.swap(events_);
  return batch;
}

void TcpTransport::send(ConnId conn, const std::uint8_t* data,
                        std::size_t size) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = conns_.find(conn);
    if (it == conns_.end() || it->second.fd < 0) {
      return;
    }
    it->second.write_buf.insert(it->second.write_buf.end(), data,
                                data + size);
  }
  wake();
}

void TcpTransport::close(ConnId conn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = conns_.find(conn);
    if (it == conns_.end()) {
      return;
    }
    it->second.close_when_flushed = true;
  }
  wake();
}

void TcpTransport::io_loop() {
  std::vector<pollfd> fds;
  std::vector<ConnId> fd_conn;  ///< parallel to fds, 0 for listen/wake
  std::uint8_t buf[16 * 1024];
  while (running_.load()) {
    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fd_conn.push_back(0);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [id, conn] : conns_) {
        if (conn.fd < 0) {
          continue;
        }
        short want = POLLIN;
        if (!conn.write_buf.empty() || conn.close_when_flushed) {
          want |= POLLOUT;
        }
        fds.push_back(pollfd{conn.fd, want, 0});
        fd_conn.push_back(id);
      }
    }
    if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) {
      break;
    }
    if (fds[1].revents & POLLIN) {
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          break;
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::lock_guard<std::mutex> lock(mutex_);
        const ConnId id = next_id_++;
        conns_[id].fd = fd;
        events_.push_back(
            TransportEvent{TransportEvent::Kind::kConnect, id, {}});
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const ConnId id = fd_conn[i];
      const short revents = fds[i].revents;
      if (revents == 0) {
        continue;
      }
      bool dead = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      if (!dead && (revents & POLLIN)) {
        for (;;) {
          const ssize_t n = ::read(fds[i].fd, buf, sizeof(buf));
          if (n > 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            events_.push_back(TransportEvent{
                TransportEvent::Kind::kData, id,
                std::vector<std::uint8_t>(buf, buf + n)});
          } else if (n == 0) {
            dead = true;
            break;
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != EINTR) {
              dead = true;
            }
            break;
          }
        }
      }
      if (!dead && (revents & POLLOUT)) {
        std::lock_guard<std::mutex> lock(mutex_);
        Conn& conn = conns_[id];
        while (!conn.write_buf.empty()) {
          const ssize_t n = ::write(fds[i].fd, conn.write_buf.data(),
                                    conn.write_buf.size());
          if (n > 0) {
            conn.write_buf.erase(
                conn.write_buf.begin(),
                conn.write_buf.begin() + static_cast<std::ptrdiff_t>(n));
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != EINTR) {
              dead = true;
            }
            break;
          }
        }
        if (conn.close_when_flushed && conn.write_buf.empty()) {
          dead = true;
        }
      }
      if (dead) {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = conns_.find(id);
        if (it != conns_.end()) {
          const bool server_initiated = it->second.close_when_flushed;
          ::close(it->second.fd);
          conns_.erase(it);
          if (!server_initiated) {
            events_.push_back(
                TransportEvent{TransportEvent::Kind::kDisconnect, id, {}});
          }
        }
      }
    }
  }
}

}  // namespace agilla::svc
