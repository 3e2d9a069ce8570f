#include "transport/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hpp"

namespace flexric {

namespace {

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

void append_frame(Buffer& out, BytesView msg, StreamId stream) {
  std::uint32_t len = static_cast<std::uint32_t>(msg.size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  out.push_back(static_cast<std::uint8_t>(stream & 0xFF));
  out.push_back(static_cast<std::uint8_t>(stream >> 8));
  out.insert(out.end(), msg.begin(), msg.end());
}

// ---------------------------------------------------------------------------
// FrameAssembler
// ---------------------------------------------------------------------------

Status FrameAssembler::feed(BytesView bytes, const FrameSink& sink) {
  rx_.insert(rx_.end(), bytes.begin(), bytes.end());
  std::size_t off = 0;
  Status st = Status::ok();
  while (rx_.size() - off >= kFrameHeaderSize) {
    BufReader hdr(BytesView(rx_).subspan(off, kFrameHeaderSize));
    std::uint32_t len = *hdr.u32();
    StreamId stream = *hdr.u16();
    if (len > max_frame_) {
      st = {Errc::malformed, "oversized frame"};
      break;
    }
    if (rx_.size() - off - kFrameHeaderSize < len) break;  // incomplete
    bool keep_going =
        sink(stream, BytesView(rx_).subspan(off + kFrameHeaderSize, len));
    off += kFrameHeaderSize + len;
    if (!keep_going) break;
  }
  if (off > 0) rx_.erase(rx_.begin(), rx_.begin() + static_cast<long>(off));
  return st;
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(Reactor& reactor, int fd)
    : reactor_(reactor), fd_(fd) {
  set_nonblocking(fd_);
  set_nodelay(fd_);
  Status st =
      reactor_.add_fd(fd_, EPOLLIN, [this](std::uint32_t ev) { on_events(ev); });
  FLEXRIC_ASSERT(st.is_ok(), "TcpTransport: add_fd failed");
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::close() {
  if (fd_ < 0) return;
  // Best effort: push out anything still corked before closing.
  if (tx_off_ < txbuf_.size())
    (void)!::send(fd_, txbuf_.data() + tx_off_, txbuf_.size() - tx_off_,
                  MSG_NOSIGNAL | MSG_DONTWAIT);
  *alive_ = false;
  reactor_.del_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  if (on_close_) {
    auto cb = std::move(on_close_);
    on_close_ = nullptr;
    cb();
  }
}

std::string TcpTransport::peer_name() const {
  if (fd_ < 0) return "(closed)";
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (getpeername(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return "(unknown)";
  char ip[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof ip);
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

Status TcpTransport::send(BytesView msg, StreamId stream) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  if (fd_ < 0) return {Errc::io, "transport closed"};
  if (msg.size() > kMaxFrameSize) return {Errc::capacity, "message too large"};
  // Backpressure a stalled peer: reject instead of queueing without bound.
  if (pending_tx_bytes() + kFrameHeaderSize + msg.size() > max_tx_buf_)
    return {Errc::capacity, "send buffer full (peer not reading)"};
  append_frame(txbuf_, msg, stream);
  schedule_flush();
  return Status::ok();
}

void TcpTransport::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  reactor_.post([this, alive = std::weak_ptr<bool>(alive_)] {
    auto a = alive.lock();
    if (!a || !*a) return;
    flush_scheduled_ = false;
    if (fd_ >= 0) (void)flush_write();
  });
}

Status TcpTransport::flush_write() {
  while (tx_off_ < txbuf_.size()) {
    ssize_t n = ::send(fd_, txbuf_.data() + tx_off_, txbuf_.size() - tx_off_,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      Status st{Errc::io, std::strerror(errno)};
      close();
      return st;
    }
    tx_off_ += static_cast<std::size_t>(n);
  }
  if (tx_off_ == txbuf_.size()) {
    txbuf_.clear();
    tx_off_ = 0;
  } else if (tx_off_ > 1 << 20) {
    // Compact occasionally so a slow peer doesn't pin sent bytes forever.
    txbuf_.erase(txbuf_.begin(), txbuf_.begin() + static_cast<long>(tx_off_));
    tx_off_ = 0;
  }
  update_epoll_mask();
  return Status::ok();
}

void TcpTransport::update_epoll_mask() {
  const bool want = tx_off_ < txbuf_.size();
  if (fd_ < 0 || want == write_armed_) return;  // no epoll_ctl per flush
  write_armed_ = want;
  (void)reactor_.mod_fd(fd_, want ? EPOLLIN | EPOLLOUT : EPOLLIN);
}

void TcpTransport::on_events(std::uint32_t events) {
  if (events & (EPOLLHUP | EPOLLERR)) {
    close();
    return;
  }
  if (events & EPOLLOUT) (void)flush_write();
  if (events & EPOLLIN) read_ready();
}

void TcpTransport::read_ready() {
  std::uint8_t chunk[65536];
  Buffer pending;
  bool eof = false;
  while (fd_ >= 0) {
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      pending.insert(pending.end(), chunk, chunk + n);
      if (static_cast<std::size_t>(n) < sizeof chunk) break;
      continue;
    }
    if (n == 0) {  // orderly shutdown: deliver what arrived, then close
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    LOG_WARN("tcp", "recv error: %s", std::strerror(errno));
    close();
    return;
  }
  // Deliver complete frames; a handler closing us stops the drain.
  Status st = rx_.feed(pending, [this](StreamId stream, BytesView msg) {
    if (on_msg_) on_msg_(stream, msg);
    return fd_ >= 0;
  });
  if (!st.is_ok()) {
    LOG_WARN("tcp", "bad frame from %s: %s", peer_name().c_str(),
             st.to_string().c_str());
    close();
    return;
  }
  if (eof) close();
}

Result<std::unique_ptr<TcpTransport>> TcpTransport::connect(
    Reactor& reactor, const std::string& host, std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error{Errc::io, std::strerror(errno)};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error{Errc::io, "bad address"};
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Error e{Errc::io, std::strerror(errno)};
    ::close(fd);
    return e;
  }
  return std::make_unique<TcpTransport>(reactor, fd);
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(Reactor& reactor, AcceptHandler on_accept)
    : reactor_(reactor), on_accept_(std::move(on_accept)) {}

TcpListener::~TcpListener() { close(); }

Status TcpListener::listen(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return {Errc::io, std::strerror(errno)};
  int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status st{Errc::io, std::strerror(errno)};
    ::close(fd_);
    fd_ = -1;
    return st;
  }
  if (::listen(fd_, 64) != 0) {
    Status st{Errc::io, std::strerror(errno)};
    ::close(fd_);
    fd_ = -1;
    return st;
  }
  socklen_t len = sizeof addr;
  getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(fd_);
  return reactor_.add_fd(fd_, EPOLLIN,
                         [this](std::uint32_t) { accept_ready(); });
}

void TcpListener::accept_ready() {
  while (true) {
    int cfd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (cfd < 0) return;  // EAGAIN or error: back to the loop
    on_accept_(std::make_unique<TcpTransport>(reactor_, cfd));
  }
}

void TcpListener::close() {
  if (fd_ < 0) return;
  reactor_.del_fd(fd_);
  ::close(fd_);
  fd_ = -1;
}

// ---------------------------------------------------------------------------
// LocalTransport
// ---------------------------------------------------------------------------

std::pair<std::shared_ptr<LocalTransport>, std::shared_ptr<LocalTransport>>
LocalTransport::make_pair(Reactor& reactor) {
  auto a = std::shared_ptr<LocalTransport>(new LocalTransport(reactor));
  auto b = std::shared_ptr<LocalTransport>(new LocalTransport(reactor));
  a->peer_ = b;
  b->peer_ = a;
  return {a, b};
}

Status LocalTransport::send(BytesView msg, StreamId stream) {
  if (!open_) return {Errc::io, "transport closed"};
  auto peer = peer_.lock();
  if (!peer || !peer->open_) return {Errc::io, "peer closed"};
  // Copy now (the caller's view may die), deliver on the next loop turn.
  Buffer copy(msg.begin(), msg.end());
  std::weak_ptr<LocalTransport> target = peer;
  reactor_.post([target, stream, copy = std::move(copy)]() {
    auto t = target.lock();
    if (t && t->open_ && t->on_msg_) t->on_msg_(stream, copy);
  });
  return Status::ok();
}

void LocalTransport::close() {
  if (!open_) return;
  open_ = false;
  if (on_close_) {
    auto cb = std::move(on_close_);
    on_close_ = nullptr;
    cb();
  }
  if (auto peer = peer_.lock(); peer && peer->open_) {
    std::weak_ptr<LocalTransport> target = peer;
    reactor_.post([target]() {
      if (auto t = target.lock()) t->close();
    });
  }
}

}  // namespace flexric
