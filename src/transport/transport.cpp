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
#include <utility>

#include "common/log.hpp"

namespace flexric {

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
  auto header = [](const std::uint8_t* p) {  // (length, stream)
    BufReader r(BytesView(p, kFrameHeaderSize));
    const std::uint32_t len = *r.u32();
    return std::pair{len, *r.u16()};
  };
  auto take = [&](std::size_t want) {  // top rx_ up to `want` bytes
    const std::size_t n = std::min(want - rx_.size(), bytes.size());
    rx_.insert(rx_.end(), bytes.begin(), bytes.begin() + static_cast<long>(n));
    bytes = bytes.subspan(n);
    return rx_.size() == want;
  };
  // Finish a frame an earlier feed left partial with only the bytes it
  // misses; every later whole frame is delivered in place.
  bool keep_going = true;
  if (!rx_.empty()) {
    if (!take(std::max(rx_.size(), kFrameHeaderSize))) return Status::ok();
    const auto [len, stream] = header(rx_.data());
    if (len > max_frame_) return {Errc::malformed, "oversized frame"};
    if (!take(kFrameHeaderSize + len)) return Status::ok();
    keep_going = sink(stream, BytesView(rx_).subspan(kFrameHeaderSize));
    rx_.clear();
  }
  std::size_t off = 0;
  Status st = Status::ok();
  while (keep_going && bytes.size() - off >= kFrameHeaderSize) {
    const auto [len, stream] = header(bytes.data() + off);
    if (len > max_frame_) {
      st = {Errc::malformed, "oversized frame"};
      break;
    }
    if (bytes.size() - off - kFrameHeaderSize < len) break;  // incomplete
    keep_going = sink(stream, bytes.subspan(off + kFrameHeaderSize, len));
    off += kFrameHeaderSize + len;
  }
  // Copied: a trailing partial frame, or what a stop left undelivered.
  rx_.assign(bytes.begin() + static_cast<long>(off), bytes.end());
  return st;
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(Reactor& reactor, int fd)
    : reactor_(reactor), fd_(fd) {
  fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
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
  if (auto cb = std::exchange(on_close_, nullptr)) cb();
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
  // Frames are handed out as views into the reactor's receive buffer, so a
  // handler's view dies with its call; a handler closing us stops the drain.
  const std::span<std::uint8_t> buf = reactor_.rx_buffer();
  const FrameAssembler::FrameSink deliver = [this](StreamId s, BytesView m) {
    if (on_msg_) on_msg_(s, m);
    return fd_ >= 0;
  };
  while (fd_ >= 0) {
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0) LOG_WARN("tcp", "recv error: %s", std::strerror(errno));
    const auto got = static_cast<std::size_t>(std::max<ssize_t>(n, 0));
    Status st = rx_.feed(BytesView(buf.data(), got), deliver);
    if (!st.is_ok())
      LOG_WARN("tcp", "bad frame from %s: %s", peer_name().c_str(),
               st.to_string().c_str());
    // n == 0 is an orderly shutdown: what arrived was delivered already.
    if (n <= 0 || !st.is_ok()) close();
    if (got < buf.size()) return;
  }
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
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) return {Errc::io, std::strerror(errno)};
  int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd_, 64) != 0) {
    Status st{Errc::io, std::strerror(errno)};
    ::close(fd_);
    fd_ = -1;
    return st;
  }
  socklen_t len = sizeof addr;
  getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
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
  if (auto cb = std::exchange(on_close_, nullptr)) cb();
  if (auto peer = peer_.lock(); peer && peer->open_) {
    std::weak_ptr<LocalTransport> target = peer;
    reactor_.post([target]() {
      if (auto t = target.lock()) t->close();
    });
  }
}

}  // namespace flexric
