// Message-oriented transport abstraction.
//
// O-RAN mandates SCTP under E2; the SDK abstracts the transport behind this
// interface so it can be swapped (§4.3 abstraction (1)). Two implementations
// are provided:
//
//  * TcpTransport — SCTP-like framing over TCP: each message rides in a
//    frame [u32 len][u16 stream][payload], preserving SCTP's message
//    boundaries, ordering and multi-stream addressing. (Real SCTP is not
//    available in this environment; see DESIGN.md substitutions.)
//  * LocalTransport — an in-process pipe pair for deterministic tests and
//    benches without kernel sockets.
//
// All callbacks run on the owning Reactor's thread.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "transport/reactor.hpp"

namespace flexric {

/// Stream id inside a transport connection (SCTP stream analogue). E2AP
/// management uses stream 0; SM traffic may use others.
using StreamId = std::uint16_t;

/// Wire framing constants shared by TcpTransport and FrameAssembler:
/// every message rides in [u32 len][u16 stream][payload] (little endian).
constexpr std::size_t kFrameHeaderSize = 6;
constexpr std::size_t kMaxFrameSize = 16 * 1024 * 1024;

/// Incremental reassembler for the [len][stream] framing. Bytes arrive in
/// arbitrary chunks (a stalled peer can dribble one byte per read); complete
/// frames are handed to the sink in order. Extracted from TcpTransport so
/// the reassembly state machine is testable without a socket.
class FrameAssembler {
 public:
  /// Return false from the sink to stop parsing (e.g. the connection was
  /// closed by the handler); already-consumed frames stay consumed.
  using FrameSink = std::function<bool(StreamId, BytesView)>;

  /// Deliver every complete frame in `bytes`, after the partial one an
  /// earlier feed left. A frame that sits whole in `bytes` is handed out as
  /// a view into it, valid only during the sink call; only a trailing
  /// partial frame is copied. Errc::malformed on an oversized length field
  /// (the stream can only be desynchronized garbage from that point on).
  Status feed(BytesView bytes, const FrameSink& sink);

  /// Bytes buffered waiting for the rest of a frame: the partial frame
  /// only, never a frame already delivered.
  [[nodiscard]] std::size_t buffered() const noexcept { return rx_.size(); }

  /// Cap on the peer-claimed frame length (default kMaxFrameSize). The
  /// length field is validated as soon as the 6-byte header arrives, so an
  /// adversarial multi-GB claim fails with Errc::malformed before a single
  /// payload byte is buffered — the claim never drives an allocation.
  void set_max_frame(std::size_t bytes) noexcept { max_frame_ = bytes; }
  [[nodiscard]] std::size_t max_frame() const noexcept { return max_frame_; }

 private:
  Buffer rx_;
  std::size_t max_frame_ = kMaxFrameSize;
};

/// Append one framed message to `out` (the encode side of FrameAssembler).
void append_frame(Buffer& out, BytesView msg, StreamId stream);

class MsgTransport {
 public:
  /// (stream, message bytes). The view is only valid during the call.
  using MsgHandler = std::function<void(StreamId, BytesView)>;
  using CloseHandler = std::function<void()>;

  virtual ~MsgTransport() = default;

  /// Queue a whole message for delivery. Reliable and ordered per stream.
  virtual Status send(BytesView msg, StreamId stream = 0) = 0;
  virtual void set_on_message(MsgHandler h) = 0;
  virtual void set_on_close(CloseHandler h) = 0;
  virtual void close() = 0;
  [[nodiscard]] virtual bool is_open() const noexcept = 0;
  /// Diagnostic peer name ("127.0.0.1:36422", "local").
  [[nodiscard]] virtual std::string peer_name() const = 0;
};

// ---------------------------------------------------------------------------
// TCP with SCTP-like framing
// ---------------------------------------------------------------------------

// @affine(reactor)
class TcpTransport final : public MsgTransport {
 public:
  /// Wrap an already-connected socket (takes ownership of fd).
  TcpTransport(Reactor& reactor, int fd);
  ~TcpTransport() override;

  /// Queues the frame; the actual write is corked until the end of the
  /// current reactor turn, so several messages sent back-to-back (e.g. the
  /// per-TTI indications of multiple SMs) leave in ONE syscall.
  Status send(BytesView msg, StreamId stream = 0) override;
  void set_on_message(MsgHandler h) override { on_msg_ = std::move(h); }
  void set_on_close(CloseHandler h) override { on_close_ = std::move(h); }
  void close() override;
  [[nodiscard]] bool is_open() const noexcept override { return fd_ >= 0; }
  [[nodiscard]] std::string peer_name() const override;

  /// Blocking client connect, then non-blocking operation.
  static Result<std::unique_ptr<TcpTransport>> connect(Reactor& reactor,
                                                       const std::string& host,
                                                       std::uint16_t port);

  /// Cap on unsent bytes queued towards a stalled peer. Once the kernel
  /// socket buffer and this queue are full, send() returns Errc::capacity
  /// (backpressure) instead of growing without bound.
  void set_max_tx_buffer(std::size_t bytes) noexcept { max_tx_buf_ = bytes; }
  [[nodiscard]] std::size_t pending_tx_bytes() const noexcept {
    return txbuf_.size() - tx_off_;
  }
  /// True while EPOLLOUT is armed: a backlog is waiting for the socket.
  [[nodiscard]] bool write_armed() const noexcept { return write_armed_; }

  static constexpr std::size_t kDefaultMaxTxBuffer = 32 * 1024 * 1024;

 private:
  void on_events(std::uint32_t events);
  void read_ready();
  void schedule_flush();
  Status flush_write();
  void update_epoll_mask();

  Reactor& reactor_;
  int fd_ = -1;
  MsgHandler on_msg_;
  CloseHandler on_close_;
  FrameAssembler rx_;       // reassembles frames across short reads
  Buffer txbuf_;            // pending outgoing bytes (frames concatenated)
  std::size_t tx_off_ = 0;  // bytes of txbuf_ already written
  std::size_t max_tx_buf_ = kDefaultMaxTxBuffer;
  bool flush_scheduled_ = false;
  bool write_armed_ = false;  // EPOLLOUT in the fd's epoll mask
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Accepts TCP connections and hands each to `on_accept` wrapped in a
/// TcpTransport. Listens on 127.0.0.1.
class TcpListener {
 public:
  using AcceptHandler =
      std::function<void(std::unique_ptr<TcpTransport>)>;

  TcpListener(Reactor& reactor, AcceptHandler on_accept);
  ~TcpListener();

  /// Bind + listen. Port 0 picks an ephemeral port (see port()).
  Status listen(std::uint16_t port);
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  void close();

 private:
  void accept_ready();

  Reactor& reactor_;
  AcceptHandler on_accept_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// In-process pipe pair
// ---------------------------------------------------------------------------

class LocalTransport final : public MsgTransport {
 public:
  /// Create a connected pair on one reactor. Messages are delivered as
  /// posted reactor tasks (FIFO, so ordering matches a real transport).
  static std::pair<std::shared_ptr<LocalTransport>,
                   std::shared_ptr<LocalTransport>>
  make_pair(Reactor& reactor);

  Status send(BytesView msg, StreamId stream = 0) override;
  void set_on_message(MsgHandler h) override { on_msg_ = std::move(h); }
  void set_on_close(CloseHandler h) override { on_close_ = std::move(h); }
  void close() override;
  [[nodiscard]] bool is_open() const noexcept override { return open_; }
  [[nodiscard]] std::string peer_name() const override { return "local"; }

 private:
  explicit LocalTransport(Reactor& reactor) : reactor_(reactor) {}

  Reactor& reactor_;
  std::weak_ptr<LocalTransport> peer_;
  MsgHandler on_msg_;
  CloseHandler on_close_;
  bool open_ = true;
};

}  // namespace flexric
