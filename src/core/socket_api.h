// Copyright (c) NetKernel reproduction authors.
// The BSD-socket-shaped API guest applications program against.
//
// This is the abstraction boundary the paper keeps intact (§1, Figure 1): an
// application written against SocketApi runs unmodified on either
//   * BaselineSocketApi — the existing architecture, where the TCP stack runs
//     inside the guest (src/core/baseline_api.h), or
//   * GuestLib — NetKernel's transparent redirection, where socket semantics
//     travel as NQEs to a Network Stack Module (src/core/guestlib.h).
//
// Calls are coroutines; each takes the vCPU the calling guest thread is
// pinned to so syscall/copy cycles land on the right simulated core.

#ifndef SRC_CORE_SOCKET_API_H_
#define SRC_CORE_SOCKET_API_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/netsim/packet.h"
#include "src/sim/cpu.h"
#include "src/sim/task.h"

namespace netkernel::core {

constexpr uint32_t kEpollIn = 1u << 0;
constexpr uint32_t kEpollOut = 1u << 1;
constexpr uint32_t kEpollErr = 1u << 2;
constexpr uint32_t kEpollHup = 1u << 3;

struct EpollEvent {
  int fd = -1;
  uint32_t events = 0;
};

// A loaned buffer on the zero-copy registered-buffer datapath (io_uring-style
// ownership transfer; paper §7.8's planned zerocopy optimization).
//
// Ownership state machine:
//   TX: acquired (AcquireTxBuf; the app fills data[0..capacity) in place and
//       sets size) -> in-flight (SendBuf transfers ownership to the stack,
//       which transmits and retransmits directly from the buffer) ->
//       acked (the byte range is acknowledged; the buffer is freed and the
//       send credit returns). An acquired-but-unsent buffer is returned with
//       ReleaseBuf.
//   RX: loaned (RecvBuf hands the app the inbound chunk; data[0..size) is
//       valid) -> released (ReleaseBuf frees the chunk and rings the
//       receive-credit channel so the stack resumes shipping).
//
// `handle` is an implementation-owned token (hugepage offset, arena id);
// treat it as opaque. Closing the fd revokes every outstanding loan.
struct NkBuf {
  uint64_t handle = 0;
  uint8_t* data = nullptr;
  uint32_t capacity = 0;  // writable bytes of a TX loan
  uint32_t size = 0;      // valid bytes (app-set before SendBuf; set by RecvBuf)
  bool valid() const { return data != nullptr; }
};

// Gather/scatter element for the vectored surface.
struct NkConstIoVec {
  const uint8_t* data = nullptr;
  uint64_t len = 0;
};
struct NkIoVec {
  uint8_t* data = nullptr;
  uint64_t len = 0;
};

class SocketApi {
 public:
  virtual ~SocketApi() = default;

  virtual sim::EventLoop* loop() = 0;

  // Creates a stream socket; returns fd >= 0 (negative TcpError on failure).
  virtual sim::Task<int> Socket(sim::CpuCore* core) = 0;
  virtual sim::Task<int> Bind(sim::CpuCore* core, int fd, netsim::IpAddr ip, uint16_t port) = 0;
  virtual sim::Task<int> Listen(sim::CpuCore* core, int fd, int backlog, bool reuseport) = 0;
  // Blocks until established; returns 0 or negative TcpError.
  virtual sim::Task<int> Connect(sim::CpuCore* core, int fd, netsim::IpAddr ip,
                                 uint16_t port) = 0;
  // Blocks until a connection is ready; returns its fd.
  virtual sim::Task<int> Accept(sim::CpuCore* core, int fd) = 0;
  // Blocks until all `len` bytes are queued; returns len or negative error.
  // A copy shim: one gather element through Sendv.
  sim::Task<int64_t> Send(sim::CpuCore* core, int fd, const uint8_t* data, uint64_t len) {
    NkConstIoVec iov{data, len};
    co_return co_await Sendv(core, fd, &iov, 1);
  }
  // Blocks until >= 1 byte is available; returns bytes read, 0 on EOF,
  // negative TcpError on error. A copy shim: one scatter element through
  // Recvv.
  sim::Task<int64_t> Recv(sim::CpuCore* core, int fd, uint8_t* out, uint64_t max) {
    NkIoVec iov{out, max};
    co_return co_await Recvv(core, fd, &iov, 1);
  }
  virtual sim::Task<int> Close(sim::CpuCore* core, int fd) = 0;

  // ---- Zero-copy registered-buffer datapath ----
  // Loans a TX buffer of up to `len` bytes (implementations may cap the
  // capacity at their chunk size; check out->capacity). Blocks until send
  // credit and buffer space are available. Returns 0 or a negative TcpError.
  // Works on stream and datagram fds: a stream loan is sent with SendBuf, a
  // datagram loan with SendToBuf.
  virtual sim::Task<int> AcquireTxBuf(sim::CpuCore* core, int fd, uint32_t len, NkBuf* out) = 0;
  // Transfers ownership of an acquired buffer (buf.size bytes, filled in
  // place) to the stack, which transmits without copying; the buffer is freed
  // and its send credit returns only once the bytes are acknowledged. Returns
  // buf.size or a negative TcpError (ownership transfers either way — on
  // error the buffer is reclaimed by the implementation).
  virtual sim::Task<int64_t> SendBuf(sim::CpuCore* core, int fd, NkBuf buf) = 0;
  // Blocks until data is available, then loans the inbound chunk to the app
  // without copying: out->data[0..out->size) stays valid until ReleaseBuf.
  // Returns bytes loaned, 0 on EOF, or a negative TcpError.
  virtual sim::Task<int64_t> RecvBuf(sim::CpuCore* core, int fd, NkBuf* out) = 0;
  // Returns a loan: frees an RX chunk (ringing the receive-credit channel) or
  // an acquired-but-unsent TX buffer (returning its send credit). Returns 0
  // or a negative TcpError for an unknown handle.
  virtual sim::Task<int> ReleaseBuf(sim::CpuCore* core, int fd, NkBuf buf) = 0;

  // ---- Vectored surface ----
  // Gathers the iovecs into the socket's send path (one buffer copy at most,
  // into the registered region). Blocks until all bytes are queued; returns
  // the total or a negative TcpError.
  virtual sim::Task<int64_t> Sendv(sim::CpuCore* core, int fd, const NkConstIoVec* iov,
                                   int iovcnt) = 0;
  // Blocks until >= 1 byte is available, then scatters the buffered data into
  // the iovecs in order. Returns bytes filled, 0 on EOF, negative TcpError.
  virtual sim::Task<int64_t> Recvv(sim::CpuCore* core, int fd, const NkIoVec* iov,
                                   int iovcnt) = 0;

  // ---- Datagram (SOCK_DGRAM) surface ----
  // Creates a UDP socket; returns fd >= 0 (negative UdpError on failure).
  // Bind/Close/epoll work on datagram fds exactly as on stream fds.
  virtual sim::Task<int> SocketDgram(sim::CpuCore* core) = 0;
  // Sends one datagram of `len` <= udp::kMaxDatagram bytes; returns len or a
  // negative error. Never blocks on the network (UDP applies no backpressure)
  // but may wait for local send-buffer credit.
  virtual sim::Task<int64_t> SendTo(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip,
                                    uint16_t dst_port, const uint8_t* data, uint64_t len) = 0;
  // Blocks until a datagram arrives; copies up to `max` bytes (a longer
  // datagram is truncated) and reports the source address. Returns bytes
  // copied or a negative error.
  virtual sim::Task<int64_t> RecvFrom(sim::CpuCore* core, int fd, uint8_t* out, uint64_t max,
                                      netsim::IpAddr* src_ip, uint16_t* src_port) = 0;

  // ---- Zero-copy datagram surface ----
  // Sends one datagram of buf.size bytes from an acquired loan (filled in
  // place); ownership transfers either way, exactly like SendBuf. The loan's
  // send credit returns once the stack commits the wire datagram. Returns
  // buf.size or a negative error.
  virtual sim::Task<int64_t> SendToBuf(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip,
                                       uint16_t dst_port, NkBuf buf) = 0;
  // Blocks until a datagram arrives, then loans the whole inbound chunk to
  // the app without copying: out->data[0..out->size) is the datagram payload,
  // valid until ReleaseBuf (which returns the datagram receive credit).
  // Returns bytes loaned or a negative error.
  virtual sim::Task<int64_t> RecvFromBuf(sim::CpuCore* core, int fd, NkBuf* out,
                                         netsim::IpAddr* src_ip, uint16_t* src_port) = 0;

  // I/O event notification (epoll-style, level-triggered).
  virtual int EpollCreate() = 0;
  // mask == 0 removes fd from the interest set.
  virtual int EpollCtl(int epfd, int fd, uint32_t mask) = 0;
  // Destroys the epoll instance; blocked waiters wake with an empty result.
  virtual int EpollClose(int epfd) = 0;
  virtual sim::Task<std::vector<EpollEvent>> EpollWait(sim::CpuCore* core, int epfd,
                                                       size_t max_events, SimTime timeout) = 0;
};

}  // namespace netkernel::core

#endif  // SRC_CORE_SOCKET_API_H_
