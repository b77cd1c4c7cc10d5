// Copyright (c) NetKernel reproduction authors.
// BaselineSocketApi: the paper's "existing architecture" (Figure 1a).
//
// The TCP stack runs inside the guest; every socket call is a guest syscall
// whose cycles land on the calling vCPU, and the stack's protocol work shares
// those same vCPUs. This is the Baseline every evaluation figure compares
// NetKernel against.

#ifndef SRC_CORE_BASELINE_API_H_
#define SRC_CORE_BASELINE_API_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/epoll.h"
#include "src/core/socket_api.h"
#include "src/tcpstack/stack.h"
#include "src/udpstack/stack.h"

namespace netkernel::core {

class BaselineSocketApi : public SocketApi {
 public:
  // `stack` must outlive the API; its cores are the guest's vCPUs.
  // `udp_stack` may be null (SOCK_DGRAM calls then fail).
  BaselineSocketApi(sim::EventLoop* loop, tcp::TcpStack* stack,
                    udp::UdpStack* udp_stack = nullptr);

  sim::EventLoop* loop() override { return loop_; }

  sim::Task<int> Socket(sim::CpuCore* core) override;
  sim::Task<int> Bind(sim::CpuCore* core, int fd, netsim::IpAddr ip, uint16_t port) override;
  sim::Task<int> Listen(sim::CpuCore* core, int fd, int backlog, bool reuseport) override;
  sim::Task<int> Connect(sim::CpuCore* core, int fd, netsim::IpAddr ip, uint16_t port) override;
  sim::Task<int> Accept(sim::CpuCore* core, int fd) override;
  sim::Task<int> Close(sim::CpuCore* core, int fd) override;

  // Zero-copy loaning surface over a heap arena (API transparency: the same
  // zc application runs unmodified against Baseline and NetKernel). TX loans
  // are heap blocks the stack transmits from directly (MSG_ZEROCOPY-style —
  // no user->kernel copy charged); the block frees once the bytes are ACKed.
  // RX loans still pay the kernel->buffer copy: with the stack inside the
  // guest there is no shared region to loan from, which is exactly the
  // architectural difference the paper's Table 6 quantifies.
  sim::Task<int> AcquireTxBuf(sim::CpuCore* core, int fd, uint32_t len, NkBuf* out) override;
  sim::Task<int64_t> SendBuf(sim::CpuCore* core, int fd, NkBuf buf) override;
  sim::Task<int64_t> RecvBuf(sim::CpuCore* core, int fd, NkBuf* out) override;
  sim::Task<int> ReleaseBuf(sim::CpuCore* core, int fd, NkBuf buf) override;
  sim::Task<int64_t> Sendv(sim::CpuCore* core, int fd, const NkConstIoVec* iov,
                           int iovcnt) override;
  sim::Task<int64_t> Recvv(sim::CpuCore* core, int fd, const NkIoVec* iov, int iovcnt) override;

  sim::Task<int> SocketDgram(sim::CpuCore* core) override;
  sim::Task<int64_t> SendTo(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip, uint16_t dst_port,
                            const uint8_t* data, uint64_t len) override;
  sim::Task<int64_t> RecvFrom(sim::CpuCore* core, int fd, uint8_t* out, uint64_t max,
                              netsim::IpAddr* src_ip, uint16_t* src_port) override;
  // Zero-copy datagrams over the same heap arena: SendToBuf transmits the
  // wire datagram straight from the loaned block (no user->kernel copy
  // charged); RecvFromBuf still pays the kernel->buffer copy, the same
  // architectural gap as stream RecvBuf.
  sim::Task<int64_t> SendToBuf(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip,
                               uint16_t dst_port, NkBuf buf) override;
  sim::Task<int64_t> RecvFromBuf(sim::CpuCore* core, int fd, NkBuf* out, netsim::IpAddr* src_ip,
                                 uint16_t* src_port) override;

  int EpollCreate() override { return epolls_.Create(); }
  int EpollCtl(int epfd, int fd, uint32_t mask) override { return epolls_.Ctl(epfd, fd, mask); }
  int EpollClose(int epfd) override { return epolls_.Destroy(epfd); }
  sim::Task<std::vector<EpollEvent>> EpollWait(sim::CpuCore* core, int epfd, size_t max_events,
                                               SimTime timeout) override;

  tcp::TcpStack* stack() { return stack_; }
  udp::UdpStack* udp_stack() { return udp_stack_; }

 private:
  struct Fd {
    tcp::SocketId sid = tcp::kInvalidSocket;
    bool dgram = false;
    udp::SocketId usid = udp::kInvalidSocket;
    std::unique_ptr<sim::SimEvent> ev;
    bool connect_done = false;
    int connect_result = 0;
    bool error = false;
    int err = 0;
  };

  // Heap arena backing the zero-copy loans. Held by shared_ptr because a TX
  // block's free callback lives inside the stack's send buffer and can fire
  // after this API object is gone (stack teardown order in Vm).
  struct Arena {
    struct Block {
      std::unique_ptr<uint8_t[]> mem;
      uint32_t size = 0;
      // Ownership already transferred to the stack (SendBuf/SendToBuf): the
      // block frees when the stack is done with it, and a second SendBuf or
      // a ReleaseBuf on the same handle is a misuse error, not a double free.
      bool in_flight = false;
    };
    std::unordered_map<uint64_t, Block> blocks;
    uint64_t next = 1;

    uint64_t Alloc(uint32_t size) {
      uint64_t id = next++;
      Block b;
      b.mem = std::make_unique<uint8_t[]>(size);
      b.size = size;
      blocks.emplace(id, std::move(b));
      return id;
    }
    Block* Find(uint64_t id) {
      auto it = blocks.find(id);
      return it == blocks.end() ? nullptr : &it->second;
    }
    void Free(uint64_t id) { blocks.erase(id); }
  };

  // Allocates the next fd and its table entry.
  int NewFd();
  int WrapSocket(tcp::SocketId sid);
  int WrapDgramSocket(udp::SocketId usid);
  void InstallCallbacks(int fd);
  uint32_t Readiness(int fd);
  Fd* FindFd(int fd);

  sim::EventLoop* loop_;
  tcp::TcpStack* stack_;
  udp::UdpStack* udp_stack_;
  // Indexed by fd: fds are handed out in sequence and never reused, and
  // nothing walks the table. Boxed, so an Fd* stays valid while a coroutine
  // holding it is suspended and later sockets grow the vector. A closed fd's
  // entry is null.
  std::vector<std::unique_ptr<Fd>> fds_;
  int next_fd_ = 3;
  EpollRegistry epolls_;
  std::shared_ptr<Arena> arena_ = std::make_shared<Arena>();
};

}  // namespace netkernel::core

#endif  // SRC_CORE_BASELINE_API_H_
