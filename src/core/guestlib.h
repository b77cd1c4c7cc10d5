// Copyright (c) NetKernel reproduction authors.
// GuestLib: NetKernel's in-guest socket redirection (paper §4.1-§4.2).
//
// In the real system GuestLib is a guest-kernel module that registers the
// SOCK_NETKERNEL socket type and a full BSD socket implementation whose
// entry points (nk_sendmsg, nk_recvmsg, nk_poll, ...) translate socket calls
// into NQEs. Here it implements the same SocketApi as the Baseline, so
// unmodified applications run on either architecture.
//
// Datapath reproduced from the paper:
//   * control ops -> job queue; results <- completion queue;
//   * send() copies payload into the shared hugepage region and enqueues a
//     kSend NQE carrying the data pointer (send queue), returning once the
//     bytes are buffered (pipelining, §4.6) subject to send-buffer credits;
//   * received data arrives as kRecvData NQEs (receive queue) pointing at
//     hugepage chunks; recv() copies out and frees the chunk;
//   * epoll is served from GuestLib state exactly like nk_poll: readiness is
//     "are there receive-queue chunks (or a FIN) for this socket";
//   * interrupt-driven polling (§4.6): the NK device polls for
//     guest_poll_period after activity, then sleeps until CoreEngine wakes it.

#ifndef SRC_CORE_GUESTLIB_H_
#define SRC_CORE_GUESTLIB_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/coreengine.h"
#include "src/core/epoll.h"
#include "src/core/socket_api.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nk_device.h"
#include "src/sim/fifo.h"
#include "src/sim/id_table.h"
#include "src/tcpstack/cost_model.h"
#include "src/tcpstack/tcp_types.h"

namespace netkernel::core {

class GuestLib : public SocketApi {
 public:
  // Costs come from CoreEngine::costs(), and the guest kernel's syscall and
  // epoll costs from tcp::KernelProfile(), as a Baseline guest's.
  struct Config {
    uint64_t sndbuf_bytes = 4 * kMiB;  // per-socket send-credit limit
  };

  // `vcpus[i]` owns queue set i of `dev`. The hugepage pool is the region
  // shared with this VM's NSM.
  GuestLib(sim::EventLoop* loop, uint8_t vm_id, CoreEngine* ce, shm::NkDevice* dev,
           shm::HugepagePool* pool, std::vector<sim::CpuCore*> vcpus, Config config);

  // Shared-memory receive-credit channel: ServiceLib observes freed chunks.
  void SetRecvCreditCallback(std::function<void(uint32_t vm_sock, uint32_t bytes)> cb) {
    recv_credit_cb_ = std::move(cb);
  }

  sim::EventLoop* loop() override { return loop_; }
  uint8_t vm_id() const { return vm_id_; }

  sim::Task<int> Socket(sim::CpuCore* core) override;
  sim::Task<int> Bind(sim::CpuCore* core, int fd, netsim::IpAddr ip, uint16_t port) override;
  sim::Task<int> Listen(sim::CpuCore* core, int fd, int backlog, bool reuseport) override;
  sim::Task<int> Connect(sim::CpuCore* core, int fd, netsim::IpAddr ip, uint16_t port) override;
  sim::Task<int> Accept(sim::CpuCore* core, int fd) override;
  sim::Task<int> Close(sim::CpuCore* core, int fd) override;

  // Zero-copy registered-buffer datapath: TX loans are carved straight from
  // the shared hugepage pool (the app fills them in place — no
  // userspace->hugepage copy), travel as kSendZc NQEs the NSM stack transmits
  // from directly, and free on kSendZcComplete once ACKed; RX loans hand the
  // inbound hugepage chunk to the app and return receive credit on release.
  // SocketApi's Send/Recv copy shims gather through Sendv and scatter
  // through Recvv, over the same machinery.
  sim::Task<int> AcquireTxBuf(sim::CpuCore* core, int fd, uint32_t len, NkBuf* out) override;
  sim::Task<int64_t> SendBuf(sim::CpuCore* core, int fd, NkBuf buf) override;
  sim::Task<int64_t> RecvBuf(sim::CpuCore* core, int fd, NkBuf* out) override;
  sim::Task<int> ReleaseBuf(sim::CpuCore* core, int fd, NkBuf buf) override;
  sim::Task<int64_t> Sendv(sim::CpuCore* core, int fd, const NkConstIoVec* iov,
                           int iovcnt) override;
  sim::Task<int64_t> Recvv(sim::CpuCore* core, int fd, const NkIoVec* iov, int iovcnt) override;

  // SOCK_DGRAM redirection: the same NQE channel carries datagram verbs
  // (kSocketUdp/kBindUdp/kSendTo/kRecvFrom) — the NQE protocol is transport
  // agnostic, which is the point of adding UDP without touching apps.
  sim::Task<int> SocketDgram(sim::CpuCore* core) override;
  sim::Task<int64_t> SendTo(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip, uint16_t dst_port,
                            const uint8_t* data, uint64_t len) override;
  sim::Task<int64_t> RecvFrom(sim::CpuCore* core, int fd, uint8_t* out, uint64_t max,
                              netsim::IpAddr* src_ip, uint16_t* src_port) override;
  // Zero-copy datagrams: a TX loan travels as a kSendToZc NQE (credit returns
  // on kSendToResult once the NSM stack commits the wire datagram); an RX
  // loan hands the kDgramRecv[Zc] chunk to the app, credit returning through
  // the kRecvFrom channel at ReleaseBuf.
  sim::Task<int64_t> SendToBuf(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip,
                               uint16_t dst_port, NkBuf buf) override;
  sim::Task<int64_t> RecvFromBuf(sim::CpuCore* core, int fd, NkBuf* out, netsim::IpAddr* src_ip,
                                 uint16_t* src_port) override;

  int EpollCreate() override { return epolls_.Create(); }
  int EpollCtl(int epfd, int fd, uint32_t mask) override { return epolls_.Ctl(epfd, fd, mask); }
  int EpollClose(int epfd) override { return epolls_.Destroy(epfd); }
  sim::Task<std::vector<EpollEvent>> EpollWait(sim::CpuCore* core, int epfd, size_t max_events,
                                               SimTime timeout) override;

  // Stats.
  uint64_t nqes_sent() const { return nqes_sent_; }
  uint64_t nqes_received() const { return nqes_received_; }
  // Sends CoreEngine rejected with an error completion; each one had its
  // hugepage chunk freed and its send credit returned here.
  uint64_t send_credit_reclaims() const { return send_credit_reclaims_; }
  // Zero-copy datapath counters: kSendZc NQEs issued and kSendZcComplete
  // completions applied (credit conservation: after traffic drains, every
  // issued zc send has exactly one completion).
  uint64_t zc_sends() const { return zc_sends_; }
  uint64_t zc_completions() const { return zc_completions_; }
  // Same conservation pair for zero-copy datagrams (kSendToZc issued vs
  // kSendToResult completions whose original op was kSendToZc), plus the
  // kDgramRecvZc chunks that arrived without a rcvbuf copy.
  uint64_t dgram_zc_sends() const { return dgram_zc_sends_; }
  uint64_t dgram_zc_completions() const { return dgram_zc_completions_; }
  uint64_t dgram_zc_recvs() const { return dgram_zc_recvs_; }
  // Failover surface: kNsmRehomed notifications applied (datagram sockets
  // replayed onto the standby NSM) and stream sockets errored by an NSM
  // teardown FIN — each of the latter is a reconnect the application owes.
  uint64_t nsm_rehomes() const { return nsm_rehomes_; }
  uint64_t reconnects_required() const { return reconnects_required_; }
  // Inbound NQEs that told this guest to free a chunk it does not own (bad
  // offset or already free) — refused instead of aborting the pool. Nonzero
  // means a hostile or corrupted NSM-side writer (nkguard's guest-side twin).
  uint64_t guard_bad_frees() const { return guard_bad_frees_; }

  // Attaches the sampled NQE lifecycle tracer: T0 (guest-enqueue) stamps when
  // an NQE enters a ring, T4 (guest-reap) when its completion is applied.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct RxChunk {
    uint64_t ptr = 0;
    uint32_t size = 0;
    uint32_t consumed = 0;
  };
  // One received datagram: a hugepage chunk plus the packed source address.
  struct DgramChunk {
    uint64_t ptr = 0;
    uint32_t size = 0;
    uint64_t src = 0;  // PackAddr(src_ip, src_port)
  };
  struct GSock {
    uint32_t handle = 0;
    int fd = -1;
    int qset = 0;
    bool dgram = false;
    // Datagram bind memory: replayed to the standby NSM on kNsmRehomed so
    // bound server sockets keep receiving after a failover.
    bool dgram_bound = false;
    uint64_t dgram_bound_addr = 0;  // PackAddr(ip, port)
    std::unique_ptr<sim::SimEvent> ev;
    // Control-op completion.
    bool op_done = false;
    int op_result = 0;
    bool connect_done = false;
    int connect_result = 0;
    bool connected = false;
    bool error = false;
    int err = 0;
    // Receive.
    sim::Fifo<RxChunk> rx;
    uint64_t rx_bytes = 0;
    bool fin = false;
    // Datagram receive (whole datagrams, never partially consumed).
    sim::Fifo<DgramChunk> drx;
    uint64_t drx_bytes = 0;
    // Send credits.
    uint64_t send_usage = 0;
    uint64_t send_limit = 0;
    // Zero-copy loans keyed by pool offset. TX: acquired buffers whose credit
    // is reserved (value = reserved bytes). RX: chunks loaned to the app
    // (size credited back on release; dgram loans return their credit through
    // the kRecvFrom NQE channel instead of the shared-memory channel).
    struct RxLoan {
      uint32_t size = 0;
      bool dgram = false;
    };
    std::unordered_map<uint64_t, uint32_t> tx_loans;
    std::unordered_map<uint64_t, RxLoan> rx_loans;
    // Listener.
    bool listening = false;
    sim::Fifo<uint64_t> pending_conns;  // NSM socket ids awaiting accept()
  };

  GSock* FindByFd(int fd);
  GSock* FindByHandle(uint32_t handle);
  int QueueSetOf(sim::CpuCore* core) const;
  GSock& NewSock(sim::CpuCore* core);
  uint32_t Readiness(int fd);

  // Guest -> NSM emission on `g`'s queue set. The NQE is built straight in
  // its ring slot, or in the overflow park once the ring has backed up.
  // `vm_sock` is `g`'s handle, except for a listener's unclaimed
  // connections, which Close links to throwaway handles. `flags` is
  // reserved[1] (listen's reuseport).
  void EnqueueJob(const GSock& g, shm::NqeOp op, uint32_t vm_sock, uint64_t op_data = 0,
                  uint8_t flags = 0);
  void EnqueueSend(const GSock& g, shm::NqeOp op, uint64_t op_data, uint64_t data_ptr,
                   uint32_t size);
  void EnqueueRing(bool send_ring, int qset, shm::NqeOp op, uint32_t vm_sock, uint64_t op_data,
                   uint64_t data_ptr, uint32_t size, uint8_t flags);
  void FlushOverflow(int qset);
  // Issues a control op on `g` and waits for its completion NQE.
  sim::Task<int> DoControlOp(sim::CpuCore* core, GSock& g, shm::NqeOp op, uint64_t op_data = 0,
                             uint8_t flags = 0);

  // Inbound NQE processing (interrupt-driven polling model).
  void OnDeviceWake();
  void ProcessInbound(int qs);
  void ApplyInbound(const shm::Nqe& nqe);
  // The host re-homed this VM onto a standby NSM with no socket state:
  // replay creation + remembered binds for every datagram socket.
  void OnNsmRehomed(uint8_t new_nsm_id);

  sim::EventLoop* loop_;
  uint8_t vm_id_;
  CoreEngine* ce_;
  shm::NkDevice* dev_;
  obs::Tracer* tracer_ = nullptr;
  shm::HugepagePool* pool_;
  std::vector<sim::CpuCore*> vcpus_;
  Config config_;
  std::function<void(uint32_t, uint32_t)> recv_credit_cb_;

  // socks_ owns the sockets by handle; by_fd_ indexes the same sockets by
  // fd. Handles and fds are both handed out in sequence and never reused, so
  // each lookup is a bounds-checked index. A handle also comes back in every
  // NSM->guest NQE, where a forged one finds nothing and grows nothing.
  sim::IdTable<GSock> socks_;
  sim::IdTable<GSock, GSock*> by_fd_;
  uint32_t next_handle_ = 1;
  int next_fd_ = 3;
  EpollRegistry epolls_;

  std::vector<bool> drain_scheduled_;
  std::vector<std::vector<shm::Nqe>> batches_;  // per queue set: the batch in flight
  std::vector<SimTime> poll_until_;  // per queue set: device polls until here
  // Ring-full backpressure: NQEs wait here (FIFO per queue set) until the
  // ring drains — e.g. when CoreEngine rate-limits this VM (§7.6).
  struct Overflow {
    sim::Fifo<std::pair<bool, shm::Nqe>> nqes;  // (send_ring, nqe)
    bool flush_scheduled = false;
  };
  std::vector<Overflow> overflow_;
  uint64_t nqes_sent_ = 0;
  uint64_t nqes_received_ = 0;
  uint64_t send_credit_reclaims_ = 0;
  uint64_t zc_sends_ = 0;
  uint64_t zc_completions_ = 0;
  uint64_t dgram_zc_sends_ = 0;
  uint64_t dgram_zc_completions_ = 0;
  uint64_t dgram_zc_recvs_ = 0;
  uint64_t nsm_rehomes_ = 0;
  uint64_t guard_bad_frees_ = 0;
  uint64_t reconnects_required_ = 0;
};

}  // namespace netkernel::core

#endif  // SRC_CORE_GUESTLIB_H_
