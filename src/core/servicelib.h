// Copyright (c) NetKernel reproduction authors.
// ServiceLib: the NSM-side half of the socket semantics channel (paper §4.5).
//
// One NQE driver serves every NSM kind. It consumes job/send NQEs from the
// NSM's NK device, applies the guard prefilter and the eviction gate,
// dispatches each request verb, and streams completions and receive events
// back as NQEs behind coalesced CoreEngine doorbells. It also owns what every
// NSM needs whatever moves its bytes: orphan-send parking, the liveness
// heartbeat and Wedge, per-VM teardown (Shutdown, EvictVm), the T2/T3
// lifecycle-tracer stamps and the flight recorder.
//
// What differs between NSM kinds sits behind ServiceLib::Transport:
//   StackBacked  the kernel, mTCP and FairShare NSMs: a TcpStack and a
//                UdpStack in the same space as ServiceLib (the kernel-space
//                ServiceLib, or the per-core mTCP thread), so stack calls are
//                direct function calls.
//   PoolCopy     the shared-memory NSM (§6.4): colocated VMs exchange data
//                hugepage to hugepage with no network stack at all.
//
// One ServiceLib serves many VMs (multiplexing, §6.1): each VM attaches with
// its own hugepage pool and IP address, and the FairShare NSM (§6.2) installs
// a per-VM shared congestion window through SetVmCcFactory.

#ifndef SRC_CORE_SERVICELIB_H_
#define SRC_CORE_SERVICELIB_H_

#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/coreengine.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nk_device.h"
#include "src/tcpstack/stack.h"
#include "src/udpstack/stack.h"

namespace netkernel::core {

class ServiceLib {
 public:
  // Costs come from CoreEngine::costs().
  struct Config {
    // Per-connection cap on bytes shipped to the VM but not yet consumed.
    uint64_t rx_outstanding_cap = 1 * kMiB;
    // RX zero-copy (stack-backed NSMs): land inbound payload directly in the
    // VM's hugepage pool and ship detached chunks (no rcvbuf->hugepage copy).
    // Off = the pre-zc staging-copy receive path — the Table 6 RX baseline.
    bool rx_zerocopy = true;
  };

  // A guest socket as the driver sees it. Each transport derives its own
  // connection state from this and owns it; the driver indexes linked
  // connections by (vm_id, vm_sock).
  struct Conn {
    uint8_t vm_id = 0;
    uint8_t vm_qset = 0;
    uint32_t vm_sock = 0;
    uint8_t nsm_qset = 0;  // NSM device queue set serving this connection
    bool dgram = false;    // a datagram socket (kSocketUdp), else a stream
    bool linked = false;   // guest handle known (post-accept link)
    bool fin_sent_to_vm = false;
    bool close_pending = false;
    uint64_t rx_outstanding = 0;  // shipped to the guest, not yet credited
  };

  class Transport;
  // The stack-backed transport: streams on `stack`, datagrams on `udp_stack`.
  static std::unique_ptr<Transport> StackBacked(tcp::TcpStack* stack, udp::UdpStack* udp_stack);
  // The pool-copy transport of the shared-memory NSM.
  static std::unique_ptr<Transport> PoolCopy();

  // `cores` are the NSM's vCPUs: queue set qs's dispatch rounds run on
  // cores[qs % size] (for a stack-backed NSM, the cores its stacks run on).
  ServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
             std::vector<sim::CpuCore*> cores, std::unique_ptr<Transport> transport,
             Config config);
  ~ServiceLib();

  // Registers a VM served by this NSM. `pool` is the hugepage region shared
  // with that VM; `vm_ip` is the address its connections use.
  void AttachVm(uint8_t vm_id, shm::HugepagePool* pool, netsim::IpAddr vm_ip);

  // nkguard quarantine: tears down exactly one VM's NSM-side state — its
  // connections (stream connections aborted so zc frees fire, dgram sockets
  // closed, shared-memory peers reset), its NQEs swept out of the device
  // rings with payload chunks returned to its pool, its orphan sends freed —
  // while every co-tenant's connections and ring entries stay untouched. The
  // VM entry is kept (marked evicted) so stragglers already charged to an NSM
  // core unwind their chunks into the pool instead of leaking or building new
  // state; a later AttachVm reinstates the VM cleanly.
  void EvictVm(uint8_t vm_id);

  // Kills this NSM with recoverable accounting: call after the device was
  // deregistered from CoreEngine. Runs EvictVm's teardown over every VM at
  // once and drains the now-unreachable rings completely. After Shutdown,
  // every hugepage chunk this NSM ever touched is either back in its pool or
  // owned by the guest — nothing strands in dead rings. Idempotent, and safe
  // to race with an in-flight dispatch round: NQEs already charged to an NSM
  // core when the teardown runs are unwound (chunks freed) instead of
  // dispatched against dead connection state.
  void Shutdown();

  // ---- Liveness (failover detection inputs) ----
  // Periodically reports this NSM alive to CoreEngine (CeOp::kHeartbeat).
  // The beat self-cancels on Shutdown or Wedge — a dead or stalled NSM goes
  // silent, which is exactly what the failover controller watches for.
  void StartHeartbeat(SimTime period);
  void StopHeartbeat();
  // Chaos hook: the NSM stays registered but stops consuming its rings and
  // stops heartbeating — the "alive process, stalled datapath" failure mode.
  // Backlog piles up in the device's job/send rings until the controller
  // declares it wedged and fails it over.
  void Wedge();
  bool wedged() const { return wedged_; }
  uint64_t heartbeats_sent() const { return heartbeats_sent_; }

  // Shared-memory receive credit: GuestLib freed `bytes` of a chunk.
  void OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes);

  // Overrides congestion control for all (future) connections of a VM —
  // the hook the FairShare NSM uses (§6.2). Stack-backed NSMs only.
  void SetVmCcFactory(uint8_t vm_id, tcp::CcFactory factory);

  uint8_t nsm_id() const { return nsm_id_; }
  uint64_t nqes_processed() const { return nqes_processed_; }
  // NSM->VM NQEs lost to a full NSM-side ring (severe overload).
  uint64_t nqes_dropped() const { return nqes_dropped_; }
  // Inbound NQEs refused by the guest->nsm prefilter (defense in depth
  // behind nkguard — nonzero means something got past the CoreEngine), aimed
  // at a socket of the other kind, or unwound because their VM was evicted
  // mid-flight.
  uint64_t guard_drops() const { return guard_drops_; }
  // RX zero-copy accounting (stack-backed NSMs): kRecvData ships that
  // detached the stack's own pool chunk (no rcvbuf->hugepage copy) vs ships
  // that had to copy because the pool was exhausted when the segment landed
  // (heap fallback chunk) or the front chunk was partially consumed.
  uint64_t rx_zc_ships() const { return rx_zc_ships_; }
  uint64_t rx_copy_ships() const { return rx_copy_ships_; }
  // Same split for datagrams (kDgramRecvZc vs copied kDgramRecv).
  uint64_t dgram_zc_ships() const { return dgram_zc_ships_; }
  uint64_t dgram_copy_ships() const { return dgram_copy_ships_; }
  // Payload bytes copied hugepage to hugepage (pool-copy NSMs).
  uint64_t bytes_copied() const { return bytes_copied_; }
  // Wakeup coalescing: CoreEngine doorbells actually rung, and enqueues that
  // piggybacked on an already-pending doorbell (the saved wakeups).
  uint64_t doorbells() const { return doorbell_.doorbells(); }
  uint64_t doorbells_coalesced() const { return doorbell_.coalesced(); }

  // ---- Observability (nkobs) ----
  // Attaches the sampled lifecycle tracer: T2 (NSM-dispatch) stamps when a
  // traced NQE enters Dispatch, T3 (completion-enqueue) when its synchronous
  // completion rings back toward the VM.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  // This NSM's datapath flight recorder (zc chunk frees, ring-full drops,
  // shutdown drains).
  const obs::FlightRecorder& recorder() const { return recorder_; }

 private:
  class StackTransport;
  class PoolCopyTransport;

  struct VmInfo {
    shm::HugepagePool* pool = nullptr;
    netsim::IpAddr ip = 0;
    // Quarantined (EvictVm'd) VM: the entry stays so in-flight dispatch
    // stragglers can still unwind chunks into the pool, but no new state is
    // built.
    bool evicted = false;
    tcp::CcFactory cc_factory;  // optional override
  };
  // EvictVm/Shutdown scope: one VM id, or every VM.
  static constexpr int kAllVms = -1;

  static uint64_t VmKey(uint8_t vm_id, uint32_t vm_sock) {
    return (static_cast<uint64_t>(vm_id) << 32) | vm_sock;
  }
  // The routing identity of the guest that sent `nqe`, for replies to a
  // request that has (or builds) no connection.
  static Conn Requester(const shm::Nqe& nqe);

  VmInfo* FindVm(uint8_t vm_id);
  Conn* FindByVm(uint8_t vm_id, uint32_t vm_sock);
  // Marks `c` linked and indexes it under its guest handle; Unlink drops the
  // index entry (the transport still owns the connection).
  void Link(Conn& c);
  void Unlink(const Conn& c);

  // NSM -> VM NQE emission, routed by `c`'s guest identity and built
  // straight into its ring slot. EnqueueToVm returns false when the
  // destination ring is full: the NQE is dropped (counted and
  // flight-recorded) and the caller owns any referenced chunk.
  bool EnqueueToVm(const Conn& c, shm::NqeOp op, bool receive_ring, uint64_t op_data = 0,
                   uint64_t data_ptr = 0, uint32_t size = 0);
  // The same for an NQE built elsewhere (an error completion); its routing
  // fields are overwritten with `c`'s.
  bool EnqueueToVm(const Conn& c, const shm::Nqe& nqe, bool receive_ring);
  // A completion: `result` rides in `size` and the original op in
  // reserved[0].
  void Respond(const Conn& c, shm::NqeOp op, shm::NqeOp orig, int32_t result,
               uint64_t op_data = 0);
  // What both EnqueueToVm forms share: `fill` writes the whole NQE, in its
  // ring slot or, when the ring is full, in the record of the loss.
  template <typename Fill>
  bool EmitToVm(const Conn& c, bool receive_ring, const Fill& fill);
  // The one way a kFinReceived (EOF when `err` is 0) reaches a guest: at most
  // once per connection, retried until the receive ring has room.
  void DeliverFin(Conn& c, int32_t err);
  // Replays kSend NQEs that overtook `c`'s accept link.
  void ReplayOrphanSends(Conn& c);
  void Credit(Conn& c, uint64_t bytes);

  void OnDeviceWake();
  void ProcessQueueSet(int qs);
  void ScheduleHeartbeat();
  void Dispatch(const shm::Nqe& nqe);
  // Returns the payload chunk of a data-carrying guest request to its VM's
  // pool; true if one was still allocated there.
  bool FreeNqeChunk(const shm::Nqe& nqe);
  // FreeNqeChunk for teardown and eviction unwinding, which the flight
  // recorder logs as a shutdown drain.
  void DrainNqeChunk(const shm::Nqe& nqe);
  // The per-VM teardown behind EvictVm and Shutdown (vm = kAllVms).
  void Teardown(int vm);

  sim::EventLoop* loop_;
  uint8_t nsm_id_;
  CoreEngine* ce_;
  shm::NkDevice* dev_;
  std::vector<sim::CpuCore*> cores_;
  Config config_;

  // By 8-bit VM id, which the host assigns. by_vm_ stays hashed: its key
  // carries a socket handle the guest writes into the ring.
  std::array<std::optional<VmInfo>, 256> vms_;
  std::unordered_map<uint64_t, Conn*> by_vm_;
  // kSend NQEs that arrived before their connection's accept-link NQE.
  std::unordered_map<uint64_t, std::vector<shm::Nqe>> orphan_sends_;
  std::vector<bool> drain_scheduled_;
  std::vector<std::vector<shm::Nqe>> batches_;  // per queue set: the batch in flight
  DoorbellCoalescer doorbell_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder recorder_;
  uint64_t nqes_processed_ = 0;
  uint64_t nqes_dropped_ = 0;
  uint64_t guard_drops_ = 0;
  uint64_t rx_zc_ships_ = 0;
  uint64_t rx_copy_ships_ = 0;
  uint64_t dgram_zc_ships_ = 0;
  uint64_t dgram_copy_ships_ = 0;
  uint64_t bytes_copied_ = 0;
  bool shutdown_ = false;
  bool wedged_ = false;
  SimTime heartbeat_period_ = 0;  // 0 = heartbeat not running
  sim::EventHandle heartbeat_timer_;
  uint64_t heartbeats_sent_ = 0;
  // Last, so it is destroyed first: callbacks a transport left inside its
  // stacks must go dead before any driver state does.
  std::unique_ptr<Transport> transport_;
};

// What differs between NSM kinds: how each request verb acts on connection
// state and how payload moves. The driver has already applied the guard
// prefilter and the eviction gate, and resolves per-socket verbs to the Conn
// the transport linked, of the verb's own kind (shm::OpTraits::kind).
class ServiceLib::Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  virtual void Socket(const shm::Nqe& nqe) = 0;
  virtual void SocketUdp(const shm::Nqe& nqe) = 0;
  // kAccept: links the accepted connection op_data names to its guest handle
  // (and replays the orphan sends that overtook the link).
  virtual void AcceptLink(const shm::Nqe& nqe) = 0;
  virtual void Bind(const shm::Nqe& nqe, Conn& c) = 0;
  virtual void Listen(const shm::Nqe& nqe, Conn& c) = 0;
  virtual void Connect(const shm::Nqe& nqe, Conn& c) = 0;
  virtual void Send(const shm::Nqe& nqe, Conn& c) = 0;  // kSend, kSendZc
  // Datagram verbs reach only a Conn that SocketUdp linked, so a transport
  // that links none needs no override.
  virtual void BindUdp(const shm::Nqe& nqe, Conn& c);
  virtual void SendTo(const shm::Nqe& nqe, Conn& c);  // kSendTo, kSendToZc
  virtual void Close(Conn& c) = 0;
  // The guest returned receive credit on `c`: resume shipping to it.
  virtual void ResumeRecv(Conn& c) = 0;
  // Tears down the connections of VM `vm` (every VM for kAllVms), unlinking
  // them; returns how many went.
  virtual size_t DropConns(int vm) = 0;

 protected:
  ServiceLib* slib_ = nullptr;  // the driver that adopted this transport

 private:
  friend class ServiceLib;
};

// The driver as Nsm::shm_servicelib() returns it: non-null exactly for
// pool-copy (shared-memory) NSMs.
using ShmServiceLib = ServiceLib;

}  // namespace netkernel::core

#endif  // SRC_CORE_SERVICELIB_H_
