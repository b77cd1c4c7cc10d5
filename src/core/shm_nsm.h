// Copyright (c) NetKernel reproduction authors.
// Shared-memory NSM (paper §6.4): when two colocated VMs of the same user
// talk to each other, this NSM bypasses TCP entirely and copies message
// chunks between the two VMs' hugepage regions. It speaks the same NQE
// protocol as the TCP-backed ServiceLib, so applications are oblivious.

#ifndef SRC_CORE_SHM_NSM_H_
#define SRC_CORE_SHM_NSM_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/coreengine.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nk_device.h"
#include "src/sim/cpu.h"
#include "src/tcpstack/cost_model.h"
#include "src/tcpstack/tcp_types.h"

namespace netkernel::core {

class ShmServiceLib {
 public:
  struct Config {
    tcp::NetkernelCosts costs;
    uint64_t rx_outstanding_cap = 1 * kMiB;
    // Coalesce CoreEngine doorbells into one wakeup per dispatch round
    // (mirrors ServiceLib::Config::coalesce_wakeups).
    bool coalesce_wakeups = true;
  };

  ShmServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
                std::vector<sim::CpuCore*> cores, Config config);
  ShmServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
                std::vector<sim::CpuCore*> cores);

  void AttachVm(uint8_t vm_id, shm::HugepagePool* pool, netsim::IpAddr vm_ip);
  // Per-VM teardown (nkguard quarantine): the VM's endpoints close (peers
  // get a reset-FIN), queued copy chunks return to its pool, its NQEs are
  // swept out of the shared device rings, and the VmInfo entry is erased.
  // In-flight pool-to-pool copies unwind through their own captured pool
  // pointers, which outlive the detach (the Host keeps the quarantined VM).
  void DetachVm(uint8_t vm_id);
  void OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes);

  uint64_t bytes_copied() const { return bytes_copied_; }
  // NSM->VM NQEs lost to a full NSM-side ring (severe overload).
  uint64_t nqes_dropped() const { return nqes_dropped_; }
  // Inbound NQEs refused by the guest->nsm prefilter (defense in depth
  // behind nkguard) or swept out by a DetachVm.
  uint64_t guard_drops() const { return guard_drops_; }
  // Wakeup coalescing counters (see ServiceLib).
  uint64_t doorbells() const { return doorbell_.doorbells(); }
  uint64_t doorbells_coalesced() const { return doorbell_.coalesced(); }

 private:
  struct PendingChunk {
    uint64_t ptr = 0;   // in the sender's pool
    uint32_t size = 0;
    // Arrived as kSendZc: answer with kSendZcComplete when the chunk frees
    // (for this NSM that is when the pool-to-pool copy lands — its transport
    // IS the copy, so "transmit complete" and "delivered" coincide).
    bool zc = false;
  };
  struct Endpoint {
    uint64_t ep_id = 0;
    uint8_t vm_id = 0;
    uint8_t vm_qset = 0;
    uint32_t vm_sock = 0;
    uint8_t nsm_qset = 0;
    bool linked = false;
    uint64_t peer = 0;  // peer ep id (0 = none)
    netsim::IpAddr bound_ip = 0;
    uint16_t bound_port = 0;
    bool listening = false;
    uint64_t rx_outstanding = 0;  // bytes in peer->this direction not consumed
    std::deque<PendingChunk> pending;  // waiting for peer pool space / link
    bool copy_pending = false;
    bool fin_from_peer = false;
    bool fin_sent_to_vm = false;
    bool close_pending = false;
  };

  static uint64_t VmKey(uint8_t vm_id, uint32_t vm_sock) {
    return (static_cast<uint64_t>(vm_id) << 32) | vm_sock;
  }

  Endpoint* FindByVm(uint8_t vm_id, uint32_t vm_sock);
  Endpoint* FindByEp(uint64_t ep_id);
  void OnDeviceWake();
  void ProcessQueueSet(int qs);
  void Dispatch(const shm::Nqe& nqe);
  // Returns a guest request's payload chunk to its VM's pool; chunkless ops
  // and chunks no longer allocated are left alone.
  void FreeNqeChunk(const shm::Nqe& nqe);
  void TryConnect(uint64_t ep_id, uint64_t addr, int attempt);
  void PumpCopy(uint64_t src_ep_id);
  void MaybeFinishClose(uint64_t ep_id);
  void EnqueueToVm(const Endpoint& ep, shm::Nqe nqe, bool receive_ring);
  void Respond(const Endpoint& ep, shm::NqeOp op, shm::NqeOp orig, int32_t result,
               uint64_t op_data = 0);
  void DeliverFin(uint64_t ep_id, int32_t err);

  sim::EventLoop* loop_;
  uint8_t nsm_id_;
  CoreEngine* ce_;
  shm::NkDevice* dev_;
  std::vector<sim::CpuCore*> cores_;
  Config config_;

  struct VmInfo {
    shm::HugepagePool* pool = nullptr;
    netsim::IpAddr ip = 0;
  };
  std::unordered_map<uint8_t, VmInfo> vms_;
  std::unordered_map<uint64_t, std::unique_ptr<Endpoint>> eps_;
  std::unordered_map<uint64_t, Endpoint*> by_vm_;
  std::unordered_map<uint64_t, uint64_t> listeners_;  // (ip<<16|port) -> ep id
  std::vector<bool> drain_scheduled_;
  std::unordered_map<uint64_t, std::vector<shm::Nqe>> orphan_sends_;
  uint64_t next_ep_ = 1;
  uint64_t bytes_copied_ = 0;
  uint64_t nqes_dropped_ = 0;
  uint64_t guard_drops_ = 0;
  DoorbellCoalescer doorbell_;
};

}  // namespace netkernel::core

#endif  // SRC_CORE_SHM_NSM_H_
