// Copyright (c) NetKernel reproduction authors.
// Figure 12: application-level message copy throughput through the hugepage
// datapath, vs message size.
//
// Real microbenchmark (actual CPU, steady_clock timing). One iteration is the
// paper's §7.2 sequence: (1) the application issues a send, (2) GuestLib
// allocates a hugepage chunk and copies the message in, (3) it prepares a
// send NQE with the data pointer, (4) "CoreEngine" moves the NQE between
// rings, (5) ServiceLib resolves the pointer and releases the chunk. The
// paper measures 4.9 Gbps at 64 B rising to 144 Gbps at 8 KB; the shape
// (copy-dominated growth with message size) is the reproduced result. The
// zero-copy TX path and both RX paths run the same way beside it.
//
// Flags:
//   --json <path>   write `fig12_memcopy` rows (ns_per_msg and gbps per
//                   path and size); wall-clock rows, so no gate reads them

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nqe.h"
#include "src/shm/spsc_ring.h"
#include "src/tcpstack/byte_buffer.h"

namespace {

using netkernel::bench::GlobalJson;
using netkernel::bench::MessagesPerSecond;
using netkernel::shm::HugepagePool;
using netkernel::shm::MakeNqe;
using netkernel::shm::Nqe;
using netkernel::shm::NqeOp;
using netkernel::shm::SpscRing;
using netkernel::tcp::ByteBuffer;
using netkernel::tcp::ChunkAllocator;
using netkernel::tcp::DetachedChunk;

// Compiler barriers: the pointer escapes and memory is clobbered, so the
// optimizer can elide neither the copies nor the ring trips.
inline void Escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }
inline void Clobber() { asm volatile("" : : : "memory"); }

double TxCopyPath(uint32_t msg) {
  HugepagePool pool(16 * 1024 * 1024);
  SpscRing<Nqe> send_ring(1024);
  SpscRing<Nqe> nsm_ring(1024);
  std::vector<uint8_t> app_buf(msg, 0xab);
  Nqe nqe;
  return MessagesPerSecond([&] {
    uint64_t off = pool.Alloc(msg);                       // (2) chunk
    std::memcpy(pool.Data(off), app_buf.data(), msg);     // (2) copy in
    send_ring.TryEnqueue(
        MakeNqe(NqeOp::kSend, 1, 0, 7, 0, off, msg));     // (3) NQE
    send_ring.TryDequeue(&nqe);                           // (4) switch
    nsm_ring.TryEnqueue(nqe);
    nsm_ring.TryDequeue(&nqe);
    Escape(pool.Data(nqe.data_ptr));                      // (5) resolve
    pool.Free(nqe.data_ptr);
    Clobber();
    return 1;
  });
}

// The same per-message sequence over the zero-copy loaning datapath: the
// application acquires the chunk and fills it in place (AcquireTxBuf), so
// step (2)'s staging-buffer memcpy disappears; the chunk is freed by the
// consumer only after the completion NQE (kSendZcComplete) makes the return
// trip. What remains is the per-message constant cost — alloc, two ring
// hops out, one completion hop back — which is the point: per-byte work is
// eliminated, so Gbps stops being copy-bound.
double TxZcPath(uint32_t msg) {
  HugepagePool pool(16 * 1024 * 1024);
  SpscRing<Nqe> send_ring(1024);
  SpscRing<Nqe> nsm_ring(1024);
  SpscRing<Nqe> completion_ring(1024);
  Nqe nqe;
  return MessagesPerSecond([&] {
    uint64_t off = pool.Alloc(msg);                          // acquire loan
    Escape(pool.Data(off));                                  // app fills in place
    send_ring.TryEnqueue(
        MakeNqe(NqeOp::kSendZc, 1, 0, 7, 0, off, msg));      // SendBuf
    send_ring.TryDequeue(&nqe);                              // switch
    nsm_ring.TryEnqueue(nqe);
    nsm_ring.TryDequeue(&nqe);
    Escape(pool.Data(nqe.data_ptr));                         // stack transmits from chunk
    pool.Free(nqe.data_ptr);                                 // freed on ACK
    completion_ring.TryEnqueue(
        MakeNqe(NqeOp::kSendZcComplete, 1, 0, 7, msg));      // credit return
    completion_ring.TryDequeue(&nqe);
    Clobber();
    return 1;
  });
}

// RX copy path (the pre-PR-5 ServiceLib::ShipRecv): the wire payload lands in
// the stack's own receive buffer, then ShipRecv allocates a fresh hugepage
// chunk and copies rcvbuf -> chunk before the NQE trip — two per-byte touches
// per message.
double RxCopyPath(uint32_t msg) {
  HugepagePool pool(16 * 1024 * 1024);
  SpscRing<Nqe> recv_ring(1024);
  SpscRing<Nqe> vm_ring(1024);
  std::vector<uint8_t> wire(msg, 0xcd);
  std::vector<uint8_t> rcvbuf(msg);
  Nqe nqe;
  return MessagesPerSecond([&] {
    std::memcpy(rcvbuf.data(), wire.data(), msg);       // landing (softirq)
    uint64_t off = pool.Alloc(msg);                     // ShipRecv: fresh chunk
    std::memcpy(pool.Data(off), rcvbuf.data(), msg);    // rcvbuf -> hugepage
    recv_ring.TryEnqueue(
        MakeNqe(NqeOp::kRecvData, 1, 0, 7, 0, off, msg));
    recv_ring.TryDequeue(&nqe);                         // switch
    vm_ring.TryEnqueue(nqe);
    vm_ring.TryDequeue(&nqe);
    Escape(pool.Data(nqe.data_ptr));                    // guest loan
    pool.Free(nqe.data_ptr);                            // ReleaseBuf
    Clobber();
    return 1;
  });
}

// RX zero-copy path, run through the real machinery: the receive buffer
// draws pool-backed chunks from a ChunkAllocator, so the wire payload's
// single landing copy *is* the hugepage write; ShipRecv detaches the chunk
// and forwards the handle. One per-byte touch per message — the
// rcvbuf->hugepage copy is gone, exactly as the TX pair above removed the
// app->hugepage copy.
double RxZcPath(uint32_t msg) {
  HugepagePool pool(16 * 1024 * 1024);
  SpscRing<Nqe> recv_ring(1024);
  SpscRing<Nqe> vm_ring(1024);
  std::vector<uint8_t> wire(msg, 0xcd);

  auto allocator = std::make_shared<ChunkAllocator>();
  allocator->alloc = [&pool](uint32_t size, uint64_t* handle, uint8_t** data, uint32_t* cap) {
    uint64_t off = pool.Alloc(size);
    if (off == HugepagePool::kInvalidOffset) return false;
    *handle = off;
    *data = pool.Data(off);
    *cap = pool.ChunkCapacity(off);
    return true;
  };
  allocator->free = [&pool](uint64_t handle) { pool.Free(handle); };
  ByteBuffer rcvbuf;
  rcvbuf.SetChunkAllocator(allocator);

  Nqe nqe;
  DetachedChunk chunk;
  return MessagesPerSecond([&] {
    rcvbuf.Append(wire.data(), msg);                    // landing = pool write
    while (rcvbuf.DetachFront(&chunk)) {                // ShipRecv: detach
      recv_ring.TryEnqueue(
          MakeNqe(NqeOp::kRecvData, 1, 0, 7, 0, chunk.handle, chunk.size));
      recv_ring.TryDequeue(&nqe);                       // switch
      vm_ring.TryEnqueue(nqe);
      vm_ring.TryDequeue(&nqe);
      Escape(pool.Data(nqe.data_ptr));                  // guest loan
      pool.Free(nqe.data_ptr);                          // ReleaseBuf
    }
    Clobber();
    return 1;
  });
}

}  // namespace

int main(int argc, char** argv) {
  netkernel::bench::ParseBenchFlags(argc, argv);
  netkernel::bench::PrintHeader(
      "Fig 12: message copy throughput through the hugepage datapath (real CPU)",
      "paper Fig 12 (copy path 4.9 Gbps @ 64 B -> 144 Gbps @ 8 KB)");
  struct Path {
    const char* name;
    double (*messages_per_sec)(uint32_t msg);
  };
  const Path paths[] = {
      {"copy", TxCopyPath}, {"zc", TxZcPath}, {"rx_copy", RxCopyPath}, {"rx_zc", RxZcPath}};
  std::printf("%-8s %6s %10s %10s\n", "path", "msg", "ns/msg", "Gbps");
  for (const Path& p : paths) {
    for (uint32_t msg : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
      const double rate = p.messages_per_sec(msg);
      const double ns = rate > 0 ? 1e9 / rate : 0;
      const double gbps = rate * msg * 8 / 1e9;
      std::printf("%-8s %6u %10.1f %10.2f\n", p.name, msg, ns, gbps);
      const std::string config = std::string("path=") + p.name + ",msg=" + std::to_string(msg);
      GlobalJson().Add("fig12_memcopy", config, "ns_per_msg", ns);
      GlobalJson().Add("fig12_memcopy", config, "gbps", gbps);
    }
  }
  return GlobalJson().Write() ? 0 : 2;
}
