// Copyright (c) NetKernel reproduction authors.
// Allocation guards for the simulator's hot path: once the event loop's slab,
// heap and same-instant lane have grown to their peak, scheduling and firing
// events with captures of up to 48 bytes (this + a netsim::Packet) performs
// no heap allocation, whether through EventLoop::Schedule or CpuCore::Charge,
// at the current instant or later. Likewise, once the pool and the FIFOs
// have grown, coroutine frames, segments, datagrams, a byte buffer's chunk
// queue, a TCP request/response exchange and a shared-memory NSM stream
// cost nothing, and an id forged on a shared ring grows no table.
//
// Its own binary, because it replaces the global operator new and delete to
// count calls.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/core/netkernel.h"
#include "src/netsim/fabric.h"
#include "src/netsim/packet.h"
#include "src/sim/callback.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"
#include "src/sim/pool.h"
#include "src/sim/task.h"
#include "src/tcpstack/byte_buffer.h"
#include "src/tcpstack/stack.h"
#include "src/udpstack/udp_types.h"

namespace {
size_t g_allocs = 0;
size_t g_alloc_bytes = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  g_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Kept out of line, so GCC does not see free() meet an inlined operator new
// and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace netkernel::sim {
namespace {

// The largest per-packet capture: Link::Enqueue's [this, packet].
static_assert(sizeof(void*) + sizeof(netsim::Packet) <= 48);

struct HotPath {
  EventLoop loop;
  CpuCore core{&loop, "core"};
  uint64_t sum = 0;
  uint64_t fired = 0;

  // Schedules `n` events with 48-byte captures, a quarter each at Now(),
  // later, as a zero-cycle charge and as a costed charge; every eighth one
  // chains a same-instant follow-up from inside its callback. Then runs them.
  void Round(int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t a = static_cast<uint64_t>(i);
      auto fn = [self = this, a, b = a + 1, c = a + 2, d = a + 3, e = a + 4] {
        self->sum += a + b + c + d + e;
        ++self->fired;
        if (a % 8 == 0) {
          self->loop.ScheduleAfter(0, [self, a, b, c, d, e] {
            self->sum += a ^ b ^ c ^ d ^ e;
            ++self->fired;
          });
        }
      };
      static_assert(sizeof(fn) == 48 && sizeof(fn) <= Callback::kInlineSize);
      switch (i % 4) {
        case 0:
          loop.ScheduleAfter(0, fn);
          break;
        case 1:
          loop.ScheduleAfter(1 + i % 7, fn);
          break;
        case 2:
          core.Charge(0, fn);
          break;
        default:
          core.Charge(100, fn);
          break;
      }
    }
    loop.Run();
  }
};

TEST(SimAlloc, HotPathSchedulesWithoutAllocating) {
  HotPath h;
  h.Round(10000);  // warm-up: grows the slab, the heap and the lane
  const uint64_t fired_before = h.fired;
  const size_t before = g_allocs;
  h.Round(10000);
  const size_t allocs = g_allocs - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(h.fired - fired_before, 10000u + 10000u / 8);
  EXPECT_EQ(h.loop.pending(), 0u);
}

TEST(SimAlloc, PacketCaptureStaysInline) {
  EventLoop loop;
  netsim::Packet pkt;
  pkt.payload = std::make_shared<int>(5);
  int delivered = 0;
  loop.ScheduleAfter(1, [] {});  // grows the slab and the heap
  loop.Run();
  const size_t before = g_allocs;
  loop.ScheduleAfter(3, [p = std::move(pkt), &delivered]() mutable {
    delivered = *std::static_pointer_cast<const int>(p.payload);
  });
  EXPECT_EQ(g_allocs - before, 0u);
  loop.Run();
  EXPECT_EQ(delivered, 5);
}

// Counts its destructions, not those of moved-from husks.
struct Counted {
  int* dtors;
  bool live = true;
  explicit Counted(int* d) : dtors(d) {}
  Counted(Counted&& o) noexcept : dtors(o.dtors), live(std::exchange(o.live, false)) {}
  Counted(const Counted&) = delete;
  ~Counted() {
    if (live) ++*dtors;
  }
};

TEST(SimAlloc, LargeCaptureRunsOnceAndIsDestroyedOnce) {
  EventLoop loop;
  int runs = 0, dtors = 0;
  auto big = [pad = std::array<uint8_t, Callback::kInlineSize>{}, c = Counted(&dtors), &runs] {
    runs += 1 + pad[0];
  };
  static_assert(sizeof(big) > Callback::kInlineSize);
  loop.ScheduleAfter(1, [] {});  // grows the slab and the heap
  loop.Run();
  const size_t before = g_allocs;
  loop.ScheduleAfter(4, std::move(big));
  EXPECT_EQ(g_allocs - before, 1u);  // one box on the heap
  EXPECT_EQ(dtors, 0);
  loop.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(dtors, 1);

  // The same for a cancelled one, in the lane and in the heap.
  int cancelled_dtors = 0;
  EventHandle lane = loop.ScheduleAfter(
      0, [pad = std::array<uint8_t, 64>{}, c = Counted(&cancelled_dtors), &runs] { ++runs; });
  EventHandle heap = loop.ScheduleAfter(
      9, [pad = std::array<uint8_t, 64>{}, c = Counted(&cancelled_dtors), &runs] { ++runs; });
  lane.Cancel();
  heap.Cancel();
  EXPECT_EQ(cancelled_dtors, 2);
  loop.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(cancelled_dtors, 2);
}

TEST(SimAlloc, CallbackMovesAndDestroysEveryKindOnce) {
  int dtors = 0, runs = 0;
  {
    Callback inline_cb = [c = Counted(&dtors), &runs] { ++runs; };
    Callback boxed_cb = [pad = std::array<uint8_t, 64>{}, c = Counted(&dtors), &runs] {
      runs += 10 + pad[0];
    };
    Callback moved(std::move(inline_cb));
    EXPECT_FALSE(inline_cb);  // NOLINT(bugprone-use-after-move)
    moved();
    moved = std::move(boxed_cb);  // destroys the inline callable
    EXPECT_EQ(dtors, 1);
    moved();
    Callback trivial = [&runs] { runs += 100; };
    moved = std::move(trivial);  // destroys the boxed callable
    EXPECT_EQ(dtors, 2);
    moved();
  }
  EXPECT_EQ(runs, 111);
  EXPECT_EQ(dtors, 2);
}

Task<int> Leaf(EventLoop* loop, int v) {
  co_await Delay(loop, 1);
  co_return v + 1;
}

Task<int> Middle(EventLoop* loop, int v) {
  int a = co_await Leaf(loop, v);
  int b = co_await Leaf(loop, a);
  co_return a + b;
}

Task<void> Root(EventLoop* loop, int* sum) { *sum += co_await Middle(loop, 1); }

TEST(SimAlloc, CoroutineFramesComeFromThePool) {
  EventLoop loop;
  int sum = 0;
  auto round = [&] {
    for (int i = 0; i < 100; ++i) Spawn(Root(&loop, &sum));
    loop.Run();
  };
  round();  // warm-up: fills the pool's frame classes, grows the loop
  const size_t before = g_allocs;
  round();
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(sum, 2 * 100 * (2 + 3));
}

TEST(SimAlloc, ByteBufferCyclesExternalChunksWithoutAllocating) {
  tcp::ByteBuffer buf;
  std::array<uint8_t, 256> data{};
  int freed = 0;
  auto cycle = [&] {
    for (int i = 0; i < 64; ++i) buf.AppendExternal(data.data(), data.size(), [&freed] { ++freed; });
    buf.Drop(64 * data.size() - 100);  // leaves part of the last chunk
    buf.Drop(100);
  };
  cycle();  // warm-up: grows the chunk FIFO
  const size_t before = g_allocs;
  cycle();
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(freed, 128);
  EXPECT_TRUE(buf.empty());
}

TEST(SimAlloc, PooledSegmentsAndDatagramsReuseTheirBlocks) {
  std::vector<std::shared_ptr<const void>> live;
  live.reserve(64);
  auto churn = [&live] {
    for (int i = 0; i < 32; ++i) {
      live.push_back(MakePooled<tcp::Segment>());
      live.push_back(MakePooled<udp::Datagram>());
    }
    live.clear();
  };
  churn();  // warm-up: one block per object alive at once
  const size_t before = g_allocs;
  for (int i = 0; i < 100; ++i) churn();
  EXPECT_EQ(g_allocs - before, 0u);
}

// Two TcpStacks over a fabric, as in tcp_test's TcpPairTest, exchanging
// 64-byte requests and responses in lockstep.
TEST(SimAlloc, TcpExchangeAllocatesOnlyTheCopiedPayloads) {
  using netsim::MakeIp;
  EventLoop loop;
  netsim::Fabric fabric(&loop);
  netsim::HostPort a = fabric.AddHost("a", MakeIp(10, 0, 0, 1), {});
  netsim::HostPort b = fabric.AddHost("b", MakeIp(10, 0, 0, 2), {});
  CpuCore core_a(&loop, "a0"), core_b(&loop, "b0");
  tcp::TcpStackConfig a_cfg, b_cfg;
  a_cfg.name = "a";
  b_cfg.name = "b";
  tcp::TcpStack sa(&loop, a.nic, {&core_a}, a_cfg);
  tcp::TcpStack sb(&loop, b.nic, {&core_b}, b_cfg);

  tcp::SocketId lst = sb.CreateSocket();
  ASSERT_EQ(sb.Bind(lst, 0, 9000), tcp::kOk);
  ASSERT_EQ(sb.Listen(lst, 16), tcp::kOk);
  tcp::SocketId cli = sa.CreateSocket();
  ASSERT_EQ(sa.Connect(cli, MakeIp(10, 0, 0, 2), 9000), tcp::kOk);
  loop.Run(loop.Now() + 100 * kMillisecond);
  tcp::SocketId srv = sb.Accept(lst);
  ASSERT_NE(srv, tcp::kInvalidSocket);

  constexpr uint64_t kMsg = 64;
  std::array<uint8_t, kMsg> req{}, resp{}, in{};
  int remaining = 0;
  int responses = 0;
  tcp::SocketCallbacks srv_cbs;
  srv_cbs.on_readable = [&] {
    while (sb.RecvAvailable(srv) >= kMsg) {
      sb.Recv(srv, in.data(), kMsg);
      ASSERT_EQ(sb.Send(srv, resp.data(), kMsg), kMsg);
    }
  };
  sb.SetCallbacks(srv, std::move(srv_cbs));
  tcp::SocketCallbacks cli_cbs;
  cli_cbs.on_readable = [&] {
    while (sa.RecvAvailable(cli) >= kMsg) {
      sa.Recv(cli, in.data(), kMsg);
      ++responses;
      --remaining;
      if (remaining > 0) {
        ASSERT_EQ(sa.Send(cli, req.data(), kMsg), kMsg);
      }
    }
  };
  sa.SetCallbacks(cli, std::move(cli_cbs));
  auto exchange = [&](int n) {
    remaining = n;
    ASSERT_EQ(sa.Send(cli, req.data(), kMsg), kMsg);
    loop.Run(loop.Now() + 1 * kSecond);
  };

  exchange(1000);  // warm-up: grows the loop, the pool, the FIFOs and batches
  const size_t before = g_allocs;
  const int responses_before = responses;
  exchange(1000);
  const size_t allocs = g_allocs - before;
  ASSERT_EQ(responses - responses_before, 1000);
  // Each message, request or response, is copied once: Send copies the
  // app's bytes into one block, whose header and bytes come from the pool's
  // free lists. From there it moves by reference: EmitSegment hands the
  // segment a slice of the block, and the receiver's HandleEstablishedData
  // keeps that slice in its receive buffer (no pool allocator is installed
  // here). Everything else on the path is reused too: the Segment, its
  // control block and its slice list (pool), the ACK segments (pool, no
  // payload), the NIC and link queues, DrainRx's batches, the byte buffers'
  // chunk FIFOs and every event's callable (inline).
  constexpr size_t kAllocsPerMessage = 0;
  EXPECT_EQ(allocs, 2 * 1000 * kAllocsPerMessage);
}

}  // namespace
}  // namespace netkernel::sim

namespace netkernel::core {
namespace {

// Two VMs on a shared-memory NSM, with `vmB` listening on port 9000.
struct ShmPair {
  sim::EventLoop loop;
  netsim::Fabric fabric{&loop};
  Host host{&loop, &fabric, "host"};
  Nsm* nsm = host.CreateNsm("shm", 1, NsmKind::kShm);
  Vm* a = host.CreateNetkernelVm("vmA", 1, nsm);
  Vm* b = host.CreateNetkernelVm("vmB", 1, nsm);

  void Run(SimTime d) { loop.Run(loop.Now() + d); }
};

TEST(SimAlloc, ShmStreamMessagesAllocateNothing) {
  // Blocking Send/Recv of 4 KiB messages from vmA to vmB through the NQE
  // path (GuestLib, CoreEngine, ServiceLib and its pool-copy transport).
  // After a warm-up the whole path runs on reused memory.
  constexpr int kWarm = 2000;
  constexpr int kMeasured = 2000;
  ShmPair p;
  int sent = 0;
  size_t at_warm = 0;
  size_t at_end = 0;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = p.b->api();
    sim::CpuCore* cpu = p.b->vcpu(0);
    int lfd = co_await api.Socket(cpu);
    co_await api.Bind(cpu, lfd, 0, 9000);
    co_await api.Listen(cpu, lfd, 16, false);
    int fd = co_await api.Accept(cpu, lfd);
    std::vector<uint8_t> buf(4096);
    while (co_await api.Recv(cpu, fd, buf.data(), buf.size()) > 0) {
    }
  };
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = p.a->api();
    sim::CpuCore* cpu = p.a->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (co_await api.Connect(cpu, fd, p.b->ip(), 9000) != 0) co_return;
    std::vector<uint8_t> msg(4096, 0x42);
    for (; sent < kWarm + kMeasured; ++sent) {
      if (sent == kWarm) at_warm = g_allocs;
      if (co_await api.Send(cpu, fd, msg.data(), msg.size()) != 4096) co_return;
    }
    at_end = g_allocs;
  };
  sim::Spawn(server());
  sim::Spawn(client());
  p.Run(kSecond);
  ASSERT_EQ(sent, kWarm + kMeasured);
  EXPECT_EQ(at_end - at_warm, 0u);
  EXPECT_EQ(p.nsm->servicelib()->bytes_copied(), 4096u * (kWarm + kMeasured));
}

// A connected vmA -> vmB stream; returns vmA's socket handle.
uint32_t ConnectPair(ShmPair& p) {
  bool connected = false;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = p.b->api();
    int lfd = co_await api.Socket(p.b->vcpu(0));
    co_await api.Bind(p.b->vcpu(0), lfd, 0, 9000);
    co_await api.Listen(p.b->vcpu(0), lfd, 16, false);
    co_await api.Accept(p.b->vcpu(0), lfd);
  };
  auto client = [&]() -> sim::Task<void> {
    int fd = co_await p.a->api().Socket(p.a->vcpu(0));
    connected = co_await p.a->api().Connect(p.a->vcpu(0), fd, p.b->ip(), 9000) == 0;
  };
  sim::Spawn(server());
  sim::Spawn(client());
  p.Run(10 * kMillisecond);
  EXPECT_TRUE(connected);
  return 1;  // GuestLib hands out handles from 1
}

// Injects an NSM->guest kRecvData straight onto vmA's receive ring, naming
// guest handle `handle` and a chunk vmA's pool never handed out.
void InjectForgedRecv(ShmPair& p, uint32_t handle) {
  ASSERT_TRUE(p.a->dev()->queue_set(0).receive.TryEnqueue(
      shm::MakeNqe(shm::NqeOp::kRecvData, p.a->id(), 0, handle, 0, 12345, 64)));
  p.a->dev()->Wake();
  p.Run(kMillisecond);
}

// Injects a guest->NSM job `op` onto vmA's job ring.
void InjectJob(ShmPair& p, shm::NqeOp op, uint32_t vm_sock, uint64_t op_data) {
  ASSERT_TRUE(p.a->dev()->queue_set(0).job.TryEnqueue(
      shm::MakeNqe(op, p.a->id(), 0, vm_sock, op_data)));
  p.host.ce().NotifyVmOutbound(p.a->id(), 0);
  p.Run(kMillisecond);
}

TEST(SimAlloc, ForgedHandleInACompletionFindsNothingAndAllocatesNothing) {
  // GuestLib finds its sockets by handle in a dense table; a handle off the
  // shared ring past its end is refused as a closed socket's NQE always was
  // (the unowned chunk counted as a bad free) and grows nothing.
  ShmPair p;
  ConnectPair(p);
  GuestLib* g = p.a->guestlib();
  InjectForgedRecv(p, 999);  // warms the inbound path
  ASSERT_EQ(g->guard_bad_frees(), 1u);
  const uint64_t received = g->nqes_received();
  const size_t before = g_allocs;
  InjectForgedRecv(p, 0xFFFFFFF0u);
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(g->guard_bad_frees(), 2u);
  EXPECT_EQ(g->nqes_received(), received + 1);
}

TEST(SimAlloc, ForgedEndpointIdInAcceptFindsNothingAndAllocatesNothing) {
  // The shared-memory NSM finds endpoints by id in a dense table. A kAccept
  // whose op_data names no endpoint links nothing and answers nothing, as
  // before, whatever the id.
  ShmPair p;
  const uint32_t handle = ConnectPair(p);
  ServiceLib* slib = p.nsm->servicelib();
  InjectJob(p, shm::NqeOp::kAccept, handle, 1000);  // warms the job path
  const uint64_t drops = slib->guard_drops();
  const uint64_t received = p.a->guestlib()->nqes_received();
  const uint64_t processed = slib->nqes_processed();
  const size_t before = g_allocs;
  InjectJob(p, shm::NqeOp::kAccept, handle, 0xFFFFFFFFFFFFull);
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(slib->nqes_processed(), processed + 1);
  EXPECT_EQ(slib->guard_drops(), drops);
  EXPECT_EQ(p.a->guestlib()->nqes_received(), received);
  EXPECT_EQ(p.host.ce().validator().stats().rejects, 0u);
}

TEST(SimAlloc, LargestGuestHandleOnSocketSizesNoTable) {
  // A kSocket naming guest handle 0xFFFFFFFF builds one endpoint, as any
  // kSocket does: the tables keyed by a guest-written handle (CoreEngine's
  // socket table, ServiceLib's by_vm_) stay hashed, and the endpoint's own
  // id comes from the NSM. The answer reaches no guest socket.
  ShmPair p;
  ConnectPair(p);
  GuestLib* g = p.a->guestlib();
  const uint64_t received = g->nqes_received();
  const uint64_t bad_frees = g->guard_bad_frees();
  const size_t before = g_allocs;
  const size_t bytes_before = g_alloc_bytes;
  InjectJob(p, shm::NqeOp::kSocket, 0xFFFFFFFFu, 0);
  EXPECT_LE(g_allocs - before, 8u);
  EXPECT_LT(g_alloc_bytes - bytes_before, 4096u);
  EXPECT_EQ(g->nqes_received(), received + 1);  // the kOpResult, for no socket
  EXPECT_EQ(g->guard_bad_frees(), bad_frees);
  EXPECT_EQ(p.nsm->servicelib()->guard_drops(), 0u);
  EXPECT_EQ(p.host.ce().validator().stats().rejects, 0u);
}

}  // namespace
}  // namespace netkernel::core
