// Copyright (c) NetKernel reproduction authors.
// Flight-recorder soak (slow label): many seeded iterations of a topology
// tuned to generate rare-path datapath events — a tiny CoreEngine pending
// bound (parks + drops + error completions), forced queue-set migrations, and
// zero-copy traffic (chunk frees) — each iteration checking the recorder's
// structural invariants: bounded ring occupancy, monotone per-recorder
// sequence numbers, non-decreasing virtual-time snapshots, an accurate
// overwrite ledger, and a merged dump that stays well-formed while tracing is
// simultaneously enabled. The point is that the recorder can absorb an
// unbounded event stream indefinitely without growing, reordering, or
// corrupting its tail.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/netkernel.h"

namespace netkernel {
namespace {

using core::Host;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;
using obs::FlightRecorder;

sim::Task<void> SoakStreamSink(Vm* vm, uint16_t port, int conns) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int lfd = co_await api.Socket(cpu);
  co_await api.Bind(cpu, lfd, 0, port);
  co_await api.Listen(cpu, lfd, 64, false);
  for (int i = 0; i < conns; ++i) {
    int fd = co_await api.Accept(cpu, lfd);
    if (fd < 0) co_return;
    sim::Spawn([](SocketApi& a, sim::CpuCore* c, int f) -> sim::Task<void> {
      std::vector<uint8_t> buf(16 * 1024);
      for (;;) {
        int64_t r = co_await a.Recv(c, f, buf.data(), buf.size());
        if (r <= 0) break;
      }
      co_await a.Close(c, f);
    }(api, cpu, fd));
  }
}

// Streams zero-copy loans: every chunk the NSM consumes and frees records a
// ZC_FREE flight event, so sustained zc traffic is sustained recorder load.
sim::Task<void> SoakSender(Vm* vm, netsim::IpAddr dst, uint16_t port, uint64_t bytes) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) co_return;
  if (0 != co_await api.Connect(cpu, fd, dst, port)) co_return;
  uint64_t sent = 0;
  while (sent < bytes) {
    core::NkBuf loan;
    if (0 != co_await api.AcquireTxBuf(cpu, fd, 8192, &loan)) break;
    loan.size = loan.capacity;
    std::memset(loan.data, 0x77, loan.size);
    int64_t n = co_await api.SendBuf(cpu, fd, loan);
    if (n <= 0) break;
    sent += static_cast<uint64_t>(n);
  }
  co_await api.Close(cpu, fd);
}

void CheckRecorderInvariants(const FlightRecorder& rec) {
  ASSERT_LE(rec.size(), rec.capacity()) << rec.origin();
  ASSERT_EQ(rec.overwritten(),
            rec.total_recorded() > rec.capacity() ? rec.total_recorded() - rec.capacity()
                                                  : 0u)
      << rec.origin();
  std::vector<obs::FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), rec.size()) << rec.origin();
  for (size_t i = 1; i < events.size(); ++i) {
    // Oldest-first: sequence numbers strictly increase, virtual time never
    // runs backwards.
    ASSERT_GT(events[i].seq, events[i - 1].seq) << rec.origin();
    ASSERT_GE(events[i].t, events[i - 1].t) << rec.origin();
  }
}

TEST(ObsSoak, FlightRecorderSurvivesSustainedRarePathPressure) {
  uint64_t iters = 40;
  if (const char* s = std::getenv("NK_OBS_SOAK_ITERS")) {
    iters = std::strtoull(s, nullptr, 0);
  }
  uint64_t total_events = 0;
  uint64_t overwrite_iters = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = 0x0b5e55ull + i;
    SCOPED_TRACE(::testing::Message() << "soak seed " << seed);
    Rng rng(seed);
    sim::EventLoop loop;
    netsim::Fabric fabric(&loop);
    Host::Options opts;
    opts.ce.shards = 2;
    // A tiny pending bound makes parks/drops routine instead of rare.
    opts.ce.pending_bound = 4 + rng.NextBounded(8);
    Host host(&loop, &fabric, "host", opts);
    host.SetTraceSampling(1 + static_cast<uint32_t>(rng.NextBounded(64)));
    Nsm* nsm = host.CreateNsm("nsm", 2, NsmKind::kKernel);
    Vm* sink = host.CreateNetkernelVm("sink", 1, nsm);
    Vm* src = host.CreateNetkernelVm("src", 2, nsm);
    const int conns = 2 + static_cast<int>(rng.NextBounded(3));
    sim::Spawn(SoakStreamSink(sink, 7000, conns));
    for (int c = 0; c < conns; ++c) {
      sim::Spawn(SoakSender(src, sink->ip(), 7000, (1 + rng.NextBounded(4)) * kMiB));
    }
    // Shuffle queue sets between shards mid-run to force migrations.
    for (int m = 0; m < 6; ++m) {
      loop.Schedule((2 + rng.NextBounded(40)) * kMillisecond, [&host, &rng, src] {
        host.ce().AssignQueueSetToShard(src->id(), static_cast<uint8_t>(rng.NextBounded(2)),
                                        static_cast<int>(rng.NextBounded(2)));
      });
    }
    loop.Run(loop.Now() + 300 * kMillisecond);

    std::vector<const FlightRecorder*> recorders = host.ce().FlightRecorders();
    recorders.push_back(&nsm->servicelib()->recorder());
    uint64_t iter_events = 0;
    bool overwrote = false;
    for (const FlightRecorder* rec : recorders) {
      CheckRecorderInvariants(*rec);
      iter_events += rec->total_recorded();
      overwrote = overwrote || rec->overwritten() > 0;
    }
    total_events += iter_events;
    if (overwrote) ++overwrite_iters;

    // The merged dump and the metrics exposition stay well-formed under
    // pressure (and cheap: bounded by last_k, not by total_recorded).
    std::string dump = host.DumpFlightRecorder(24);
    EXPECT_NE(dump.find("flight recorder"), std::string::npos);
    std::string json = host.DumpMetricsJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_GT(host.DumpMetrics().size(), 0u);
  }

  // The soak must actually pressure the rare paths: events flowed and the
  // bounded rings wrapped at least once across the sweep.
  EXPECT_GT(total_events, 1000u);
  EXPECT_GT(overwrite_iters, 0u);
  std::printf("obs_soak: %llu iterations, %llu flight events, %llu iterations wrapped\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(overwrite_iters));
}

}  // namespace
}  // namespace netkernel
