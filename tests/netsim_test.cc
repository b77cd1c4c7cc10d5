// Copyright (c) NetKernel reproduction authors.
// Unit tests for the simulated fabric: links, switch, NICs, fabric assembly.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/netsim/fabric.h"
#include "src/netsim/link.h"
#include "src/netsim/nic.h"
#include "src/netsim/switch.h"
#include "src/sim/event_loop.h"

namespace netkernel::netsim {
namespace {

Packet MakePacket(IpAddr dst, uint32_t bytes, bool ecn = false) {
  Packet p;
  p.dst = dst;
  p.wire_bytes = bytes;
  p.ecn_capable = ecn;
  return p;
}

TEST(Link, SerializationAndPropagationDelay) {
  sim::EventLoop loop;
  Link::Config cfg;
  cfg.bandwidth = 10 * kGbps;
  cfg.propagation_delay = 5 * kMicrosecond;
  Link link(&loop, "l", cfg);
  SimTime arrival = -1;
  link.SetSink([&](Packet) { arrival = loop.Now(); });
  link.Enqueue(MakePacket(1, 1250));  // 1 us at 10G
  loop.Run();
  EXPECT_EQ(arrival, 6 * kMicrosecond);
}

TEST(Link, BackToBackPacketsQueue) {
  sim::EventLoop loop;
  Link::Config cfg;
  cfg.bandwidth = 10 * kGbps;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg);
  std::vector<SimTime> arrivals;
  link.SetSink([&](Packet) { arrivals.push_back(loop.Now()); });
  link.Enqueue(MakePacket(1, 1250));
  link.Enqueue(MakePacket(1, 1250));
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1 * kMicrosecond);
  EXPECT_EQ(arrivals[1], 2 * kMicrosecond);
}

TEST(Link, DropTailOnOverflow) {
  sim::EventLoop loop;
  Link::Config cfg;
  cfg.bandwidth = 1 * kGbps;
  cfg.queue_limit_bytes = 3000;
  Link link(&loop, "l", cfg);
  int delivered = 0;
  link.SetSink([&](Packet) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.Enqueue(MakePacket(1, 1500));
  loop.Run();
  EXPECT_GT(link.drops(), 0u);
  EXPECT_EQ(delivered + static_cast<int>(link.drops()), 10);
}

TEST(Link, EcnMarksAboveThreshold) {
  sim::EventLoop loop;
  Link::Config cfg;
  cfg.bandwidth = 1 * kGbps;
  cfg.queue_limit_bytes = 1 * kMiB;
  cfg.ecn_threshold_bytes = 2000;
  Link link(&loop, "l", cfg);
  int marked = 0, unmarked = 0;
  link.SetSink([&](Packet p) { (p.ce_marked ? marked : unmarked)++; });
  for (int i = 0; i < 10; ++i) link.Enqueue(MakePacket(1, 1500, /*ecn=*/true));
  loop.Run();
  EXPECT_GT(marked, 0);
  EXPECT_GT(unmarked, 0);  // first packets below threshold
  EXPECT_EQ(link.ce_marks(), static_cast<uint64_t>(marked));
}

TEST(Link, NonEcnPacketsNeverMarked) {
  sim::EventLoop loop;
  Link::Config cfg;
  cfg.bandwidth = 1 * kGbps;
  cfg.ecn_threshold_bytes = 100;
  Link link(&loop, "l", cfg);
  int marked = 0;
  link.SetSink([&](Packet p) { marked += p.ce_marked ? 1 : 0; });
  for (int i = 0; i < 10; ++i) link.Enqueue(MakePacket(1, 1500, /*ecn=*/false));
  loop.Run();
  EXPECT_EQ(marked, 0);
}

TEST(Link, DropFnInjectsLoss) {
  sim::EventLoop loop;
  Link link(&loop, "l", Link::Config{});
  int delivered = 0;
  link.SetSink([&](Packet) { ++delivered; });
  int count = 0;
  link.SetDropFn([&](const Packet&) { return ++count % 2 == 0; });
  for (int i = 0; i < 10; ++i) link.Enqueue(MakePacket(1, 100));
  loop.Run();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(link.drops(), 5u);
}

TEST(Switch, RoutesByDestination) {
  sim::EventLoop loop;
  Link l1(&loop, "l1", Link::Config{});
  Link l2(&loop, "l2", Link::Config{});
  int got1 = 0, got2 = 0;
  l1.SetSink([&](Packet) { ++got1; });
  l2.SetSink([&](Packet) { ++got2; });
  Switch sw("sw");
  sw.AddRoute(100, &l1);
  sw.AddRoute(200, &l2);
  sw.Forward(MakePacket(100, 64));
  sw.Forward(MakePacket(200, 64));
  sw.Forward(MakePacket(200, 64));
  loop.Run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 2);
}

TEST(Switch, DefaultRouteAndNoRouteDrops) {
  sim::EventLoop loop;
  Link l(&loop, "l", Link::Config{});
  int got = 0;
  l.SetSink([&](Packet) { ++got; });
  Switch sw("sw");
  sw.Forward(MakePacket(42, 64));
  EXPECT_EQ(sw.no_route_drops(), 1u);
  sw.SetDefaultRoute(&l);
  sw.Forward(MakePacket(42, 64));
  loop.Run();
  EXPECT_EQ(got, 1);
}

TEST(Nic, RxQueueAndNotifyOnEmptyToNonEmpty) {
  Nic nic("n", 5);
  int notifies = 0;
  nic.SetRxNotify([&] { ++notifies; });
  nic.Receive(MakePacket(5, 64));
  nic.Receive(MakePacket(5, 64));  // queue non-empty: no second notify
  EXPECT_EQ(notifies, 1);
  Packet out[4];
  EXPECT_EQ(nic.DrainRx(out, 4), 2u);
  nic.Receive(MakePacket(5, 64));
  EXPECT_EQ(notifies, 2);
  EXPECT_EQ(nic.rx_packets(), 3u);
}

TEST(Nic, TransmitStampsSourceAndCounts) {
  sim::EventLoop loop;
  Nic nic("n", 7);
  Switch sw("sw");
  Link l(&loop, "l", Link::Config{});
  IpAddr seen_src = 0;
  l.SetSink([&](Packet p) { seen_src = p.src; });
  sw.SetDefaultRoute(&l);
  nic.AttachSwitch(&sw);
  nic.Transmit(MakePacket(9, 64));
  loop.Run();
  EXPECT_EQ(seen_src, 7u);
  EXPECT_EQ(nic.tx_packets(), 1u);
  EXPECT_EQ(nic.tx_bytes(), 64u);
}

TEST(Fabric, TwoHostsExchangePackets) {
  sim::EventLoop loop;
  Fabric fabric(&loop);
  Link::Config cfg;
  cfg.bandwidth = 100 * kGbps;
  HostPort a = fabric.AddHost("a", MakeIp(10, 0, 0, 1), cfg);
  HostPort b = fabric.AddHost("b", MakeIp(10, 0, 0, 2), cfg);
  int b_got = 0;
  b.nic->SetRxNotify([&] {
    Packet p;
    while (b.nic->DrainRx(&p, 1) > 0) ++b_got;
  });
  a.nic->Transmit(MakePacket(MakeIp(10, 0, 0, 2), 1000));
  loop.Run();
  EXPECT_EQ(b_got, 1);
}

TEST(Fabric, ExtraRouteDeliversToSamePort) {
  // A NetKernel VM's IP routes to its NSM's port.
  sim::EventLoop loop;
  Fabric fabric(&loop);
  Link::Config cfg;
  HostPort nsm = fabric.AddHost("nsm", MakeIp(10, 0, 0, 1), cfg);
  HostPort peer = fabric.AddHost("peer", MakeIp(10, 0, 0, 2), cfg);
  IpAddr vm_ip = MakeIp(10, 0, 0, 99);
  fabric.AddRoute(vm_ip, nsm.down);
  int nsm_got = 0;
  nsm.nic->SetRxNotify([&] {
    Packet p;
    while (nsm.nic->DrainRx(&p, 1) > 0) ++nsm_got;
  });
  peer.nic->Transmit(MakePacket(vm_ip, 500));
  loop.Run();
  EXPECT_EQ(nsm_got, 1);
}

TEST(Fabric, PortSpeedLimitsHostInjection) {
  sim::EventLoop loop;
  Fabric fabric(&loop);
  Link::Config cfg;
  cfg.bandwidth = 10 * kGbps;
  cfg.propagation_delay = 0;
  HostPort a = fabric.AddHost("a", MakeIp(10, 0, 0, 1), cfg);
  HostPort b = fabric.AddHost("b", MakeIp(10, 0, 0, 2), cfg);
  SimTime last = 0;
  b.nic->SetRxNotify([&] {
    Packet p;
    while (b.nic->DrainRx(&p, 1) > 0) last = loop.Now();
  });
  // 10 x 1250B at 10G = 10 us on the up link, plus one store-and-forward
  // serialization (1 us) on the destination's down link.
  for (int i = 0; i < 10; ++i) a.nic->Transmit(MakePacket(MakeIp(10, 0, 0, 2), 1250));
  loop.Run();
  EXPECT_EQ(last, 11 * kMicrosecond);
}

TEST(Fabric, NumbersAddressesPerFabric) {
  // A topology's addresses depend on its own construction order only: a
  // second fabric in the same process starts from 10.0.0.1 again.
  sim::EventLoop loop;
  Fabric first(&loop);
  EXPECT_EQ(first.AllocIp(), MakeIp(10, 0, 0, 1));
  EXPECT_EQ(first.AllocIp(), MakeIp(10, 0, 0, 2));
  Fabric second(&loop);
  EXPECT_EQ(second.AllocIp(), MakeIp(10, 0, 0, 1));
  EXPECT_EQ(first.AllocIp(), MakeIp(10, 0, 0, 3));
}

TEST(Fabric, NeverHandsOutAnAddressTwice) {
  // Past 10.0.0.255 and 10.0.255.255 the numbering carries into the next
  // octet instead of wrapping onto an address already in use.
  sim::EventLoop loop;
  Fabric fabric(&loop);
  std::set<IpAddr> seen;
  for (int i = 0; i < 70000; ++i) ASSERT_TRUE(seen.insert(fabric.AllocIp()).second) << i;
  EXPECT_EQ(fabric.AllocIp(), MakeIp(10, 1, 17, 113));  // suffix 70001
}

}  // namespace
}  // namespace netkernel::netsim
