// Copyright (c) NetKernel reproduction authors.
// nkobs tests: log-linear histogram geometry, percentile edge cases (both the
// bench Summary and the obs Histogram), histogram merge == union of samples,
// the metrics registry and its Prometheus/JSON exposition, sampled NQE
// lifecycle tracing through a live host, the datapath flight recorder, and
// the kQueryVmStatWide regression for counters past 2^32.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/netkernel.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace netkernel {
namespace {

using core::CeMessage;
using core::CeOp;
using core::Host;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;
using core::VmStatField;
using core::WideVmStat;
using obs::FlightEventType;
using obs::FlightRecorder;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceDelta;

// ---------------------------------------------------------------------------
// Histogram: bin geometry, percentiles, merge.
// ---------------------------------------------------------------------------

TEST(ObsHistogramTest, BinGeometryInvariants) {
  // Small values get exact bins.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BinIndex(v), v);
    EXPECT_EQ(Histogram::BinLower(Histogram::BinIndex(v)), v);
  }
  // Every value lands in a bin whose [lower, lower+width) range contains it,
  // and bin lower bounds are monotone.
  std::vector<uint64_t> probes = {8,    9,       15,     16,       17,
                                  100,  1000,    4095,   4096,     65537,
                                  1u << 20,      (1u << 20) + 123, 1ull << 40};
  for (uint64_t v : probes) {
    size_t bin = Histogram::BinIndex(v);
    ASSERT_LT(bin, Histogram::kNumBins);
    uint64_t lo = Histogram::BinLower(bin);
    uint64_t w = Histogram::BinWidth(bin);
    EXPECT_LE(lo, v) << v;
    EXPECT_LT(v - lo, w) << v;
  }
  for (size_t b = 1; b < 200; ++b) {
    EXPECT_EQ(Histogram::BinLower(b - 1) + Histogram::BinWidth(b - 1),
              Histogram::BinLower(b));
  }
}

TEST(ObsHistogramTest, PercentileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.Percentile(50.0), 0.0);  // empty -> 0
  EXPECT_EQ(h.Count(), 0u);

  h.Record(42);  // single sample -> that sample for every p
  EXPECT_EQ(h.Percentile(0.0), 42.0);
  EXPECT_EQ(h.Percentile(50.0), 42.0);
  EXPECT_EQ(h.Percentile(100.0), 42.0);

  Histogram g;
  for (uint64_t v = 1; v <= 1000; ++v) g.Record(v);
  EXPECT_EQ(g.Percentile(0.0), 1.0);      // p=0 -> min
  EXPECT_EQ(g.Percentile(100.0), 1000.0); // p=100 -> max
  // Mid percentiles within the bin's relative error (~1/kSubBuckets).
  double p50 = g.Percentile(50.0);
  EXPECT_NEAR(p50, 500.0, 500.0 / Histogram::kSubBuckets + 1);
  double p99 = g.Percentile(99.0);
  EXPECT_NEAR(p99, 990.0, 990.0 / Histogram::kSubBuckets + 1);
  // Percentiles are monotone in p.
  double prev = 0.0;
  for (double p = 0.0; p <= 100.0; p += 5.0) {
    double v = g.Percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(ObsHistogramTest, MergeEqualsUnionOfSamples) {
  // Recording A then B into separate histograms and merging must be
  // bin-exactly equal to recording A union B into one histogram.
  Histogram a, b, both;
  uint64_t x = 1;
  for (int i = 0; i < 5000; ++i) {
    x = x * 2862933555777941757ull + 3037000493ull;  // LCG, deterministic
    uint64_t v = x >> (x % 48);                      // span many octaves
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    both.Record(v);
  }
  Histogram merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.Count(), both.Count());
  EXPECT_EQ(merged.MinValue(), both.MinValue());
  EXPECT_EQ(merged.MaxValue(), both.MaxValue());
  // Sum accumulates in floating point; addition order differs between the
  // interleaved and the merged paths, so allow relative rounding error.
  EXPECT_NEAR(merged.Sum(), both.Sum(), 1e-9 * both.Sum());
  for (size_t bin = 0; bin < Histogram::kNumBins; ++bin) {
    ASSERT_EQ(merged.BinCount(bin), both.BinCount(bin)) << bin;
  }
  // Percentiles of the merge are identical (same bins, same interpolation).
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), both.Percentile(p)) << p;
  }
}

// ---------------------------------------------------------------------------
// Summary::Percentile edge cases (the bench-side percentile).
// ---------------------------------------------------------------------------

TEST(SummaryPercentileTest, EdgeCases) {
  Summary empty;
  EXPECT_EQ(empty.Percentile(0.0), 0.0);
  EXPECT_EQ(empty.Percentile(50.0), 0.0);
  EXPECT_EQ(empty.Percentile(100.0), 0.0);

  Summary one;
  one.Add(7.5);
  EXPECT_EQ(one.Percentile(0.0), 7.5);
  EXPECT_EQ(one.Percentile(50.0), 7.5);
  EXPECT_EQ(one.Percentile(100.0), 7.5);

  Summary many;
  for (int i = 1; i <= 100; ++i) many.Add(static_cast<double>(i));
  EXPECT_EQ(many.Percentile(0.0), many.Min());
  EXPECT_EQ(many.Percentile(100.0), many.Max());
  EXPECT_EQ(many.Percentile(0.0), 1.0);
  EXPECT_EQ(many.Percentile(100.0), 100.0);
  // Interpolated median of 1..100 is 50.5.
  EXPECT_DOUBLE_EQ(many.Median(), 50.5);
}

// ---------------------------------------------------------------------------
// MetricsRegistry: registration, lookup, exposition formats.
// ---------------------------------------------------------------------------

TEST(ObsRegistryTest, CountersGaugesAndLookup) {
  MetricsRegistry reg;
  uint64_t hits = 3;
  reg.RegisterCounter("ce.shard0.nqes_switched", [&] { return double(hits); },
                      "NQEs switched");
  reg.RegisterGauge("nsm1.svc.backlog", [] { return 17.0; });
  EXPECT_TRUE(reg.Has("ce.shard0.nqes_switched"));
  EXPECT_FALSE(reg.Has("ce.shard9.nqes_switched"));
  EXPECT_EQ(reg.Value("ce.shard0.nqes_switched"), 3.0);
  hits = 11;  // sources are lazy: the registry reads live state
  EXPECT_EQ(reg.Value("ce.shard0.nqes_switched"), 11.0);
  EXPECT_EQ(reg.Value("nsm1.svc.backlog"), 17.0);
  EXPECT_EQ(reg.size(), 2u);

  Histogram* h = reg.AddOwnedHistogram("trace.vm1.switch_ns", "switch latency");
  h->Record(100);
  ASSERT_NE(reg.FindHistogram("trace.vm1.switch_ns"), nullptr);
  EXPECT_EQ(reg.FindHistogram("trace.vm1.switch_ns")->Count(), 1u);
  EXPECT_EQ(reg.size(), 3u);

  EXPECT_EQ(MetricsRegistry::Sanitize("ce.shard0.nqes-switched"),
            "ce_shard0_nqes_switched");
}

// Minimal Prometheus text-exposition parser: validates the v0.0.4 grammar the
// acceptance criteria require (every sample line is `name{labels} value` or
// `name value`, names are [a-zA-Z_:][a-zA-Z0-9_:]*, every series has a # TYPE,
// histogram buckets are cumulative and end with +Inf).
void ValidatePrometheusText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::map<std::string, std::string> type_of;  // base name -> type
  std::map<std::string, double> last_bucket;   // hist name -> last le count
  int samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name, rest;
      ls >> hash >> kind >> name;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      if (kind == "TYPE") {
        ls >> rest;
        ASSERT_TRUE(rest == "counter" || rest == "gauge" || rest == "histogram")
            << line;
        type_of[name] = rest;
      }
      continue;
    }
    // Sample line: metric_name[{labels}] value
    size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string name = line.substr(0, name_end);
    ASSERT_FALSE(name.empty()) << line;
    for (char c : name) {
      ASSERT_TRUE(isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')
          << line;
    }
    ASSERT_FALSE(isdigit(static_cast<unsigned char>(name[0]))) << line;
    std::string value_part;
    if (line[name_end] == '{') {
      size_t close = line.find('}');
      ASSERT_NE(close, std::string::npos) << line;
      value_part = line.substr(close + 1);
    } else {
      value_part = line.substr(name_end);
    }
    std::istringstream vs(value_part);
    double v = -1;
    if (value_part.find("+Inf") == std::string::npos) {
      ASSERT_TRUE(static_cast<bool>(vs >> v)) << line;
    }
    // Strip _bucket/_sum/_count to find the declared base series.
    std::string base = name;
    for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
      if (base.size() > suffix.size() &&
          base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
        std::string candidate = base.substr(0, base.size() - suffix.size());
        if (type_of.count(candidate) != 0) base = candidate;
      }
    }
    ASSERT_TRUE(type_of.count(base) != 0) << "sample without # TYPE: " << line;
    if (name.size() > 7 && name.compare(name.size() - 7, 7, "_bucket") == 0 &&
        line[name_end] == '{') {
      // Cumulative within one histogram: counts never decrease.
      ASSERT_GE(v, last_bucket.count(base) != 0 ? last_bucket[base] : 0.0) << line;
      last_bucket[base] = v;
    }
    ++samples;
  }
  EXPECT_GT(samples, 0);
}

TEST(ObsRegistryTest, PrometheusTextParses) {
  MetricsRegistry reg;
  reg.RegisterCounter("ce.shard0.nqes_switched", [] { return 123.0; }, "switched");
  reg.RegisterGauge("nsm1.svc.backlog", [] { return 4.0; });
  Histogram* h = reg.AddOwnedHistogram("trace.vm1.switch_ns", "switch latency");
  for (uint64_t v : {10u, 100u, 1000u, 10000u}) h->Record(v);
  std::string text = reg.PrometheusText();
  ValidatePrometheusText(text);
  EXPECT_NE(text.find("ce_shard0_nqes_switched 123"), std::string::npos) << text;
  EXPECT_NE(text.find("trace_vm1_switch_ns_count 4"), std::string::npos) << text;
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos) << text;
}

TEST(ObsRegistryTest, DuplicateRegistrationAborts) {
  MetricsRegistry reg;
  reg.RegisterCounter("a.b", [] { return 0.0; });
  EXPECT_DEATH(reg.RegisterCounter("a.b", [] { return 1.0; }), "a.b");
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

TEST(ObsFlightRecorderTest, BoundedRingAndDump) {
  sim::EventLoop loop;
  FlightRecorder rec(&loop, "ce.shard0", 4);
  EXPECT_EQ(rec.size(), 0u);
  for (uint64_t i = 0; i < 10; ++i) {
    rec.Record(FlightEventType::kDrop, 1, 0, 0, 77, i);
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.overwritten(), 6u);
  std::vector<obs::FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and only the newest 4 survive.
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].detail, 6 + i);
  std::string dump = rec.Dump();
  EXPECT_NE(dump.find("ce.shard0"), std::string::npos) << dump;
  EXPECT_NE(dump.find("DROP"), std::string::npos) << dump;
}

TEST(ObsFlightRecorderTest, MergedDumpOrdersByVirtualTime) {
  sim::EventLoop loop;
  FlightRecorder a(&loop, "ce.shard0");
  FlightRecorder b(&loop, "nsm1.svc");
  a.Record(FlightEventType::kPark, 1, 0, 0);
  loop.Schedule(5 * kMicrosecond,
                [&] { b.Record(FlightEventType::kRingFullDrop, 2, 1, 0); });
  loop.Schedule(9 * kMicrosecond,
                [&] { a.Record(FlightEventType::kQsetMigration, 1, 2, 0, 0, 1); });
  loop.Run(kMillisecond);
  std::string merged = FlightRecorder::DumpMerged({&a, &b});
  size_t park = merged.find("PARK");
  size_t drop = merged.find("RING_FULL");
  size_t mig = merged.find("QSET_MIGRATE");
  ASSERT_NE(park, std::string::npos) << merged;
  ASSERT_NE(drop, std::string::npos) << merged;
  ASSERT_NE(mig, std::string::npos) << merged;
  EXPECT_LT(park, drop);
  EXPECT_LT(drop, mig);
}

// ---------------------------------------------------------------------------
// Lifecycle tracer.
// ---------------------------------------------------------------------------

// A tracer that never sampled has no record table: NQEs that arrive with a
// nonzero trace id (forged, or stamped by another host's tracer) must find
// nothing at any stamp.
TEST(ObsTracerTest, NeverEnabledTracerIgnoresForgedTraceIds) {
  sim::EventLoop loop;
  obs::Tracer tr(&loop);
  for (uint16_t id : {uint16_t{1}, uint16_t{4242}, uint16_t{65535}}) {
    shm::Nqe nqe;
    shm::SetNqeTraceId(&nqe, id);
    shm::Nqe completion;
    EXPECT_EQ(tr.OnCeDequeue(nqe, 0), 0u);         // T1
    EXPECT_EQ(tr.BeginDispatch(nqe), 0u);          // T2
    EXPECT_EQ(tr.TagCompletion(&completion), 0u);  // T3
    tr.EndDispatch();
    EXPECT_EQ(tr.OnGuestReap(nqe), 0u);  // T4
    EXPECT_EQ(shm::NqeTraceId(completion), 0);
  }
  EXPECT_EQ(tr.samples_started(), 0u);
  EXPECT_EQ(tr.samples_completed(), 0u);
  EXPECT_TRUE(tr.TracedVms().empty());
  EXPECT_TRUE(tr.TracedShards().empty());
}

// ---------------------------------------------------------------------------
// Live-host fixtures: tracing, registry wiring, wide stat reads, recorder
// capture of real datapath events.
// ---------------------------------------------------------------------------

class ObsHostTest : public ::testing::Test {
 protected:
  ObsHostTest() : fabric_(&loop_) {}

  Host& TheHost() {
    if (!host_) host_ = std::make_unique<Host>(&loop_, &fabric_, "host");
    return *host_;
  }

  void Run(SimTime d) { loop_.Run(loop_.Now() + d); }

  sim::EventLoop loop_;
  netsim::Fabric fabric_;
  std::unique_ptr<Host> host_;
};

sim::Task<void> ObsEchoServer(Vm* vm, uint16_t port, int n) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int lfd = co_await api.Socket(cpu);
  co_await api.Bind(cpu, lfd, 0, port);
  co_await api.Listen(cpu, lfd, 64, false);
  for (int i = 0; i < n; ++i) {
    int fd = co_await api.Accept(cpu, lfd);
    if (fd < 0) co_return;
    std::vector<uint8_t> buf(32 * 1024);
    for (;;) {
      int64_t r = co_await api.Recv(cpu, fd, buf.data(), buf.size());
      if (r <= 0) break;
      co_await api.Send(cpu, fd, buf.data(), static_cast<uint64_t>(r));
    }
    co_await api.Close(cpu, fd);
  }
}

sim::Task<void> ObsEchoClient(Vm* vm, netsim::IpAddr ip, uint16_t port,
                              uint64_t bytes, bool* ok) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) co_return;
  if (0 != co_await api.Connect(cpu, fd, ip, port)) co_return;
  std::vector<uint8_t> data(16 * 1024, 0xab);
  uint64_t sent = 0, got = 0;
  while (sent < bytes) {
    uint64_t chunk = std::min<uint64_t>(data.size(), bytes - sent);
    if (static_cast<int64_t>(chunk) != co_await api.Send(cpu, fd, data.data(), chunk)) {
      co_return;
    }
    sent += chunk;
    while (got < sent) {
      int64_t r = co_await api.Recv(cpu, fd, data.data(), data.size());
      if (r <= 0) co_return;
      got += static_cast<uint64_t>(r);
    }
  }
  co_await api.Close(cpu, fd);
  *ok = got == bytes;
}

TEST_F(ObsHostTest, TraceStagesThroughLiveWorkload) {
  Host& h = TheHost();
  h.SetTraceSampling(1);  // trace every NQE: every stage must populate
  Nsm* nsm = h.CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* server = h.CreateNetkernelVm("server", 1, nsm);
  Vm* client = h.CreateNetkernelVm("client", 1, nsm);
  bool ok = false;
  sim::Spawn(ObsEchoServer(server, 7000, 1));
  sim::Spawn(ObsEchoClient(client, server->ip(), 7000, 256 * 1024, &ok));
  Run(5 * kSecond);
  ASSERT_TRUE(ok);

  const obs::Tracer& tr = h.tracer();
  EXPECT_GT(tr.samples_started(), 0u);
  EXPECT_GT(tr.samples_completed(), 0u);
  EXPECT_LE(tr.samples_completed(), tr.samples_started());

  // Both VMs enqueued NQEs; at least one completed the full T0..T4 journey.
  std::vector<uint8_t> vms = tr.TracedVms();
  ASSERT_FALSE(vms.empty());
  uint64_t full_journeys = 0;
  for (uint8_t vm : vms) {
    const Histogram& q = tr.VmDelta(vm, TraceDelta::kRingQueueing);
    const Histogram& s = tr.VmDelta(vm, TraceDelta::kSwitch);
    const Histogram& st = tr.VmDelta(vm, TraceDelta::kStackService);
    const Histogram& c = tr.VmDelta(vm, TraceDelta::kCompletion);
    EXPECT_GT(q.Count(), 0u) << int(vm);
    EXPECT_GT(s.Count(), 0u) << int(vm);
    // Stage deltas are causal: later-stage counts never exceed earlier.
    EXPECT_LE(s.Count(), q.Count()) << int(vm);
    EXPECT_LE(st.Count(), s.Count()) << int(vm);
    EXPECT_LE(c.Count(), st.Count()) << int(vm);
    full_journeys += c.Count();
    // Switch latency includes at least the modeled per-NQE switch work.
    if (s.Count() > 0) {
      EXPECT_GT(s.Percentile(50.0), 0.0);
    }
  }
  EXPECT_EQ(full_journeys, tr.samples_completed());

  // The switch-side deltas also land per shard.
  std::vector<uint32_t> shards = tr.TracedShards();
  ASSERT_FALSE(shards.empty());
  uint64_t shard_switch = 0;
  for (uint32_t s : shards) {
    shard_switch += tr.ShardDelta(s, TraceDelta::kSwitch).Count();
  }
  uint64_t vm_switch = 0;
  for (uint8_t vm : vms) vm_switch += tr.VmDelta(vm, TraceDelta::kSwitch).Count();
  EXPECT_EQ(shard_switch, vm_switch);

  // The tracer's histograms surface in the host metrics dump.
  std::string prom = h.DumpMetrics();
  ValidatePrometheusText(prom);
  EXPECT_NE(prom.find("trace_samples_completed"), std::string::npos);
  EXPECT_NE(prom.find("ring_queueing_ns"), std::string::npos);
}

TEST_F(ObsHostTest, TracingDisabledLeavesNqesUntouched) {
  Host& h = TheHost();  // sampling defaults to 0: tracing off
  Nsm* nsm = h.CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* server = h.CreateNetkernelVm("server", 1, nsm);
  Vm* client = h.CreateNetkernelVm("client", 1, nsm);
  bool ok = false;
  sim::Spawn(ObsEchoServer(server, 7000, 1));
  sim::Spawn(ObsEchoClient(client, server->ip(), 7000, 64 * 1024, &ok));
  Run(5 * kSecond);
  ASSERT_TRUE(ok);
  EXPECT_EQ(h.tracer().samples_started(), 0u);
  EXPECT_TRUE(h.tracer().TracedVms().empty());
}

TEST_F(ObsHostTest, HostMetricsCoverEveryComponent) {
  Host& h = TheHost();
  h.SetTraceSampling(16);
  Nsm* nsm = h.CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* server = h.CreateNetkernelVm("server", 1, nsm);
  Vm* client = h.CreateNetkernelVm("client", 1, nsm);
  bool ok = false;
  sim::Spawn(ObsEchoServer(server, 7000, 1));
  sim::Spawn(ObsEchoClient(client, server->ip(), 7000, 128 * 1024, &ok));
  Run(5 * kSecond);
  ASSERT_TRUE(ok);

  MetricsRegistry reg;
  h.BuildMetricsRegistry(&reg);
  // The existing stats structs surface under their stable dotted names.
  EXPECT_GT(reg.Value("ce.shard0.nqes_switched"), 0.0);
  EXPECT_GT(reg.Value("ce.vm1.switched"), 0.0);
  EXPECT_GT(reg.Value("ce.vm1.bytes"), 0.0);
  EXPECT_GT(reg.Value("nsm1.tcp.segments_sent"), 0.0);
  EXPECT_GT(reg.Value("nsm1.tcp.conns_established"), 0.0);
  EXPECT_GT(reg.Value("nsm1.svc.nqes_processed"), 0.0);
  EXPECT_GT(reg.Value("vm1.guest.nqes_sent"), 0.0);
  EXPECT_GT(reg.Value("vm2.guest.nqes_sent"), 0.0);
  EXPECT_TRUE(reg.Has("nsm1.udp.datagrams_sent"));
  EXPECT_TRUE(reg.Has("trace.samples_started"));

  // Registry values agree with the structs they source.
  EXPECT_EQ(reg.Value("ce.vm1.switched"), double(h.VmNkStats(server).switched));
  EXPECT_EQ(reg.Value("nsm1.tcp.segments_sent"),
            double(nsm->stack()->stats().segments_sent));

  // Both exposition formats are well-formed.
  ValidatePrometheusText(h.DumpMetrics());
  std::string json = h.DumpMetricsJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.find_last_not_of(" \n")], '}');
  EXPECT_NE(json.find("\"ce.shard0.nqes_switched\""), std::string::npos);
}

TEST_F(ObsHostTest, ShmNsmSharesTheDriversMetricsTraceAndFlightRecorder) {
  // The shared-memory NSM rides the same ServiceLib driver as the stack
  // NSMs: it registers the same svc.* counters, stamps T2/T3, and its flight
  // recorder joins the merged dump through the same code.
  Host& h = TheHost();
  h.SetTraceSampling(1);
  Nsm* nsm = h.CreateNsm("shm", 2, NsmKind::kShm);
  Vm* server = h.CreateNetkernelVm("server", 1, nsm);
  Vm* client = h.CreateNetkernelVm("client", 1, nsm);
  h.StartFailoverController();
  bool ok = false;
  sim::Spawn(ObsEchoServer(server, 7000, 1));
  sim::Spawn(ObsEchoClient(client, server->ip(), 7000, 64 * 1024, &ok));
  Run(50 * kMillisecond);
  h.StopFailoverController();
  ASSERT_TRUE(ok);

  MetricsRegistry reg;
  h.BuildMetricsRegistry(&reg);
  EXPECT_GT(reg.Value("nsm1.svc.nqes_processed"), 0.0);
  EXPECT_EQ(reg.Value("nsm1.svc.nqes_processed"), double(nsm->servicelib()->nqes_processed()));
  EXPECT_GT(reg.Value("nsm1.svc.heartbeats_sent"), 0.0);
  EXPECT_GT(reg.Value("nsm1.svc.bytes_copied"), 0.0);
  EXPECT_TRUE(reg.Has("nsm1.svc.flight_events"));
  EXPECT_TRUE(reg.Has("nsm1.svc.guard_drops"));
  EXPECT_FALSE(reg.Has("nsm1.tcp.segments_sent")) << "no stack behind a shm NSM";

  // T2 (NSM dispatch) and T3 (completion enqueue) stamps: requests traced
  // through the shm NSM complete their whole journey.
  uint64_t served = 0;
  for (uint8_t vm : h.tracer().TracedVms()) {
    served += h.tracer().VmDelta(vm, TraceDelta::kStackService).Count();
  }
  EXPECT_GT(served, 0u);
  EXPECT_GT(h.tracer().samples_completed(), 0u);

  // Quarantine runs the driver's per-VM teardown, which the NSM's own
  // recorder logs into the merged dump.
  h.QuarantineVm(client);
  EXPECT_NE(h.DumpFlightRecorder(64).find("nsm1.svc"), std::string::npos);
}

TEST_F(ObsHostTest, QueryVmStatWideSurvivesPast32Bits) {
  Host& h = TheHost();
  Nsm* nsm = h.CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* vm = h.CreateNetkernelVm("vm", 1, nsm);
  const uint8_t id = vm->id();

  // Push the byte counter past 2^32 (5 GiB) plus a recognizable remainder.
  const uint64_t big = (5ull << 30) + 12345;
  h.ce().AddVmStatForTest(id, VmStatField::kBytesKiB, big);
  ASSERT_EQ(h.ce().QueryVmStatRaw(id, VmStatField::kBytesKiB), big);

  auto wide_read = [&](VmStatField f) {
    uint32_t words[2];
    for (uint32_t w = 0; w < 2; ++w) {
      CeMessage resp = h.ce().HandleControlMessage(
          {static_cast<uint32_t>(CeOp::kQueryVmStatWide),
           (uint32_t(id) << 16) | (static_cast<uint32_t>(f) << 8) | w});
      EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(CeOp::kOk));
      words[w] = resp.ce_data;
    }
    return WideVmStat(words[0], words[1]);
  };
  EXPECT_EQ(wide_read(VmStatField::kBytesKiB), big);

  auto narrow_read = [&](VmStatField f) {
    CeMessage resp = h.ce().HandleControlMessage(
        {static_cast<uint32_t>(CeOp::kQueryVmStats),
         (uint32_t(id) << 8) | static_cast<uint32_t>(f)});
    EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(CeOp::kOk));
    return resp.ce_data;
  };

  // A switched-NQE counter past 2^32: the narrow op saturates, the wide op
  // returns the full value.
  const uint64_t huge = (1ull << 32) + 99;
  h.ce().AddVmStatForTest(id, VmStatField::kSwitched, huge);
  EXPECT_EQ(narrow_read(VmStatField::kSwitched), UINT32_MAX);  // the old failure mode
  EXPECT_EQ(wide_read(VmStatField::kSwitched), huge);

  // Every selector reads its own counter: the five fields hold distinct
  // values, and each lands in its named PerVmStats member and reads back
  // over both ops.
  const uint64_t dropped = 7;
  const uint64_t throttled = 3000000011ull;  // fits the narrow op
  const uint64_t deferred = (3ull << 32) + 5;  // saturates it
  h.ce().AddVmStatForTest(id, VmStatField::kDropped, dropped);
  h.ce().AddVmStatForTest(id, VmStatField::kThrottled, throttled);
  h.ce().AddVmStatForTest(id, VmStatField::kDeferred, deferred);
  const core::PerVmStats direct = h.ce().VmStats(id);
  EXPECT_EQ(direct.switched, huge);
  EXPECT_EQ(direct.dropped, dropped);
  EXPECT_EQ(direct.throttled, throttled);
  EXPECT_EQ(direct.bytes, big);
  EXPECT_EQ(direct.deferred, deferred);
  EXPECT_EQ(narrow_read(VmStatField::kDropped), dropped);
  EXPECT_EQ(narrow_read(VmStatField::kThrottled), throttled);
  EXPECT_EQ(narrow_read(VmStatField::kBytesKiB), big >> 10);  // KiB, fits 32 bits
  EXPECT_EQ(narrow_read(VmStatField::kDeferred), UINT32_MAX);
  EXPECT_EQ(wide_read(VmStatField::kSwitched), huge);
  EXPECT_EQ(wide_read(VmStatField::kDropped), dropped);
  EXPECT_EQ(wide_read(VmStatField::kThrottled), throttled);
  EXPECT_EQ(wide_read(VmStatField::kBytesKiB), big);  // raw bytes
  EXPECT_EQ(wide_read(VmStatField::kDeferred), deferred);

  // Malformed selectors are rejected.
  CeMessage bad_field = h.ce().HandleControlMessage(
      {static_cast<uint32_t>(CeOp::kQueryVmStatWide), (uint32_t(id) << 16) | (200u << 8)});
  EXPECT_EQ(bad_field.ce_op, static_cast<uint32_t>(CeOp::kError));
  CeMessage bad_word = h.ce().HandleControlMessage(
      {static_cast<uint32_t>(CeOp::kQueryVmStatWide),
       (uint32_t(id) << 16) | (0u << 8) | 2u});
  EXPECT_EQ(bad_word.ce_op, static_cast<uint32_t>(CeOp::kError));
}

TEST_F(ObsHostTest, FlightRecorderSeesRealDatapathEvents) {
  Host& h = TheHost();
  Nsm* nsm = h.CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* server = h.CreateNetkernelVm("server", 1, nsm);
  Vm* client = h.CreateNetkernelVm("client", 1, nsm);
  bool ok = false;
  sim::Spawn(ObsEchoServer(server, 7000, 1));
  sim::Spawn(ObsEchoClient(client, server->ip(), 7000, 64 * 1024, &ok));
  Run(5 * kSecond);
  ASSERT_TRUE(ok);

  // The recorders exist and the merged dump is well-formed even when the run
  // was clean (zero-copy frees may or may not appear depending on path).
  std::string dump = h.DumpFlightRecorder(16);
  EXPECT_NE(dump.find("flight recorder"), std::string::npos) << dump;
}

}  // namespace
}  // namespace netkernel
