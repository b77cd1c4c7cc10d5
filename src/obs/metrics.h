// Copyright (c) NetKernel reproduction authors.
// nkobs part 1: the unified metrics registry.
//
// Components keep their own counters; the registry holds *sources* —
// callbacks that read them at collection time — under stable dotted names
// like `ce.shard0.nqes_switched` or `nsm1.tcp.retransmits`. A stats struct
// (CoreEngineStats, PerVmStats, GuardStats, GuardVmStats, TcpStackStats,
// UdpStackStats, Host::FailoverStats) exposes itself through the counter
// table next to it (src/common/counters.h), which RegisterCounters turns
// into one source per row; the ServiceLib/GuestLib accessor counters are
// registered one by one. Nothing on the datapath touches the registry:
// counters stay plain per-shard fields (the wait-free per-thread-slot idea of
// Correia et al., which in a single-threaded DES degenerates to an ordinary
// field write), and aggregation happens only when someone asks for a dump.
//
// Export surfaces: Prometheus text exposition (dots sanitized to underscores)
// and a flat JSON object, both via MetricsRegistry; Host::DumpMetrics() wires
// every component of a host into one registry.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/counters.h"

namespace netkernel::obs {

// Log-linear histogram: exact bins for small values, then 2^kSubBits
// sub-buckets per power of two — constant relative error (~12% with
// kSubBits=3) across the full uint64 range, 512 fixed bins, no allocation on
// Record(). Values are unitless; trace latencies record nanoseconds.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr uint64_t kSubBuckets = 1ull << kSubBits;
  static constexpr size_t kNumBins = 512;

  void Record(uint64_t value) { RecordN(value, 1); }
  void RecordN(uint64_t value, uint64_t n);

  uint64_t Count() const { return count_; }
  double Sum() const { return sum_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  uint64_t MaxValue() const { return max_; }
  uint64_t MinValue() const { return count_ == 0 ? 0 : min_; }

  // Percentile by cumulative bin walk with linear interpolation inside the
  // containing bin. p is clamped to [0, 100]; an empty histogram reports 0,
  // p=0 reports MinValue() and p=100 MaxValue() (both tracked exactly, so a
  // single-sample histogram reports that sample for every p).
  double Percentile(double p) const;

  // Adds every bin of `other` into this histogram. Merging per-shard
  // histograms equals recording the union of their samples (bin-exactly; the
  // only loss is the within-bin position each sample already gave up).
  void Merge(const Histogram& other);

  // Bin geometry, exposed for the exposition formats and tests.
  static size_t BinIndex(uint64_t value);
  static uint64_t BinLower(size_t bin);
  static uint64_t BinWidth(size_t bin);
  uint64_t BinCount(size_t bin) const { return bins_[bin]; }

 private:
  uint64_t bins_[kNumBins] = {};
  uint64_t count_ = 0;
  uint64_t max_ = 0;
  uint64_t min_ = 0;
  double sum_ = 0.0;
};

// Name -> source registry with Prometheus and JSON export. Sources are read
// lazily at export time, so the registry can be built once per dump from the
// live objects without copying any stats.
class MetricsRegistry {
 public:
  using Source = std::function<double()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Dotted metric names: `<component>.<instance>.<counter>`. Registering the
  // same name twice is an invariant violation (it would silently shadow).
  void RegisterCounter(const std::string& name, Source src, std::string help = "");
  void RegisterGauge(const std::string& name, Source src, std::string help = "");

  // One counter per row of a stats struct's counter table, named
  // `prefix + row.name`. `get()` returns the struct; it runs at export time,
  // so what it captures must outlive the registry.
  template <typename Stats, size_t N, typename Get>
  void RegisterCounters(const std::string& prefix, const CounterRow<Stats> (&rows)[N], Get get) {
    for (const CounterRow<Stats>& row : rows) {
      RegisterCounter(
          prefix + row.name,
          [get, field = row.field] { return static_cast<double>(get().*field); }, row.help);
    }
  }

  // Registers an externally-owned histogram (e.g. the Tracer's per-stage
  // latency histograms). The pointer must outlive the registry.
  void RegisterHistogram(const std::string& name, const Histogram* hist,
                         std::string help = "");

  // Convenience: registry-owned histogram, for callers with no natural home
  // for the storage.
  Histogram* AddOwnedHistogram(const std::string& name, std::string help = "");

  bool Has(const std::string& name) const;
  // Current value of a counter/gauge; NK_CHECKs that the name exists.
  double Value(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;
  size_t size() const { return scalars_.size() + hists_.size(); }

  // Prometheus text exposition format v0.0.4: `# HELP` / `# TYPE` comments,
  // histograms as cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
  // Dotted names are sanitized ('.' and '-' become '_').
  std::string PrometheusText() const;

  // Flat JSON object: scalars as numbers, histograms as
  // {"count":..,"sum":..,"min":..,"max":..,"p50":..,"p99":..}.
  std::string Json() const;

  static std::string Sanitize(const std::string& dotted);

 private:
  enum class Kind { kCounter, kGauge };
  struct Scalar {
    Kind kind;
    Source src;
    std::string help;
  };
  struct Hist {
    const Histogram* hist;
    std::string help;
  };

  std::map<std::string, Scalar> scalars_;
  std::map<std::string, Hist> hists_;
  std::vector<std::unique_ptr<Histogram>> owned_;
};

}  // namespace netkernel::obs

#endif  // SRC_OBS_METRICS_H_
