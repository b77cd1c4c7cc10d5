// Copyright (c) NetKernel reproduction authors.

#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

#include "src/common/check.h"

namespace netkernel::obs {

// ---------------------------------------------------------------------------
// Histogram

size_t Histogram::BinIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<size_t>(value);
  int msb = 63 - std::countl_zero(value);
  int shift = msb - kSubBits;
  uint64_t sub = (value >> shift) & (kSubBuckets - 1);
  size_t bin = (static_cast<size_t>(msb - kSubBits + 1) << kSubBits) + sub;
  return bin < kNumBins ? bin : kNumBins - 1;
}

uint64_t Histogram::BinLower(size_t bin) {
  if (bin < kSubBuckets) return bin;
  size_t group = bin >> kSubBits;  // >= 1
  uint64_t sub = bin & (kSubBuckets - 1);
  int msb = static_cast<int>(group) - 1 + kSubBits;
  return (1ull << msb) + (sub << (msb - kSubBits));
}

uint64_t Histogram::BinWidth(size_t bin) {
  if (bin < kSubBuckets) return 1;
  size_t group = bin >> kSubBits;
  int msb = static_cast<int>(group) - 1 + kSubBits;
  return 1ull << (msb - kSubBits);
}

void Histogram::RecordN(uint64_t value, uint64_t n) {
  if (n == 0) return;
  bins_[BinIndex(value)] += n;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  // The extremes are tracked exactly, so report them exactly.
  if (p <= 0.0) return static_cast<double>(min_);
  if (p >= 100.0) return static_cast<double>(max_);
  // Rank in [1, count]: the sample such that `rank` samples are <= it.
  double target = p / 100.0 * static_cast<double>(count_);
  if (target < 1.0) target = 1.0;
  uint64_t cum = 0;
  for (size_t bin = 0; bin < kNumBins; ++bin) {
    if (bins_[bin] == 0) continue;
    uint64_t next = cum + bins_[bin];
    if (static_cast<double>(next) >= target) {
      // Interpolate within the bin, then clamp to the observed extremes so a
      // single-sample histogram reports the sample itself.
      double frac = (target - static_cast<double>(cum)) / static_cast<double>(bins_[bin]);
      double v = static_cast<double>(BinLower(bin)) +
                 frac * static_cast<double>(BinWidth(bin));
      double lo = static_cast<double>(min_);
      double hi = static_cast<double>(max_);
      return std::clamp(v, lo, hi);
    }
    cum = next;
  }
  return static_cast<double>(max_);
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < kNumBins; ++i) bins_[i] += other.bins_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

void MetricsRegistry::RegisterCounter(const std::string& name, Source src,
                                      std::string help) {
  NK_CHECK_MSG(!Has(name), name.c_str());
  scalars_.emplace(name, Scalar{Kind::kCounter, std::move(src), std::move(help)});
}

void MetricsRegistry::RegisterGauge(const std::string& name, Source src,
                                    std::string help) {
  NK_CHECK_MSG(!Has(name), name.c_str());
  scalars_.emplace(name, Scalar{Kind::kGauge, std::move(src), std::move(help)});
}

void MetricsRegistry::RegisterHistogram(const std::string& name, const Histogram* hist,
                                        std::string help) {
  NK_CHECK_MSG(!Has(name), name.c_str());
  NK_CHECK(hist != nullptr);
  hists_.emplace(name, Hist{hist, std::move(help)});
}

Histogram* MetricsRegistry::AddOwnedHistogram(const std::string& name, std::string help) {
  owned_.push_back(std::make_unique<Histogram>());
  Histogram* h = owned_.back().get();
  RegisterHistogram(name, h, std::move(help));
  return h;
}

bool MetricsRegistry::Has(const std::string& name) const {
  return scalars_.count(name) > 0 || hists_.count(name) > 0;
}

double MetricsRegistry::Value(const std::string& name) const {
  auto it = scalars_.find(name);
  NK_CHECK_MSG(it != scalars_.end(), name.c_str());
  return it->second.src();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : it->second.hist;
}

std::string MetricsRegistry::Sanitize(const std::string& dotted) {
  std::string out = dotted;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

namespace {

void AppendNumber(std::string* out, double v) {
  char buf[64];
  // Counters are integral in practice; print them without a mantissa so the
  // exposition stays diff-friendly.
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out->append(buf);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, s] : scalars_) {
    std::string prom = Sanitize(name);
    if (!s.help.empty()) out += "# HELP " + prom + " " + s.help + "\n";
    out += "# TYPE " + prom + (s.kind == Kind::kCounter ? " counter\n" : " gauge\n");
    out += prom + " ";
    AppendNumber(&out, s.src());
    out += "\n";
  }
  for (const auto& [name, h] : hists_) {
    std::string prom = Sanitize(name);
    if (!h.help.empty()) out += "# HELP " + prom + " " + h.help + "\n";
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cum = 0;
    for (size_t bin = 0; bin < Histogram::kNumBins; ++bin) {
      uint64_t c = h.hist->BinCount(bin);
      if (c == 0) continue;
      cum += c;
      out += prom + "_bucket{le=\"";
      AppendU64(&out, Histogram::BinLower(bin) + Histogram::BinWidth(bin) - 1);
      out += "\"} ";
      AppendU64(&out, cum);
      out += "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} ";
    AppendU64(&out, h.hist->Count());
    out += "\n" + prom + "_sum ";
    AppendNumber(&out, h.hist->Sum());
    out += "\n" + prom + "_count ";
    AppendU64(&out, h.hist->Count());
    out += "\n";
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  std::string out = "{";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
  };
  for (const auto& [name, s] : scalars_) {
    comma();
    out += "\"" + name + "\": ";
    AppendNumber(&out, s.src());
  }
  for (const auto& [name, h] : hists_) {
    comma();
    out += "\"" + name + "\": {\"count\": ";
    AppendU64(&out, h.hist->Count());
    out += ", \"sum\": ";
    AppendNumber(&out, h.hist->Sum());
    out += ", \"min\": ";
    AppendU64(&out, h.hist->MinValue());
    out += ", \"max\": ";
    AppendU64(&out, h.hist->MaxValue());
    out += ", \"p50\": ";
    AppendNumber(&out, h.hist->Percentile(50.0));
    out += ", \"p99\": ";
    AppendNumber(&out, h.hist->Percentile(99.0));
    out += "}";
  }
  out += "\n}\n";
  return out;
}

}  // namespace netkernel::obs
