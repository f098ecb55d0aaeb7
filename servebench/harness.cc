#include "harness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

namespace servebench {

double Samples::Quantile(double q) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * double(v_.size()));
  const size_t idx = rank < 1 ? 0 : std::min(v_.size() - 1, size_t(rank) - 1);
  return v_[idx];
}

size_t LatencyHistogram::Bucket(uint64_t ns) {
  if (ns < (uint64_t{1} << kSubBits)) return size_t(ns);
  const int msb = std::min(kMaxMsb, 63 - std::countl_zero(ns));
  const int shift = msb - kSubBits;
  const uint64_t sub = std::min<uint64_t>((ns >> shift) - (uint64_t{1} << kSubBits),
                                          (uint64_t{1} << kSubBits) - 1);
  return (size_t(shift + 1) << kSubBits) + size_t(sub);
}

double LatencyHistogram::MidNs(size_t bucket) {
  const size_t sub_buckets = size_t{1} << kSubBits;
  if (bucket < sub_buckets) return double(bucket);
  const int shift = int(bucket >> kSubBits) - 1;
  const double lo = double((sub_buckets + (bucket & (sub_buckets - 1))) << shift);
  return lo + double(uint64_t{1} << shift) / 2;
}

void LatencyHistogram::Add(int64_t ns) {
  ++counts_[Bucket(uint64_t(std::max<int64_t>(0, ns)))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& o) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  count_ += o.count_;
}

double LatencyHistogram::QuantileUs(double q) const {
  if (count_ == 0) return 0;
  const uint64_t rank = std::max<uint64_t>(1, uint64_t(std::ceil(q * double(count_))));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return MidNs(i) * 1e-3;
  }
  return MidNs(kBuckets - 1) * 1e-3;
}

void WindowedLatency::Add(size_t window, int64_t latency_ns) {
  if (window >= windows_.size()) windows_.resize(window + 1);
  windows_[window].Add(latency_ns);
}

void WindowedLatency::Merge(const WindowedLatency& o) {
  if (o.windows_.size() > windows_.size()) windows_.resize(o.windows_.size());
  for (size_t i = 0; i < o.windows_.size(); ++i) windows_[i].Merge(o.windows_[i]);
}

WindowedLatency::Summary WindowedLatency::Summarize(
    const std::vector<int64_t>& bounds, uint64_t min_p99_samples) const {
  Samples rate, p50, p99;
  Summary out;
  for (size_t i = 0; i + 1 < bounds.size() && i < windows_.size(); ++i) {
    const LatencyHistogram& h = windows_[i];
    rate.Add(double(h.count()) / Seconds(std::max<int64_t>(1, bounds[i + 1] - bounds[i])));
    p50.Add(h.QuantileUs(0.5));
    if (h.count() >= min_p99_samples) p99.Add(h.QuantileUs(0.99));
    out.samples += h.count();
  }
  out.ops_s = rate.Median();
  out.p50_us = p50.Median();
  out.p99_us = p99.Median();
  out.windows = rate.size();
  out.p99_windows = p99.size();
  return out;
}

void Report::Size(const std::string& k, double v) {
  std::ostringstream os;
  os << v;
  sizes.emplace_back(k, os.str());
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 uint64_t samples, bool modeled) {
  metrics.push_back(Metric{name, value, unit, samples, modeled});
}

const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kOp: return "op";
    case SpanName::kEngineSelect: return "serve_engine.select";
    case SpanName::kPlanDeliberate: return "exec_plan_choice.deliberate";
    case SpanName::kCmLookup: return "serve_sharded_cm.lookup";
    case SpanName::kRouterSelect: return "serve_router.select";
    case SpanName::kEngineAppend: return "serve_engine.append";
    case SpanName::kEngineDelete: return "serve_engine.delete";
    case SpanName::kEngineUpdate: return "serve_engine.update";
    case SpanName::kRouterAppend: return "serve_router.append";
    case SpanName::kRouterDelete: return "serve_router.delete";
    case SpanName::kRouterUpdate: return "serve_router.update";
    case SpanName::kMaintenanceWait: return "serve_recluster.wait";
    case SpanName::kRecover: return "serve_recovery.recover";
  }
  return "?";
}

Samples SpanLog::Durations(SpanName name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (s.name == name) out.Add(double(s.Duration()));
  }
  return out;
}

Samples SpanLog::SelfTimes(SpanName name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[size_t(s.parent)] += s.Duration();
  }
  Samples out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.Add(double(spans_[i].Duration() - child_ns[i]));
    }
  }
  return out;
}

void SpanLog::SlowestChild(SpanName name, Samples* rest,
                           Samples* slowest) const {
  std::vector<int64_t> max_child(spans_.size(), -1);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      int64_t& m = max_child[size_t(s.parent)];
      m = std::max(m, s.Duration());
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name || max_child[i] < 0) continue;
    slowest->Add(double(max_child[i]));
    rest->Add(double(std::max<int64_t>(0, spans_[i].Duration() - max_child[i])));
  }
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tspan\tparent\top\tname\tstart_ns\tend_ns\n";
  for (size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << i << '\t' << s.parent << '\t' << s.op << '\t'
          << SpanNameString(s.name) << '\t' << s.start_ns << '\t' << s.end_ns
          << '\n';
    }
  }
  return bool(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace servebench
