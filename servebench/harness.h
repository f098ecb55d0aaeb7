// Measurement plumbing shared by the servebench workloads: exact sample
// percentiles, the run report every workload fills, and the in-memory span
// log of the traced run.
#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return double(ns) * 1e-9; }

/// Raw per-op samples; percentiles are exact order statistics of the
/// sorted samples (nearest rank), never bucket interpolations.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// q in [0, 1]; 0 when empty.
  double Quantile(double q);
  double Median() { return Quantile(0.5); }

 private:
  std::vector<double> v_;
  bool sorted_ = false;
};

/// Latencies in fixed log-linear buckets 2^-9 wide: a percentile is the
/// nearest-rank order statistic to within 0.2%, in constant memory.
class LatencyHistogram {
 public:
  void Add(int64_t ns);
  void Merge(const LatencyHistogram& o);
  uint64_t count() const { return count_; }
  /// Nearest-rank quantile in microseconds (bucket midpoint); 0 if empty.
  double QuantileUs(double q) const;

 private:
  static constexpr int kSubBits = 9;
  static constexpr int kMaxMsb = 40;  // ~18 minutes
  static constexpr size_t kBuckets = size_t(kMaxMsb - kSubBits + 2) << kSubBits;
  static size_t Bucket(uint64_t ns);
  static double MidNs(size_t bucket);

  std::vector<uint32_t> counts_ = std::vector<uint32_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

/// One phase's op latencies split into kWindows windows. Rates and
/// percentiles are reported as the median over windows, so a burst of
/// host contention that spans fewer than half of them moves neither.
class WindowedLatency {
 public:
  void Add(size_t window, int64_t latency_ns);
  void Merge(const WindowedLatency& o);

  struct Summary {
    double ops_s = 0, p50_us = 0, p99_us = 0;
    uint64_t samples = 0;    ///< ops in all windows
    size_t windows = 0;      ///< windows counted
    size_t p99_windows = 0;  ///< windows with enough samples for a p99
  };
  /// Window i spans [bounds[i], bounds[i+1]); a window's p99 counts only
  /// with >= min_p99_samples ops in it.
  Summary Summarize(const std::vector<int64_t>& bounds,
                    uint64_t min_p99_samples) const;

 private:
  std::vector<LatencyHistogram> windows_;
};

/// One reported metric. `samples` is the sample count behind a percentile
/// or mean (0 for a single measurement); `modeled` marks numbers that come
/// from the simulated DiskModel instead of the wall clock.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  bool modeled = false;
};

/// Everything one workload run reports.
struct Report {
  std::string workload;
  /// Stated sizes (rows, heap pages, pool pages, hot-set size, threads).
  std::vector<std::pair<std::string, std::string>> sizes;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Printed beside the metrics but not part of the result: throughput and
  /// p99, whose run-to-run spread on a shared VM exceeds any useful bound.
  std::vector<Metric> info;
  /// Counts that must repeat exactly across runs of one seed.
  std::map<std::string, double> determinism;
  uint64_t op_sequence_hash = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness-gate failures; any entry fails the run.
  std::vector<std::string> errors;

  void Size(const std::string& k, double v);
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0, bool modeled = false);
  void Fail(const std::string& msg) { errors.push_back(msg); }
  bool correct() const { return errors.empty(); }
};

/// Span names of the traced run, one per layer boundary the benchmark
/// calls into.
enum class SpanName : uint16_t {
  kOp,                  ///< root: one client op
  kEngineSelect,        ///< ServingEngine::ExecuteSelect (a shard visit
                        ///< probe under a router select)
  kPlanDeliberate,      ///< ServingEngine::PlanSelect probe
  kCmLookup,            ///< ShardedCorrelationMap::Lookup probe
  kRouterSelect,        ///< ShardRouter::ExecuteSelect
  kEngineAppend,        ///< ServingEngine::ApplyAppend
  kEngineDelete,        ///< ServingEngine::ApplyDeletes / ApplyDelete
  kEngineUpdate,        ///< ServingEngine::ApplyUpdate
  kRouterAppend,        ///< ShardRouter::ApplyAppend
  kRouterDelete,        ///< ShardRouter::ApplyDelete
  kRouterUpdate,        ///< ShardRouter::ApplyUpdate
  kMaintenanceWait,     ///< writer waiting for a triggered recluster pass
  kRecover,             ///< ServingEngine/ShardRouter::Recover
};
const char* SpanNameString(SpanName n);

struct Span {
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same log, -1 for a root
  SpanName name = SpanName::kOp;
  int64_t Duration() const { return end_ns - start_ns; }
};

/// One thread's spans, kept in memory and written out after the run.
/// Probe spans that run *after* the op they decompose are parented to the
/// span of that op, so a layer's self time is its span minus its children.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }
  int32_t Add(SpanName name, uint64_t op, int32_t parent, int64_t start_ns,
              int64_t end_ns) {
    spans_.push_back(Span{op, start_ns, end_ns, parent, name});
    return int32_t(spans_.size() - 1);
  }
  void SetEnd(int32_t span, int64_t end_ns) { spans_[size_t(span)].end_ns = end_ns; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name`.
  Samples Durations(SpanName name) const;
  /// Self time of every span called `name`: duration minus its direct
  /// children's durations.
  Samples SelfTimes(SpanName name) const;
  /// Per span called `name`: its duration minus its longest direct child
  /// (a scatter's time beyond its slowest shard), and that longest child.
  void SlowestChild(SpanName name, Samples* rest, Samples* slowest) const;

 private:
  std::vector<Span> spans_;
};

/// Writes every log as TSV (thread, span id, parent, op, name, start, end).
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// FNV-1a over a value's bytes; the op-sequence fingerprint.
inline void HashMix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}
inline constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
