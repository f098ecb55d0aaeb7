// Tier-1 coverage for src/obs: counters/gauges/histograms must stay exact
// (count/sum/max) and within the documented quantile error bound under
// concurrent writers; the trace ring must evict oldest-first and the slow
// log keep-worst; the drift tracker must reproduce known est/actual ratios
// and roll windows at epoch advances; registry handles must be stable and
// its JSON/Prometheus exports well-formed; and a metrics-attached
// ServingEngine must count exactly the operations issued against it, with
// the WorkloadDriver's latency report agreeing with the registry snapshot
// sample-for-sample (they share one histogram stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/clustered_index.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/serving_metrics.h"
#include "obs/trace.h"
#include "serve/driver.h"
#include "serve/serving_engine.h"
#include "storage/table.h"

namespace corrmap {
namespace {

using obs::Counter;
using obs::DriftTracker;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::SelectTrace;
using obs::ServingMetrics;
using obs::SlowSelectLog;
using obs::TraceRing;
using serve::ServingEngine;
using serve::ServingOptions;

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(ObsCounterTest, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  c.Add(42);
  EXPECT_EQ(c.Value(), kThreads * kPerThread + 42);
}

TEST(ObsGaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.5);
  g.Set(-7.25);
  EXPECT_EQ(g.Value(), -7.25);
}

// ---------------------------------------------------------------------------
// Histogram: golden quantiles vs exact sorted percentiles
// ---------------------------------------------------------------------------

double ExactPercentile(std::vector<double> sorted, double q) {
  // Nearest-rank on the sorted samples -- the definition the old
  // sort-based LatencySummary used, which the histogram must track.
  const size_t idx = std::min(
      sorted.size() - 1, size_t(std::ceil(q * double(sorted.size()))) -
                             (q > 0 ? 1 : 0));
  return sorted[idx];
}

void ExpectQuantilesWithinBound(const std::vector<double>& samples) {
  Histogram h;
  for (double v : samples) h.Record(v);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  EXPECT_EQ(h.Count(), samples.size());
  double sum = 0;
  for (double v : sorted) sum += v;
  EXPECT_NEAR(h.Sum(), sum, std::abs(sum) * 1e-9 + 1e-9);
  EXPECT_EQ(h.Max(), sorted.back());

  // Documented bound: bucket midpoints are within half a sub-bucket width
  // of any sample in the bucket, i.e. 1/(2*kSubBuckets) = 6.25% relative.
  // Allow a whisker on top for the nearest-rank-vs-cumulative-count
  // difference at bucket edges.
  constexpr double kRelTol = 1.0 / (2.0 * Histogram::kSubBuckets) + 0.02;
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact = ExactPercentile(sorted, q);
    const double approx = h.Quantile(q);
    EXPECT_NEAR(approx, exact, std::abs(exact) * kRelTol)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(ObsHistogramTest, QuantilesTrackExactPercentilesUniform) {
  Rng rng(101);
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) {
    samples.push_back(rng.UniformDouble(5.0, 5000.0));
  }
  ExpectQuantilesWithinBound(samples);
}

TEST(ObsHistogramTest, QuantilesTrackExactPercentilesLogNormalish) {
  // Latency-shaped: heavy right tail spanning several octaves.
  Rng rng(102);
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) {
    samples.push_back(std::exp(rng.UniformDouble(0.0, 10.0)));
  }
  ExpectQuantilesWithinBound(samples);
}

TEST(ObsHistogramTest, QuantileClampsToMaxAndHandlesConstants) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(37.0);
  // All mass in one bucket: every quantile must report an observed value,
  // not the bucket midpoint drifting past it.
  EXPECT_EQ(h.Quantile(0.5), 37.0);
  EXPECT_EQ(h.Quantile(1.0), h.Max());
  EXPECT_EQ(h.Max(), 37.0);

  Histogram empty;
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.Max(), 0.0);
}

TEST(ObsHistogramTest, BucketMidWithinBucketBound) {
  Rng rng(103);
  for (int i = 0; i < 5'000; ++i) {
    const double v = std::exp(rng.UniformDouble(-10.0, 20.0));
    const size_t idx = Histogram::BucketIndex(v);
    ASSERT_GT(idx, 0u);
    ASSERT_LT(idx, Histogram::kNumBuckets - 1);
    const double mid = Histogram::BucketMid(idx);
    EXPECT_NEAR(mid, v, v / (2.0 * Histogram::kSubBuckets) * 1.0001)
        << "v=" << v << " idx=" << idx << " mid=" << mid;
  }
  // Non-positive and NaN samples land in the underflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0u);
  EXPECT_EQ(Histogram::BucketMid(0), 0.0);
}

TEST(ObsHistogramTest, ConcurrentRecordsKeepExactCountSumMax) {
  Histogram h;
  constexpr size_t kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(double(t * kPerThread + i + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(h.Count(), n);
  EXPECT_EQ(h.Max(), double(n));
  // Sum of 1..n; the CAS-add is exact in this range (all doubles integral).
  EXPECT_EQ(h.Sum(), double(n) * double(n + 1) / 2.0);
}

// ---------------------------------------------------------------------------
// TraceRing / SlowSelectLog
// ---------------------------------------------------------------------------

SelectTrace TraceWithCost(double actual_ms) {
  SelectTrace t;
  t.actual_ms = actual_ms;
  t.fingerprint = uint64_t(actual_ms * 1000);
  return t;
}

TEST(ObsTraceRingTest, EvictsOldestFirstAndSnapshotsAscending) {
  TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 20; ++i) ring.Push(TraceWithCost(double(i)));
  EXPECT_EQ(ring.TotalRecorded(), 20u);
  const std::vector<SelectTrace> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Pushes 0..19 got seqs 0..19; the ring keeps the last capacity() of
  // them, oldest surviving first.
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, 12 + i);
  }
}

TEST(ObsTraceRingTest, ConcurrentPushesNeverTearOrLoseSeqs) {
  TraceRing ring(64);
  constexpr size_t kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring] {
      for (int i = 0; i < kPerThread; ++i) {
        ring.Push(TraceWithCost(1.0));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ring.TotalRecorded(), kThreads * kPerThread);
  const std::vector<SelectTrace> snap = ring.Snapshot();
  EXPECT_EQ(snap.size(), ring.capacity());
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].seq, snap[i].seq);
  }
}

TEST(ObsSlowLogTest, KeepsWorstByActualCost) {
  SlowSelectLog log(4);
  // Offer 1..10 in shuffled order; only {10, 9, 8, 7} survive.
  std::vector<double> costs = {3, 7, 1, 10, 5, 8, 2, 9, 4, 6};
  for (double c : costs) log.Offer(TraceWithCost(c));
  const std::vector<SelectTrace> worst = log.Worst();
  ASSERT_EQ(worst.size(), 4u);
  EXPECT_EQ(worst[0].actual_ms, 10.0);
  EXPECT_EQ(worst[1].actual_ms, 9.0);
  EXPECT_EQ(worst[2].actual_ms, 8.0);
  EXPECT_EQ(worst[3].actual_ms, 7.0);
  // A cheap offer after the floor is set must not displace anything.
  log.Offer(TraceWithCost(0.5));
  EXPECT_EQ(log.Worst().size(), 4u);
  EXPECT_EQ(log.Worst()[3].actual_ms, 7.0);
}

// ---------------------------------------------------------------------------
// DriftTracker
// ---------------------------------------------------------------------------

TEST(ObsDriftTest, RatiosMatchKnownWorkloadAndWindowsRoll) {
  DriftTracker d;
  // cm_probe: estimates half the actual (ratio 2); seq_scan: spot on.
  for (int i = 0; i < 100; ++i) {
    d.Record(PlanKind::kCmProbe, 1.0, 2.0);
    d.Record(PlanKind::kSeqScan, 4.0, 4.0);
  }
  DriftTracker::Snapshot s = d.snapshot();
  EXPECT_EQ(s.epoch, 0u);
  const size_t cm = size_t(PlanKind::kCmProbe);
  const size_t scan = size_t(PlanKind::kSeqScan);
  EXPECT_EQ(s.current[cm].selects, 100u);
  EXPECT_DOUBLE_EQ(s.current[cm].Ratio(), 2.0);
  EXPECT_DOUBLE_EQ(s.current[scan].Ratio(), 1.0);
  EXPECT_DOUBLE_EQ(s.lifetime[cm].Ratio(), 2.0);
  // Untouched kinds report 0 (no estimate mass), not NaN.
  EXPECT_EQ(s.current[size_t(PlanKind::kSortedIndex)].Ratio(), 0.0);

  d.AdvanceEpoch();
  s = d.snapshot();
  EXPECT_EQ(s.epoch, 1u);
  // The completed window moved to previous; current restarted.
  EXPECT_EQ(s.previous[cm].selects, 100u);
  EXPECT_DOUBLE_EQ(s.previous[cm].Ratio(), 2.0);
  EXPECT_EQ(s.current[cm].selects, 0u);
  EXPECT_EQ(s.lifetime[cm].selects, 100u);

  // Post-roll samples land in the fresh window; lifetime keeps summing.
  d.Record(PlanKind::kCmProbe, 1.0, 3.0);
  s = d.snapshot();
  EXPECT_DOUBLE_EQ(s.current[cm].Ratio(), 3.0);
  EXPECT_EQ(s.lifetime[cm].selects, 101u);
}

TEST(ObsDriftTest, ConcurrentRecordsSumExactly) {
  DriftTracker d;
  constexpr size_t kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&d] {
      for (int i = 0; i < kPerThread; ++i) {
        d.Record(PlanKind::kClusteredRange, 1.0, 1.5);
      }
    });
  }
  for (auto& th : threads) th.join();
  const DriftTracker::Snapshot s = d.snapshot();
  const size_t k = size_t(PlanKind::kClusteredRange);
  EXPECT_EQ(s.current[k].selects, kThreads * kPerThread);
  EXPECT_EQ(s.lifetime[k].selects, kThreads * kPerThread);
  EXPECT_NEAR(s.lifetime[k].Ratio(), 1.5, 1e-9);
}

// ---------------------------------------------------------------------------
// MetricsRegistry: stable handles, concurrent get-or-create, exports
// ---------------------------------------------------------------------------

TEST(ObsRegistryTest, HandlesAreStableAndSharedByName) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x_total");
  Counter* b = reg.counter("x_total");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.counter("y_total"), a);
  Histogram* h1 = reg.histogram("lat_us");
  EXPECT_EQ(h1, reg.histogram("lat_us"));
  Gauge* g1 = reg.gauge("depth");
  EXPECT_EQ(g1, reg.gauge("depth"));
}

TEST(ObsRegistryTest, ConcurrentGetOrCreateAndIncrement) {
  MetricsRegistry reg;
  constexpr size_t kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Every thread resolves the same names itself -- get-or-create must
      // hand each the same underlying object.
      Counter* c = reg.counter("shared_total");
      Histogram* h = reg.histogram("shared_hist");
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("shared_total")->Value(), kThreads * kPerThread);
  EXPECT_EQ(reg.histogram("shared_hist")->Count(), kThreads * kPerThread);
}

TEST(ObsRegistryTest, CallbackGaugeLifecycle) {
  MetricsRegistry reg;
  double live = 12.5;
  reg.RegisterCallbackGauge("live_value", [&live] { return live; });
  EXPECT_NE(reg.ToJson().find("\"live_value\": 12.5"), std::string::npos);
  live = 13.0;
  EXPECT_NE(reg.ToJson().find("\"live_value\": 13"), std::string::npos);
  reg.RemoveCallbackGauge("live_value");
  EXPECT_EQ(reg.ToJson().find("live_value"), std::string::npos);
}

// Minimal recursive-descent JSON validator: enough grammar to reject any
// malformed snapshot the exports could emit (unbalanced structure, bad
// numbers, trailing garbage). Not a parser -- it only answers "valid?".
class JsonChecker {
 public:
  static bool Valid(const std::string& s) {
    JsonChecker c(s);
    c.SkipWs();
    if (!c.Value()) return false;
    c.SkipWs();
    return c.pos_ == s.size();
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(Peek())) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(Peek())) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(Peek())) ++pos_;
    }
    return pos_ > start && std::isdigit(s_[pos_ - 1]);
  }
  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(uint8_t(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(ObsRegistryTest, JsonExportIsValidJson) {
  MetricsRegistry reg;
  reg.counter("ops_total")->Add(7);
  reg.gauge("depth")->Set(2.5);
  Histogram* h = reg.histogram("lat_us");
  for (int i = 1; i <= 100; ++i) h->Record(double(i));
  reg.RegisterCallbackGauge("cb", [] { return 1.0; });
  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"ops_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ObsRegistryTest, PrometheusExportParsesLineByLine) {
  MetricsRegistry reg;
  reg.counter("ops_total")->Add(7);
  reg.gauge("queue_depth")->Set(3);
  Histogram* h = reg.histogram("lat_us");
  for (int i = 1; i <= 100; ++i) h->Record(double(i));
  const std::string text = reg.ToPrometheus();
  ASSERT_FALSE(text.empty());
  size_t series = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    // "<name>[{labels}] <value>": last space splits name from a number.
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    size_t parsed = 0;
    const double v = std::stod(line.substr(sp + 1), &parsed);
    EXPECT_EQ(sp + 1 + parsed, line.size()) << line;
    EXPECT_TRUE(std::isfinite(v)) << line;
    // Metric names must be Prometheus-safe.
    const char c0 = line[0];
    EXPECT_TRUE(std::isalpha(uint8_t(c0)) || c0 == '_') << line;
    ++series;
  }
  EXPECT_GE(series, 3u);
  EXPECT_NE(text.find("ops_total 7"), std::string::npos);
}

TEST(ObsTraceTest, FingerprintIsOrderInsensitiveAndShapeSensitive) {
  Table t("t", Schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")}));
  std::array<Value, 2> row = {Value(int64_t{1}), Value(int64_t{10})};
  ASSERT_TRUE(t.AppendRow(row).ok());
  const Predicate a = Predicate::Eq(t, "c", Value(int64_t{5}));
  const Predicate b = Predicate::Between(t, "u", Value(int64_t{10}),
                                         Value(int64_t{20}));
  const uint64_t ab = obs::FingerprintQuery(Query({a, b}));
  const uint64_t ba = obs::FingerprintQuery(Query({b, a}));
  EXPECT_EQ(ab, ba);
  const uint64_t just_a = obs::FingerprintQuery(Query({a}));
  const uint64_t other =
      obs::FingerprintQuery(Query({Predicate::Eq(t, "c", Value(int64_t{6}))}));
  EXPECT_NE(ab, just_a);
  EXPECT_NE(just_a, other);
}

// ---------------------------------------------------------------------------
// Engine integration: counters match issued operations, gauges follow the
// engine's lifetime, driver reports agree with the registry.
// ---------------------------------------------------------------------------

/// Correlated c~u/10 table behind a metrics-attached engine (the
/// serve_test fixture shape, plus the observability bundle).
struct ObservedEngineFixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<ClusteredIndex> cidx;
  ServingMetrics metrics;
  std::unique_ptr<ServingEngine> engine;

  ObservedEngineFixture() {
    table = std::make_unique<Table>(
        "t", Schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")}));
    Rng rng(71);
    for (int i = 0; i < 20000; ++i) {
      const int64_t u = rng.UniformInt(0, 999);
      std::array<Value, 2> row = {Value(u / 10 + rng.UniformInt(0, 1)),
                                  Value(u)};
      EXPECT_TRUE(table->AppendRow(row).ok());
    }
    EXPECT_TRUE(table->ClusterBy(0).ok());
    auto ci = ClusteredIndex::Build(*table, 0);
    EXPECT_TRUE(ci.ok());
    cidx = std::make_unique<ClusteredIndex>(std::move(*ci));
    ServingOptions opts;
    opts.num_workers = 2;
    opts.reserve_rows = table->NumRows() + 50000;
    opts.metrics = &metrics;
    engine = std::make_unique<ServingEngine>(table.get(), cidx.get(), opts);
    CmOptions copts;
    copts.u_cols = {1};
    copts.u_bucketers = {Bucketer::Identity()};
    copts.c_col = 0;
    EXPECT_TRUE(engine->AttachCm(copts).ok());
  }
};

TEST(ObsEngineTest, CountersMatchIssuedOperations) {
  ObservedEngineFixture f;
  const ServingMetrics& m = f.metrics;

  const Query eq({Predicate::Eq(*f.table, "u", Value(321))});
  const Query range(
      {Predicate::Between(*f.table, "u", Value(100), Value(140))});
  for (int i = 0; i < 10; ++i) (void)f.engine->ExecuteSelect(eq);
  for (int i = 0; i < 5; ++i) (void)f.engine->Submit(range).get();
  EXPECT_EQ(m.selects->Value(), 15u);
  EXPECT_EQ(m.select_actual_ms->Count(), 15u);
  uint64_t wins = 0;
  for (const Counter* w : m.plan_wins) wins += w->Value();
  EXPECT_EQ(wins, 15u);
  // Every select records exactly one of the cache hit/miss counters (the
  // hit bit is set only when the *chosen* plan was a cached CM probe, so
  // the split depends on plan choice; the sum does not).
  EXPECT_EQ(m.cache_hit_selects->Value() + m.cache_miss_selects->Value(),
            15u);
  // The deliberations themselves resolved repeated CM lookups through the
  // shared cache, whichever plan won.
  EXPECT_GE(f.engine->cache().stats().hits, 8u);
  // Submit routes through the worker pool, so queue waits were sampled.
  EXPECT_GE(m.queue_wait_us->Count(), 5u);
  // Every select pushed a trace; the worst live in the slow log.
  EXPECT_EQ(m.traces().TotalRecorded(), 15u);
  EXPECT_FALSE(m.slow_log().Worst().empty());

  std::vector<std::vector<Key>> rows(40, {Key(int64_t{50}), Key(int64_t{500})});
  ASSERT_TRUE(f.engine->ApplyAppend(rows).ok());
  EXPECT_EQ(m.appends->Value(), 1u);
  EXPECT_EQ(m.rows_appended->Value(), 40u);

  ASSERT_TRUE(f.engine->ApplyDelete(RowId(5)).ok());
  EXPECT_EQ(m.deletes->Value(), 1u);
  const std::array<Key, 2> upd = {Key(int64_t{40}), Key(int64_t{400})};
  ASSERT_TRUE(f.engine->ApplyUpdate(RowId(7), upd).ok());
  EXPECT_EQ(m.updates->Value(), 1u);

  auto stats = f.engine->Recluster();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->performed());
  EXPECT_EQ(m.reclusters->Value(), 1u);
  EXPECT_EQ(m.recluster_build_ms->Count(), 1u);
  EXPECT_EQ(m.recluster_swap_ms->Count(), 1u);
  EXPECT_GE(m.recluster_tail_rows_merged->Value(), 40u);
  // The wall-clock phase timings surfaced by ReclusterStats are the same
  // samples the histograms got.
  EXPECT_NEAR(m.recluster_build_ms->Sum(), stats->build_seconds * 1e3,
              1e-6);
  EXPECT_NEAR(m.recluster_swap_ms->Sum(), stats->swap_seconds * 1e3, 1e-6);
  // The epoch swap rolled the drift window.
  EXPECT_EQ(m.drift().snapshot().epoch, 1u);

  auto cstats = f.engine->Compact();
  ASSERT_TRUE(cstats.ok());
  if (cstats->performed()) {
    EXPECT_EQ(m.compactions->Value(), 1u);
  }
}

TEST(ObsEngineTest, MixedWriteCountsEveryRow) {
  // One WriteSet that both deletes and appends is one update, and its
  // rows still reach the row counters.
  ObservedEngineFixture f;
  const ServingMetrics& m = f.metrics;
  const RowId dead[2] = {5, 6};
  const std::vector<std::vector<Key>> row = {
      {Key(int64_t{40}), Key(int64_t{400})}};
  const ServingEngine::WriteSet w{.deletes = dead, .appends = row};
  ServingEngine::WriteGuard guard;
  ASSERT_TRUE(f.engine->Prepare(ServingEngine::kAnyEpoch, w, &guard).ok());
  ASSERT_TRUE(f.engine->Commit(&guard, w).ok());
  EXPECT_EQ(m.updates->Value(), 1u);
  EXPECT_EQ(m.deletes->Value(), 2u);
  EXPECT_EQ(m.rows_appended->Value(), 1u);
  EXPECT_EQ(m.appends->Value(), 0u);
}

TEST(ObsEngineTest, GaugesFollowEngineLifetime) {
  auto f = std::make_unique<ObservedEngineFixture>();
  // While the engine lives, its callback gauges are in every export.
  std::string json = f->metrics.registry().ToJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  // Exact-quoted keys: "serve_tail_rows" must match the gauge, not the
  // serve_tail_rows_swept_total counter.
  for (const char* name :
       {"serve_tail_rows", "serve_tombstones", "serve_live_rows",
        "serve_recluster_epoch", "serve_queue_depth", "pool_hits",
        "cache_size"}) {
    std::string key = "\"";
    key += name;
    key += "\":";
    EXPECT_NE(json.find(key), std::string::npos) << name;
  }

  // Destroying the engine must unregister them (the callbacks captured
  // engine state) while plain counters survive in the bundle's registry.
  (void)f->engine->ExecuteSelect(
      Query({Predicate::Eq(*f->table, "u", Value(321))}));
  ServingMetrics& m = f->metrics;
  f->engine.reset();
  json = m.registry().ToJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_EQ(json.find("\"serve_tail_rows\":"), std::string::npos);
  EXPECT_EQ(json.find("\"pool_hits\":"), std::string::npos);
  EXPECT_NE(json.find("\"serve_selects_total\": 1"), std::string::npos);
}

TEST(ObsEngineTest, FullSnapshotIsValidJson) {
  ObservedEngineFixture f;
  const Query eq({Predicate::Eq(*f.table, "u", Value(500))});
  for (int i = 0; i < 8; ++i) (void)f.engine->ExecuteSelect(eq);
  const std::string json = f.metrics.ToJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"registry\""), std::string::npos);
  EXPECT_NE(json.find("\"drift\""), std::string::npos);
  EXPECT_NE(json.find("\"slow_selects\""), std::string::npos);
  EXPECT_NE(json.find("\"lifetime\""), std::string::npos);
}

TEST(ObsEngineTest, DriverReportAgreesWithRegistrySnapshot) {
  ObservedEngineFixture f;
  std::vector<Query> pool;
  for (int u = 0; u < 16; ++u) {
    pool.push_back(Query({Predicate::Eq(*f.table, "u", Value(u * 40))}));
  }
  serve::DriverOptions dopts;
  dopts.reader_threads = 1;  // sole writer of the latency series
  dopts.lookups_per_reader = 200;
  dopts.use_worker_pool = false;
  serve::WorkloadDriver driver(f.engine.get(), dopts);
  const serve::DriverReport report = driver.Run(pool, {});

  // The driver mirrored every wall-latency sample into the registry's
  // serve_select_latency_us series; with one reader the two histograms
  // saw the identical stream, so the summaries must agree exactly.
  const Histogram* h = f.metrics.select_latency_us;
  EXPECT_EQ(report.lookups, 200u);
  EXPECT_EQ(h->Count(), 200u);
  EXPECT_EQ(report.lookup_latency.p50_us, h->Quantile(0.50));
  EXPECT_EQ(report.lookup_latency.p99_us, h->Quantile(0.99));
  EXPECT_EQ(report.lookup_latency.max_us, h->Max());
  EXPECT_EQ(report.lookup_latency.mean_us, h->Mean());
  // And the engine-side select counter saw the same traffic.
  EXPECT_EQ(f.metrics.selects->Value(), 200u);
}

}  // namespace
}  // namespace corrmap
