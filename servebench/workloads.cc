#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "catalog.h"
#include "exec/access_path.h"
#include "exec/plan_choice.h"
#include "obs/serving_metrics.h"
#include "workload/ebay_gen.h"

namespace servebench {
namespace {

using corrmap::CmColumnPredicate;
using corrmap::CorrelationMap;
using corrmap::kEbay;
using corrmap::PlanKind;
using corrmap::obs::ServingMetrics;
using corrmap::serve::DurabilityOptions;
using corrmap::serve::RecoveryStats;
using corrmap::serve::RouterOptions;
using corrmap::serve::RoutedSelectResult;
using corrmap::serve::SelectResult;
using corrmap::serve::ServingOptions;

// ---- Sizes (identical for every seed) --------------------------------------
constexpr size_t kCategories = 1200;    // 180k ITEMS rows, 3.3k heap pages
constexpr size_t kArity = 9;            // ITEMS columns
// setup_s is the median of kSetupRepeats set-ups: kSetupFirst at the
// start of the run and the rest at its end, so that a streak of host
// contention at one end of the run moves the median little.
constexpr int kSetupRepeats = 15;
constexpr int kSetupFirst = 5;
// recovery_s is the median of the recoveries that fit in --seconds (at
// least kMinRecoveries). The host's speed swings by 10-20% over tens of
// seconds; a median over a longer stretch of it repeats better across
// runs than one over a few seconds.
constexpr int kMinRecoveries = 9;
constexpr size_t kGroupCommit = 8;      // WAL commits per flush
constexpr int64_t kWarmupNs = 500'000'000;
constexpr int64_t kWindows = 5;         // timed phase split, see WindowedLatency
constexpr uint64_t kMinP99Samples = 1000;
// Background maintenance: a pass when the tail reaches 8192 rows, a
// compaction when 5% of the heap is tombstoned.
constexpr Triggers kTriggers{8192, 0.05};
// The durable restart's tail continues a workload's own write traffic
// after its timed phase, with the triggers disarmed, and recovery replays
// it. A single engine runs rounds of kEngineTailOps ops of crud_churn's
// write mix (read_hot has none of its own), each round after a compaction
// that checkpoints; recovery replays the last round. One round appends or
// re-appends ~52k rows, inside the 64k rows of append headroom a publish
// renews. read_hot's write figures come from its tail, so it runs
// kHotTailRounds rounds (~9 s) and reports the median round. The router's
// tail is the writes among kRouterTailOps further ops of routed_durable's
// stream (~30k rows per shard).
constexpr size_t kEngineTailOps = 2400;
constexpr int kHotTailRounds = 60;
constexpr size_t kRouterTailOps = 30000;
constexpr int kRebuildRepeats = 3;      // traced run: empty-tail recoveries
constexpr size_t kGateQueries = 32;     // probe==scan sample per gate
constexpr uint64_t kTraceEvery = 8;     // traced run probes 1 select in 8

// read_hot: a Zipf-skewed hot set whose pages fit the default pool. Its
// cache-resident reads repeat within a few percent in a few seconds, so
// they take kHotReadShare of --seconds and the restart's write rounds and
// recoveries, which swing with the host, get the time they need.
constexpr size_t kHotReaders = 3;
constexpr double kHotReadShare = 0.4;
constexpr size_t kHotSetSize = 512;
constexpr double kHotZipfTheta = 0.6;
constexpr size_t kHotPoolPages = 4096;
// crud_churn: heap ~6x the pool; 2 readers beside 1 writer that issues
// kWriterSelects selects after each write, which paces writes to ~1 per ms
// (an unpaced writer holds the CM shard locks nearly all the time).
constexpr size_t kChurnReaders = 2;
constexpr size_t kChurnPoolPages = 512;
constexpr size_t kChurnQueryPool = 4096;
constexpr size_t kChurnWritesPerSecond = 700;
constexpr size_t kWriterSelects = 4;
constexpr size_t kChurnAppendRows = 48;
constexpr size_t kChurnDeleteRows = 48;
constexpr size_t kChurnUpdateRows = 16;
// routed_durable: 4 shards x 1 worker, one client.
constexpr size_t kShards = 4;
constexpr size_t kRoutedPoolPages = 1024;
constexpr size_t kRoutedQueryPool = 4096;
constexpr size_t kRoutedOpsPerSecond = 2500;
constexpr size_t kRoutedAppendRows = 48;
constexpr size_t kRoutedDeleteRows = 8;
constexpr size_t kRoutedUpdateRows = 8;

uint64_t Salt(uint64_t seed, uint64_t workload) {
  return corrmap::Mix64(seed * 0x9e3779b97f4a7c15ULL + workload);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

void Must(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(2);
  }
}

// ---- Deployment set-up ------------------------------------------------------

ServingOptions EngineOptions(size_t pool_pages, Durability* d,
                             ServingMetrics* sink) {
  ServingOptions o;
  o.num_workers = 1;
  o.recluster_tail_rows = kTriggers.tail_rows;
  o.compact_deleted_fraction = kTriggers.deleted_fraction;
  o.buffer_pool_pages = pool_pages;
  o.durability = d;
  o.metrics = sink;
  return o;
}

std::unique_ptr<Durability> NewDurability() {
  DurabilityOptions d;
  d.group_commit_ops = kGroupCommit;
  return std::make_unique<Durability>(d);
}

/// Builds the deployment `times` times, adding each build time to
/// `setup`, and returns the last one.
template <class Build>
auto TimedSetup(const Build& build, int times, Samples* setup) {
  decltype(build()) rig;
  for (int i = 0; i < times; ++i) {
    rig.reset();
    const int64_t t0 = NowNs();
    rig = build();
    setup->Add(Seconds(NowNs() - t0));
  }
  return rig;
}

/// One durable engine and everything that must outlive it (members are
/// destroyed bottom-up: engine first).
struct EngineRig {
  Items items;
  size_t pool_pages = 0;
  std::unique_ptr<Durability> durability;
  std::unique_ptr<ServingEngine> engine;
};

std::unique_ptr<EngineRig> BuildEngineRig(uint64_t seed, size_t pool_pages,
                                          ServingMetrics* sink) {
  auto rig = std::make_unique<EngineRig>();
  rig->items = MakeItems(seed, kCategories);
  rig->pool_pages = pool_pages;
  rig->durability = NewDurability();
  rig->engine = std::make_unique<ServingEngine>(
      rig->items.table.get(), rig->items.cidx.get(),
      EngineOptions(pool_pages, rig->durability.get(), sink));
  for (const CmOptions& cm : ItemCms()) Must(rig->engine->AttachCm(cm), "AttachCm");
  return rig;
}

/// A query plus its compiled CM predicates (for the CM lookup probe).
struct PoolQuery {
  Query q;
  std::vector<std::optional<std::vector<CmColumnPredicate>>> cm_preds;
};

std::vector<PoolQuery> Compile(const Table& t, std::vector<Query> queries) {
  std::vector<CorrelationMap> compilers;
  for (const CmOptions& cm : ItemCms()) {
    auto c = CorrelationMap::Create(&t, cm);
    Must(c.status(), "CorrelationMap::Create");
    compilers.push_back(std::move(*c));
  }
  std::vector<PoolQuery> pool;
  for (Query& q : queries) {
    PoolQuery pq{std::move(q), {}};
    for (const CorrelationMap& c : compilers) {
      auto preds = corrmap::CmPredicatesFor(c, pq.q);
      pq.cm_preds.push_back(preds.ok() ? std::optional(std::move(*preds))
                                       : std::nullopt);
    }
    pool.push_back(std::move(pq));
  }
  return pool;
}

/// kGateQueries queries spread evenly over the pool.
std::vector<Query> GateSample(const std::vector<PoolQuery>& pool) {
  std::vector<Query> out;
  const size_t step = std::max<size_t>(1, pool.size() / kGateQueries);
  for (size_t i = 0; i < pool.size() && out.size() < kGateQueries; i += step) {
    out.push_back(pool[i].q);
  }
  return out;
}

std::vector<uint32_t> UniformSeq(size_t pool, size_t n, Rng* rng) {
  std::vector<uint32_t> seq(n);
  for (uint32_t& s : seq) s = uint32_t(rng->UniformInt(0, int64_t(pool) - 1));
  return seq;
}

uint64_t SeqHash(uint64_t h, const std::vector<std::vector<uint32_t>>& seqs) {
  for (const auto& seq : seqs) {
    for (uint32_t s : seq) HashMix(&h, s);
  }
  return h;
}

// ---- Client threads ---------------------------------------------------------

/// Per-select outcomes summed over a phase.
struct SelectTotals {
  uint64_t selects = 0, matches = 0, examined = 0, tail_rows = 0;
  uint64_t candidates = 0, cm_served = 0, cache_hits = 0;
  uint64_t plan[4] = {};
  double modeled_ms = 0;

  void Add(const SelectResult& s) {
    ++selects;
    matches += s.num_matches;
    examined += s.rows_examined;
    tail_rows += s.tail_rows_swept;
    candidates += s.plan_candidates;
    cm_served += s.used_cm;
    cache_hits += s.used_cm && s.cache_hit;
    plan[size_t(s.plan_kind)] += 1;
    modeled_ms += s.simulated_ms;
  }
  void Merge(const SelectTotals& o) {
    selects += o.selects;
    matches += o.matches;
    examined += o.examined;
    tail_rows += o.tail_rows;
    candidates += o.candidates;
    cm_served += o.cm_served;
    cache_hits += o.cache_hits;
    for (size_t i = 0; i < 4; ++i) plan[i] += o.plan[i];
    modeled_ms += o.modeled_ms;
  }
};

/// Splits a timed phase into kWindows windows: by time (read_hot), or by
/// the driving client's progress through its fixed op sequence
/// (crud_churn, routed_durable), so that window k holds the same ops in
/// every run whatever the machine's speed.
struct PhaseWindows {
  int64_t start_ns = 0;
  int64_t window_ns = 0;            ///< > 0: time windows
  std::atomic<size_t> current{0};   ///< op windows: set by the driving client
  std::vector<int64_t> bounds;      ///< window starts, then the phase end

  static PhaseWindows* ByTime(PhaseWindows* w, int64_t start, int64_t window) {
    w->start_ns = start;
    w->window_ns = window;
    for (int64_t k = 0; k <= kWindows; ++k) w->bounds.push_back(start + k * window);
    return w;
  }
  size_t Of(int64_t now) const {
    return window_ns > 0 ? size_t(std::max<int64_t>(0, now - start_ns) / window_ns)
                         : current.load(std::memory_order_relaxed);
  }
  /// Op windows: the driving client starts op `i` of `n` at `now`.
  void Advance(uint64_t i, uint64_t n, int64_t now) {
    if (bounds.empty()) bounds.push_back(now);
    const size_t w = size_t(i * uint64_t(kWindows) / n);
    while (bounds.size() <= w) bounds.push_back(now);
    current.store(w, std::memory_order_relaxed);
  }
};

/// One client thread's results.
struct ClientOut {
  WindowedLatency select, write;
  SelectTotals tot;
  SpanLog log;
  int64_t trace_ns = 0;  ///< time spent in probes after ops
  int64_t wall_ns = 0;
  uint64_t cm_lookups = 0, cm_runs = 0;
  uint64_t write_ops = 0, write_calls = 0, retries = 0, failed = 0;
  uint64_t rows_written = 0;
  int64_t wait_ns = 0;
  std::string first_error;

  void Failed(const Status& s) {
    ++failed;
    if (first_error.empty()) first_error = s.ToString();
  }
};

/// Times a direct Lookup on every CM the query predicates. e.cm(c) is
/// only stable while no recluster pass can publish.
void ProbeCmLookups(const ServingEngine& e, const PoolQuery& pq, uint64_t op,
                    int32_t parent, ClientOut* out) {
  for (size_t c = 0; c < pq.cm_preds.size(); ++c) {
    if (!pq.cm_preds[c]) continue;
    const int64_t l0 = NowNs();
    const auto lookup = e.cm(c).Lookup(*pq.cm_preds[c]);
    out->log.Add(SpanName::kCmLookup, op, parent, l0, NowNs());
    ++out->cm_lookups;
    out->cm_runs += lookup.ranges.size();
  }
}

/// One timed ExecuteSelect. The traced run decomposes every kTraceEvery-th
/// select *after* it returned -- PlanSelect (deliberation) and a direct CM
/// Lookup -- so a probe never warms the cache for the op it decomposes.
/// `gate` (traced crud_churn) keeps the CM probe out of maintenance.
void SelectOnce(const ServingEngine& e, const PoolQuery& pq, uint64_t op,
                const PhaseWindows& pw, bool trace, std::shared_mutex* gate,
                ClientOut* out) {
  const int64_t t0 = NowNs();
  const SelectResult res = e.ExecuteSelect(pq.q);
  const int64_t t1 = NowNs();
  out->select.Add(pw.Of(t0), t1 - t0);
  out->tot.Add(res);
  if (!trace || op % kTraceEvery != 0) return;
  SpanLog& log = out->log;
  const int32_t root = log.Add(SpanName::kOp, op, -1, t0, 0);
  const int32_t sel = log.Add(SpanName::kEngineSelect, op, root, t0, t1);
  const int64_t p0 = NowNs();
  (void)e.PlanSelect(pq.q);
  log.Add(SpanName::kPlanDeliberate, op, sel, p0, NowNs());
  {
    std::shared_lock<std::shared_mutex> lk;
    if (gate != nullptr) lk = std::shared_lock(*gate);
    ProbeCmLookups(e, pq, op, root, out);
  }
  const int64_t t2 = NowNs();
  log.SetEnd(root, t2);
  out->trace_ns += t2 - t1;
}

/// Closed-loop reader over `seq` until `end_ns` or `stop`.
void ReadLoop(const ServingEngine& e, const std::vector<PoolQuery>& pool,
              const std::vector<uint32_t>& seq, int64_t end_ns,
              const PhaseWindows& pw, const std::atomic<bool>& stop, bool trace,
              std::shared_mutex* gate, ClientOut* out) {
  const int64_t start = NowNs();
  for (uint64_t i = 0; !stop.load(std::memory_order_relaxed) && NowNs() < end_ns;
       ++i) {
    SelectOnce(e, pool[seq[i % seq.size()]], i, pw, trace, gate, out);
  }
  out->wall_ns = NowNs() - start;
}

/// Runs one reader thread per sequence until `end_ns` or `stop`, joining
/// `writer` (when given) before the readers.
std::vector<ClientOut> RunReaders(const ServingEngine& e,
                                  const std::vector<PoolQuery>& pool,
                                  const std::vector<std::vector<uint32_t>>& seqs,
                                  int64_t end_ns, const PhaseWindows& pw,
                                  bool trace, std::shared_mutex* gate,
                                  const std::atomic<bool>& stop,
                                  std::thread* writer = nullptr) {
  std::vector<ClientOut> outs(seqs.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seqs.size(); ++t) {
    threads.emplace_back(ReadLoop, std::cref(e), std::cref(pool),
                         std::cref(seqs[t]), end_ns, std::cref(pw),
                         std::cref(stop), trace, gate, &outs[t]);
  }
  if (writer != nullptr) writer->join();
  for (std::thread& th : threads) th.join();
  return outs;
}

// crud_churn's write mix, also the single-engine restart tail.
enum class WriteKind : uint8_t { kAppend, kDelete, kUpdate };

struct WriteOp {
  WriteKind kind = WriteKind::kAppend;
  std::vector<NewItem> rows;  // appends only
};

/// `n` ops of the crud_churn write mix, generated up front. Appended and
/// deleted rows balance, so the heap stays near its initial size while the
/// tail and tombstones cycle.
std::vector<WriteOp> ChurnOps(Generator* gen, size_t n) {
  std::vector<WriteOp> ops(n);
  for (WriteOp& op : ops) {
    const size_t k = gen->Pick(100);
    op.kind = k < 35 ? WriteKind::kAppend
              : k < 70 ? WriteKind::kDelete
                       : WriteKind::kUpdate;
    if (op.kind == WriteKind::kAppend) {
      for (size_t j = 0; j < kChurnAppendRows; ++j) op.rows.push_back(gen->NewRow());
    }
  }
  return ops;
}

/// The engine crud_churn writes go to, the writer's model of it, and the
/// triggers that model tracks (none in the restart tail). `gate` (traced
/// timed phase only) keeps the readers' CM probes out of the writes.
struct ChurnTarget {
  ServingEngine* e;
  Generator* gen;
  EngineShadow* sh;
  Triggers triggers;
  bool trace;
  std::shared_mutex* gate;
};

/// Applies write op `i`: one batched call (updates: kChurnUpdateRows
/// calls). Victims are re-resolved and retried on Aborted. A call that
/// crosses a maintenance trigger waits for the pass to publish before the
/// next call. The time spent in engine calls, without the waits, is added
/// to `*op_ns`.
Status ApplyChurnOp(const ChurnTarget& w, const WriteOp& op, uint64_t i,
                    int32_t root, int64_t* op_ns, ClientOut* out) {
  ServingEngine& e = *w.e;
  // One engine call under the traced run's gate, then the shadow update
  // and the wait for any pass it triggered.
  auto call = [&](SpanName name, auto&& fn, auto&& on_ok) {
    std::unique_lock<std::shared_mutex> lk;
    if (w.gate != nullptr) lk = std::unique_lock(*w.gate);
    Status cs;
    for (int attempt = 0; attempt < 3; ++attempt) {
      const uint64_t epoch = e.ReclusterEpoch();
      const int64_t c0 = NowNs();
      cs = fn(epoch);
      const int64_t c1 = NowNs();
      *op_ns += c1 - c0;
      ++out->write_calls;
      if (w.trace) out->log.Add(name, i, root, c0, c1);
      if (cs.code() != Status::Code::kAborted) break;
      ++out->retries;
    }
    if (!cs.ok()) return cs;
    on_ok();
    return AwaitMaintenance(e, w.triggers, w.sh, w.trace ? &out->log : nullptr,
                            i, &out->wait_ns);
  };
  Status s;
  if (op.kind == WriteKind::kAppend) {
    const auto rows = w.gen->Rows(op.rows);
    s = call(SpanName::kEngineAppend,
             [&](uint64_t) { return e.ApplyAppend(rows); },
             [&] { w.sh->OnAppend(rows.size(), kArity); });
    out->rows_written += rows.size();
  } else if (op.kind == WriteKind::kDelete) {
    std::vector<RowId> victims;
    s = call(SpanName::kEngineDelete,
             [&](uint64_t epoch) {
               victims = PickLiveRows(e.table(), kChurnDeleteRows, w.gen);
               return e.ApplyDeletes(victims, epoch);
             },
             [&] { w.sh->OnDelete(victims.size()); });
    out->rows_written += kChurnDeleteRows;
  } else {
    for (size_t j = 0; j < kChurnUpdateRows && s.ok(); ++j) {
      s = call(SpanName::kEngineUpdate,
               [&](uint64_t epoch) {
                 const RowId row = PickLiveRows(e.table(), 1, w.gen)[0];
                 std::vector<Key> old(kArity);
                 for (size_t c = 0; c < kArity; ++c) {
                   old[c] = e.table().GetKey(row, c);
                 }
                 return e.ApplyUpdate(row, w.gen->Repriced(old), epoch);
               },
               [&] { w.sh->OnUpdate(kArity); });
      ++out->rows_written;
    }
  }
  return s;
}

// ---- The shared durable restart ---------------------------------------------

/// One op class's end-to-end numbers.
struct OpStats {
  double ops_s = 0, p50_us = 0, p99_us = 0;
  uint64_t samples = 0;
};

struct Restart {
  double index_bytes_per_row = 0;
  OpStats tail_write;  ///< medians over the single-engine tail rounds
  uint64_t tail_ops = 0, tail_failed = 0;
  uint64_t wal_flushes = 0, wal_bytes = 0, ops_logged = 0, user_bytes = 0;
  Samples recovery_s;
  uint64_t records_replayed = 0;  ///< per recovery
  double checkpoint_rebuild_s = 0;
};

/// Runs `recover` from one crashed state until `budget_ns` has passed
/// (at least kMinRecoveries times) and keeps the last deployment;
/// `recover` reports the records it replayed.
template <class T, class Recover>
std::unique_ptr<T> RecoverRepeatedly(int64_t budget_ns, Recover recover,
                                     Restart* rs, SpanLog* log, Report* r) {
  std::unique_ptr<T> last;
  const int64_t end = NowNs() + budget_ns;
  for (int k = 0; k < kMinRecoveries || NowNs() < end; ++k) {
    last.reset();
    const int64_t t0 = NowNs();
    auto rec = recover(&rs->records_replayed);
    const int64_t t1 = NowNs();
    if (!rec.ok()) {
      r->Fail("recovery: " + rec.status().ToString());
      return nullptr;
    }
    last = std::move(*rec);
    rs->recovery_s.Add(Seconds(t1 - t0));
    if (log != nullptr) log->Add(SpanName::kRecover, uint64_t(k), -1, t0, t1);
  }
  return last;
}

/// Median of kRebuildRepeats calls of `recover` while the log's committed
/// tail is empty (right after a checkpointing publish): the library's own
/// recovery path with nothing to replay, i.e. what recovery costs before
/// its replay.
template <class Recover>
double RebuildSeconds(Recover recover, Report* r) {
  Samples s;
  for (int k = 0; k < kRebuildRepeats; ++k) {
    uint64_t records = 0;
    const int64_t t0 = NowNs();
    auto rec = recover(&records);
    s.Add(Seconds(NowNs() - t0));
    if (!rec.ok()) {
      r->Fail("empty-tail recovery: " + rec.status().ToString());
      return 0;
    }
    if (records != 0) {
      r->Fail("empty-tail recovery replayed " + std::to_string(records) +
              " records");
      return 0;
    }
  }
  return s.Median();
}

/// Disarms the triggers and compacts: the final publish, which also
/// checkpoints, so recovery replays just the tail written after it.
void FinalCompaction(ServingEngine& e, EngineShadow* sh, Report* r) {
  e.set_recluster_tail_rows(0);
  e.set_compact_deleted_fraction(0);
  auto st = e.Compact();
  if (!st.ok()) r->Fail("final Compact: " + st.status().ToString());
  if (st.ok() && st->performed()) sh->OnCheckpoint(true);
  sh->done_seen = e.ReclustersCompleted() + e.ReclusterFailures();
}

void AddWal(const Durability& d, const EngineShadow& sh, Restart* rs) {
  rs->wal_flushes += d.wal_flushes();
  rs->wal_bytes += d.wal_bytes_durable();
  rs->ops_logged += d.ops_logged();
  rs->user_bytes += sh.user_bytes;
}

/// Single-engine restart: `rounds` rounds of kEngineTailOps crud_churn
/// write ops, each after a compaction that checkpoints; the gate; a crash
/// with a seeded torn tail; recoveries from that same crashed state for
/// `recovery_ns`, which replay the last round; the gate on the last.
Restart RestartEngine(std::unique_ptr<EngineRig> rig, EngineShadow* sh,
                      Generator* gen, int rounds, int64_t recovery_ns,
                      const std::vector<Query>& gate,
                      ServingMetrics* sink, bool trace, SpanLog* log,
                      Report* r) {
  static_assert(kEngineTailOps >= kMinP99Samples);
  Restart out;
  ServingEngine& e = *rig->engine;
  Durability& d = *rig->durability;
  ServingEngine::RecoverSpec spec;
  for (const CmOptions& cm : ItemCms()) spec.cms.push_back({cm, 0});
  ServingOptions ro = EngineOptions(rig->pool_pages, &d, sink);
  ro.recluster_tail_rows = 0;
  ro.compact_deleted_fraction = 0;
  auto recover = [&](uint64_t* records) {
    RecoveryStats stats;
    auto rec = ServingEngine::Recover(kEbay.catid, ro, spec, &stats);
    *records = stats.records_scanned;
    return rec;
  };

  const ChurnTarget target{&e, gen, sh, Triggers{}, false, nullptr};
  ClientOut tail;
  Samples rates, p50s, p99s;
  for (int round = 0; round < rounds; ++round) {
    FinalCompaction(e, sh, r);
    if (round == 0) {
      out.index_bytes_per_row = IndexBytes(e) / double(e.table().NumLiveRows());
    }
    if (trace && round == rounds - 1) {
      out.checkpoint_rebuild_s = RebuildSeconds(recover, r);
    }
    const std::vector<WriteOp> ops = ChurnOps(gen, kEngineTailOps);
    WindowedLatency writes;
    const int64_t start = NowNs();
    for (size_t i = 0; i < ops.size(); ++i) {
      int64_t op_ns = 0;
      const Status s = ApplyChurnOp(target, ops[i], i, -1, &op_ns, &tail);
      writes.Add(0, op_ns);
      if (!s.ok()) tail.Failed(s);
    }
    const auto w = writes.Summarize({start, NowNs()}, kMinP99Samples);
    rates.Add(w.ops_s);
    p50s.Add(w.p50_us);
    p99s.Add(w.p99_us);
    out.tail_write.samples += w.samples;
  }
  out.tail_write.ops_s = rates.Median();
  out.tail_write.p50_us = p50s.Median();
  out.tail_write.p99_us = p99s.Median();
  out.tail_ops = out.tail_write.samples;
  out.tail_failed = tail.failed;
  if (!tail.first_error.empty()) {
    std::fprintf(stderr, "restart tail: %s\n", tail.first_error.c_str());
  }
  AddWal(d, *sh, &out);
  CheckEngine(e, gate, sh->live(), "before crash", r);

  d.Crash(gen->Pick(64));
  uint64_t expected = 0;
  if (Status s = DurablePrefixLive(d, *sh, kGroupCommit, &expected); !s.ok()) {
    r->Fail("durable prefix: " + s.ToString());
  }
  rig->engine.reset();

  auto recovered =
      RecoverRepeatedly<ServingEngine>(recovery_ns, recover, &out, log, r);
  if (recovered) CheckEngine(*recovered, gate, expected, "recovered", r);
  recovered.reset();
  return out;
}

// ---- Reporting --------------------------------------------------------------

/// Median over a phase's windows (see WindowedLatency).
OpStats FromWindows(const std::vector<const WindowedLatency*>& parts,
                    const std::vector<int64_t>& bounds, const std::string& what,
                    Report* r) {
  WindowedLatency all = *parts.front();
  for (size_t i = 1; i < parts.size(); ++i) all.Merge(*parts[i]);
  const auto s = all.Summarize(bounds, kMinP99Samples);
  if (s.p99_windows == 0 || s.p99_windows * 2 < s.windows) {
    r->Fail(what + " p99 needs >= " + std::to_string(kMinP99Samples) +
            " samples in most windows");
  }
  return {s.ops_s, s.p50_us, s.p99_us, s.samples};
}

void AddEndToEnd(Report* r, const OpStats& sel, const OpStats& wr,
                 Samples setup, const Restart& rs) {
  r->info.push_back({"select_ops_s", sel.ops_s, "1/s", sel.samples});
  r->info.push_back({"select_p99_us", sel.p99_us, "us", sel.samples});
  r->info.push_back({"write_ops_s", wr.ops_s, "1/s", wr.samples});
  r->info.push_back({"write_p99_us", wr.p99_us, "us", wr.samples});
  r->Add("select_p50_us", sel.p50_us, "us", sel.samples);
  r->Add("write_p50_us", wr.p50_us, "us", wr.samples);
  r->Add("setup_s", setup.Median(), "s", setup.size());
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("index_bytes_per_row", rs.index_bytes_per_row, "B/row");
  Samples rec = rs.recovery_s;
  r->Add("recovery_s", rec.Median(), "s", rec.size());
}

/// Layer metrics every workload reports (zero where a layer is unused).
struct Layers {
  SelectTotals tot;
  Samples select_self_ns, deliberate_ns, lookup_ns;
  uint64_t cm_lookups = 0, cm_runs = 0;
  uint64_t cm_bytes = 0, cm_u_keys = 0;
  double stale_evictions = 0;
  double pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  Samples append_ns, delete_ns, update_ns;
  Samples router_select_ns, router_rest_ns, router_slowest_ns;
  Samples router_append_ns, router_delete_ns, router_update_ns;
  uint64_t shards_visited = 0, shards_pruned = 0;
  uint64_t write_calls = 0, retries = 0;
  uint64_t rows_written = 0, rows_rewritten = 0;
  uint64_t passes = 0, compactions = 0, failures = 0;
  double build_s = 0, swap_s = 0;
  int64_t trace_ns = 0, client_ns = 0;
  uint64_t attempted = 0, failed = 0;
};

void AddPerLayer(Report* r, Layers* L, const Restart& rs) {
  const double sel = double(L->tot.selects);
  const uint64_t n = L->tot.selects;
  auto share = [&](PlanKind k) { return Ratio(double(L->tot.plan[size_t(k)]), sel); };
  r->Add("serve_engine.select_self_ns", L->select_self_ns.Median(), "ns",
         L->select_self_ns.size());
  r->Add("serve_engine.rows_examined_per_match",
         Ratio(double(L->tot.examined), double(L->tot.matches)), "ratio", n);
  r->Add("serve_engine.tail_rows_per_select",
         Ratio(double(L->tot.tail_rows), sel), "rows", n);
  r->Add("exec_plan_choice.deliberate_ns", L->deliberate_ns.Median(), "ns",
         L->deliberate_ns.size());
  r->Add("exec_plan_choice.candidates_per_select",
         Ratio(double(L->tot.candidates), sel), "count", n);
  r->Add("exec_plan_choice.share_cm", share(PlanKind::kCmProbe), "ratio", n);
  r->Add("exec_plan_choice.share_clustered", share(PlanKind::kClusteredRange),
         "ratio", n);
  r->Add("exec_plan_choice.share_seq", share(PlanKind::kSeqScan), "ratio", n);
  r->Add("exec_plan_choice.share_sidx", share(PlanKind::kSortedIndex), "ratio", n);
  r->Add("serve_lookup_cache.hit_rate",
         Ratio(double(L->tot.cache_hits), double(L->tot.cm_served)), "ratio",
         L->tot.cm_served);
  r->Add("serve_lookup_cache.stale_evictions_per_select",
         Ratio(L->stale_evictions, sel), "count", n);
  r->Add("serve_sharded_cm.lookup_ns", L->lookup_ns.Median(), "ns",
         L->lookup_ns.size());
  r->Add("serve_sharded_cm.runs_per_lookup",
         Ratio(double(L->cm_runs), double(L->cm_lookups)), "count",
         L->cm_lookups);
  r->Add("serve_sharded_cm.bytes", double(L->cm_bytes), "B");
  r->Add("serve_sharded_cm.u_keys", double(L->cm_u_keys), "count");
  r->Add("serve_engine.append_ns", L->append_ns.Median(), "ns",
         L->append_ns.size());
  r->Add("serve_engine.delete_ns", L->delete_ns.Median(), "ns",
         L->delete_ns.size());
  r->Add("serve_engine.update_ns", L->update_ns.Median(), "ns",
         L->update_ns.size());
  r->Add("serve_engine.write_retry_frac",
         Ratio(double(L->retries), double(L->write_calls)), "ratio",
         L->write_calls);
  r->Add("serve_recluster.passes", double(L->passes), "count");
  r->Add("serve_recluster.compactions", double(L->compactions), "count");
  r->Add("serve_recluster.build_s", Ratio(L->build_s, double(L->passes)), "s",
         L->passes);
  r->Add("serve_recluster.swap_s", Ratio(L->swap_s, double(L->passes)), "s",
         L->passes);
  r->Add("serve_recluster.rows_rewritten_per_written_row",
         Ratio(double(L->rows_rewritten), double(L->rows_written)), "ratio");
  r->Add("serve_recluster.failures", double(L->failures), "count");
  r->Add("storage_buffer_pool.hit_rate",
         Ratio(L->pool_hits, L->pool_hits + L->pool_misses), "ratio");
  r->Add("storage_buffer_pool.evictions_per_select",
         Ratio(L->pool_evictions, sel), "count", n);
  r->Add("storage_disk_model.modeled_ms_per_select",
         Ratio(L->tot.modeled_ms, sel), "ms", n, /*modeled=*/true);
  r->Add("serve_router.select_ns", L->router_select_ns.Median(), "ns",
         L->router_select_ns.size());
  r->Add("serve_router.shards_visited_per_select",
         Ratio(double(L->shards_visited), sel), "count", n);
  r->Add("serve_router.pruned_frac",
         Ratio(double(L->shards_pruned),
               double(L->shards_visited + L->shards_pruned)),
         "ratio", n);
  r->Add("serve_router.max_shard_visit_ns", L->router_slowest_ns.Median(), "ns",
         L->router_slowest_ns.size());
  r->Add("serve_router.gather_ns", L->router_rest_ns.Median(), "ns",
         L->router_rest_ns.size());
  r->Add("serve_router.append_ns", L->router_append_ns.Median(), "ns",
         L->router_append_ns.size());
  r->Add("serve_router.delete_ns", L->router_delete_ns.Median(), "ns",
         L->router_delete_ns.size());
  r->Add("serve_router.update_ns", L->router_update_ns.Median(), "ns",
         L->router_update_ns.size());
  r->Add("serve_durability.wal_bytes_per_user_byte",
         Ratio(double(rs.wal_bytes), double(rs.user_bytes)), "ratio");
  r->Add("serve_durability.flushes", double(rs.wal_flushes), "count");
  r->Add("serve_durability.records_per_flush",
         Ratio(double(rs.ops_logged), double(rs.wal_flushes)), "count");
  Samples rec = rs.recovery_s;
  r->Add("serve_recovery.replay_records_per_s",
         Ratio(double(rs.records_replayed),
               rec.Median() - rs.checkpoint_rebuild_s),
         "1/s", rec.size());
  r->Add("serve_recovery.checkpoint_rebuild_s", rs.checkpoint_rebuild_s, "s");
  r->Add("trace.overhead_frac", Ratio(double(L->trace_ns), double(L->client_ns)),
         "ratio");
  r->Add("run.failed_ops_frac", Ratio(double(L->failed), double(L->attempted)),
         "ratio", L->attempted);
}

void AddClient(Layers* L, const ClientOut& c) {
  L->tot.Merge(c.tot);
  L->select_self_ns.Append(c.log.SelfTimes(SpanName::kEngineSelect));
  L->deliberate_ns.Append(c.log.Durations(SpanName::kPlanDeliberate));
  L->lookup_ns.Append(c.log.Durations(SpanName::kCmLookup));
  L->cm_lookups += c.cm_lookups;
  L->cm_runs += c.cm_runs;
  L->append_ns.Append(c.log.Durations(SpanName::kEngineAppend));
  L->delete_ns.Append(c.log.Durations(SpanName::kEngineDelete));
  L->update_ns.Append(c.log.Durations(SpanName::kEngineUpdate));
  L->router_select_ns.Append(c.log.Durations(SpanName::kRouterSelect));
  c.log.SlowestChild(SpanName::kRouterSelect, &L->router_rest_ns,
                     &L->router_slowest_ns);
  L->router_append_ns.Append(c.log.Durations(SpanName::kRouterAppend));
  L->router_delete_ns.Append(c.log.Durations(SpanName::kRouterDelete));
  L->router_update_ns.Append(c.log.Durations(SpanName::kRouterUpdate));
  L->write_calls += c.write_calls;
  L->retries += c.retries;
  L->rows_written += c.rows_written;
  L->trace_ns += c.trace_ns;
  L->client_ns += c.wall_ns;
  L->attempted += c.tot.selects + c.write_ops;
  L->failed += c.failed;
}

void AddEngineState(Layers* L, const ServingEngine& e, const EngineShadow& sh) {
  for (size_t i = 0; i < e.num_cms(); ++i) {
    L->cm_bytes += e.cm(i).SizeBytes();
    L->cm_u_keys += e.cm(i).NumUKeys();
  }
  L->passes += sh.passes;
  L->compactions += sh.compactions;
  L->rows_rewritten += sh.rows_rewritten;
  L->failures += e.ReclusterFailures();
}

/// Buffer-pool and lookup-cache counters.
struct PoolCache {
  corrmap::BufferPoolStats pool;
  corrmap::serve::SharedLookupCache::Stats cache;
};

PoolCache Snapshot(const corrmap::BufferPool& p,
                   const corrmap::serve::SharedLookupCache& c) {
  return {p.stats(), c.stats()};
}

/// Adds the counter deltas from `a` to `b`, minus the probes' own work.
void AddPoolCache(Layers* L, const PoolCache& a, const PoolCache& b,
                  const PoolCache& probes = {}) {
  L->pool_hits += double(b.pool.hits - a.pool.hits - probes.pool.hits);
  L->pool_misses += double(b.pool.misses - a.pool.misses - probes.pool.misses);
  L->pool_evictions +=
      double(b.pool.evictions - a.pool.evictions - probes.pool.evictions);
  L->stale_evictions += double(b.cache.stale_evictions - a.cache.stale_evictions -
                               probes.cache.stale_evictions);
}

void AddRecluster(Layers* L, const ServingMetrics* sink) {
  if (sink == nullptr) return;
  L->build_s += sink->recluster_build_ms->Sum() * 1e-3;
  L->swap_s += sink->recluster_swap_ms->Sum() * 1e-3;
}

void CheckPasses(const EngineShadow& sh, const ServingEngine& e,
                 const std::string& who, Report* r) {
  if (sh.passes != e.ReclustersCompleted()) {
    r->Fail(who + ": maintenance model saw " + std::to_string(sh.passes) +
            " passes, engine ran " + std::to_string(e.ReclustersCompleted()));
  }
}

/// Fills the report for the run's mode: end-to-end metrics untraced,
/// per-layer metrics (and the span file) traced.
void Finish(const RunConfig& cfg, Report* r, Layers* L, const Restart& rs,
            const OpStats& sel, const OpStats& wr, const Samples& setup,
            double visited_per_select, const std::vector<const SpanLog*>& logs) {
  L->attempted += rs.tail_ops;
  L->failed += rs.tail_failed;
  r->attempted = L->attempted;
  r->failed = L->failed;
  r->determinism["serve_recluster.passes"] = double(L->passes);
  r->determinism["serve_recluster.compactions"] = double(L->compactions);
  r->determinism["serve_durability.flushes"] = double(rs.wal_flushes);
  r->determinism["serve_router.shards_visited_per_select"] = visited_per_select;
  r->determinism["index_bytes_per_row"] = rs.index_bytes_per_row;
  if (!cfg.trace) {
    AddEndToEnd(r, sel, wr, setup, rs);
    return;
  }
  AddPerLayer(r, L, rs);
  if (cfg.spans_dir.empty()) return;
  const std::string path = cfg.spans_dir + "/spans-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".tsv";
  if (!WriteSpans(path, logs)) r->Fail("cannot write " + path);
}

void StateSizes(Report* r, const Table& t, size_t pool_pages) {
  r->Size("rows", double(t.NumRows()));
  r->Size("heap_pages", double(t.NumPages()));
  r->Size("pool_pages", double(pool_pages));
}

int64_t WindowNs(const RunConfig& cfg) {
  return int64_t(cfg.seconds) * 1'000'000'000 / kWindows;
}

int64_t RecoveryNs(const RunConfig& cfg) {
  return int64_t(cfg.seconds) * 1'000'000'000;
}

}  // namespace

// ---------------------------------------------------------------------------
// read_hot

Report RunReadHot(const RunConfig& cfg) {
  Report r;
  r.workload = cfg.workload;
  std::unique_ptr<ServingMetrics> sink;
  if (cfg.trace) sink = std::make_unique<ServingMetrics>();
  Samples setup;
  const auto build = [&] {
    return BuildEngineRig(cfg.seed, kHotPoolPages, sink.get());
  };
  auto rig = TimedSetup(build, kSetupFirst, &setup);
  ServingEngine& e = *rig->engine;
  Generator gen(*rig->items.table, Salt(cfg.seed, 1));

  // A few hundred CM-served selects: Price ranges around one category's
  // prices (Price -> CATID) and CAT5 points, drawn Zipf-skewed per reader.
  // The skew is mild enough that no few queries dominate, so a seed's
  // choice of hot queries moves the totals little.
  std::vector<Query> hot;
  for (size_t i = 0; i < kHotSetSize; ++i) {
    hot.push_back(i % 5 < 3 ? gen.CategoryPriceRange(400)
                            : gen.CategoryPoint(kEbay.cat5));
  }
  const std::vector<PoolQuery> pool = Compile(*rig->items.table, std::move(hot));
  const Zipf zipf(pool.size(), kHotZipfTheta);
  // Each reader ranks the hot set in its own seeded order, so the hottest
  // pages -- and the buffer-pool stripes they lock -- differ per reader
  // instead of all readers queueing on the few stripes of one seed's top
  // queries.
  std::vector<std::vector<uint32_t>> seqs(kHotReaders);
  for (auto& seq : seqs) {
    Rng rng(gen.Next());
    std::vector<uint32_t> rank(pool.size());
    for (uint32_t i = 0; i < rank.size(); ++i) rank[i] = i;
    std::shuffle(rank.begin(), rank.end(), rng);
    seq.resize(1 << 16);
    for (uint32_t& s : seq) s = rank[zipf.Sample(&rng)];
  }
  const std::vector<Query> gate = GateSample(pool);
  EngineShadow sh;
  sh.Reset(e);

  StateSizes(&r, e.table(), kHotPoolPages);
  r.Size("hot_set_queries", double(pool.size()));
  r.Size("reader_threads", double(kHotReaders));
  r.Size("engine_workers", 1);

  std::atomic<bool> stop{false};
  PhaseWindows warm, pw;
  int64_t t0 = NowNs();
  (void)RunReaders(e, pool, seqs, t0 + kWarmupNs,
                   *PhaseWindows::ByTime(&warm, t0, kWarmupNs), false, nullptr,
                   stop);
  const PoolCache pc0 = Snapshot(*e.pool(), e.cache());
  t0 = NowNs();
  PhaseWindows::ByTime(&pw, t0, int64_t(kHotReadShare * WindowNs(cfg)));
  const std::vector<ClientOut> readers = RunReaders(
      e, pool, seqs, pw.bounds.back(), pw, cfg.trace, nullptr, stop);

  Layers L;
  AddPoolCache(&L, pc0, Snapshot(*e.pool(), e.cache()));
  std::vector<const WindowedLatency*> sel_parts;
  std::vector<const SpanLog*> logs;
  for (const ClientOut& c : readers) {
    AddClient(&L, c);
    sel_parts.push_back(&c.select);
    logs.push_back(&c.log);
  }
  AddEngineState(&L, e, sh);
  const OpStats sel = FromWindows(sel_parts, pw.bounds, "select", &r);

  SpanLog restart_log;
  Restart rs = RestartEngine(std::move(rig), &sh, &gen, kHotTailRounds,
                             RecoveryNs(cfg), gate, sink.get(), cfg.trace,
                             &restart_log, &r);
  AddRecluster(&L, sink.get());
  // A read-only workload's writes are its restart tail: crud_churn's write
  // mix applied to the quiescent engine after the timed reads.
  const OpStats wr = rs.tail_write;
  r.op_sequence_hash = SeqHash(gen.hash(), seqs);
  logs.push_back(&restart_log);
  (void)TimedSetup(build, kSetupRepeats - kSetupFirst, &setup);
  Finish(cfg, &r, &L, rs, sel, wr, setup, 0, logs);
  return r;
}

// ---------------------------------------------------------------------------
// crud_churn

namespace {

struct Churn {
  ChurnTarget target;
  const std::vector<WriteOp>* ops;
  const std::vector<PoolQuery>* pool;
  const std::vector<uint32_t>* seq;
  PhaseWindows* pw;
  std::atomic<bool>* stop;
};

/// The single writer: the seeded crud_churn write mix (see ApplyChurnOp),
/// each op followed by kWriterSelects selects.
void ChurnWriter(Churn w, ClientOut* out) {
  const bool trace = w.target.trace;
  const int64_t start = NowNs();
  size_t next_select = 0;
  for (uint64_t i = 0; i < w.ops->size(); ++i) {
    const int64_t op0 = NowNs();
    w.pw->Advance(i, w.ops->size(), op0);
    const int32_t root = trace ? out->log.Add(SpanName::kOp, i, -1, op0, 0) : -1;
    int64_t op_ns = 0;
    const Status s = ApplyChurnOp(w.target, (*w.ops)[i], i, root, &op_ns, out);
    if (trace) out->log.SetEnd(root, NowNs());
    ++out->write_ops;
    out->write.Add(w.pw->Of(op0), op_ns);
    if (!s.ok()) {
      out->Failed(s);
      // A failed maintenance wait leaves the model unsynchronized; stop.
      if (s.code() == Status::Code::kInternal) break;
    }
    for (size_t j = 0; j < kWriterSelects; ++j, ++next_select) {
      SelectOnce(*w.target.e, (*w.pool)[(*w.seq)[next_select % w.seq->size()]],
                 w.ops->size() + next_select, *w.pw, trace, w.target.gate, out);
    }
  }
  out->wall_ns = NowNs() - start;
  w.pw->bounds.push_back(NowNs());
  w.stop->store(true, std::memory_order_relaxed);
}

}  // namespace

Report RunCrudChurn(const RunConfig& cfg) {
  Report r;
  r.workload = cfg.workload;
  std::unique_ptr<ServingMetrics> sink;
  if (cfg.trace) sink = std::make_unique<ServingMetrics>();
  Samples setup;
  const auto build = [&] {
    return BuildEngineRig(cfg.seed, kChurnPoolPages, sink.get());
  };
  auto rig = TimedSetup(build, kSetupFirst, &setup);
  ServingEngine& e = *rig->engine;
  Generator gen(*rig->items.table, Salt(cfg.seed, 2));

  // Uniform predicates over the whole Price / category domain.
  std::vector<Query> queries;
  for (size_t i = 0; i < kChurnQueryPool; ++i) {
    const size_t k = gen.Pick(10);
    queries.push_back(k < 6   ? gen.PriceRange(2000)
                      : k < 9 ? gen.CategoryPoint(kEbay.cat5)
                              : gen.CategoryPoint(kEbay.cat4));
  }
  const std::vector<PoolQuery> pool = Compile(*rig->items.table, std::move(queries));
  std::vector<std::vector<uint32_t>> seqs(kChurnReaders + 1);  // + writer's
  for (auto& seq : seqs) {
    Rng rng(gen.Next());
    seq = UniformSeq(pool.size(), 1 << 16, &rng);
  }
  const std::vector<WriteOp> ops =
      ChurnOps(&gen, kChurnWritesPerSecond * size_t(cfg.seconds));
  const std::vector<Query> gate = GateSample(pool);
  EngineShadow sh;
  sh.Reset(e);

  StateSizes(&r, e.table(), kChurnPoolPages);
  r.Size("query_pool", double(pool.size()));
  r.Size("write_ops", double(ops.size()));
  r.Size("reader_threads", double(kChurnReaders));
  r.Size("writer_threads", 1);
  r.Size("writer_selects_per_write", double(kWriterSelects));
  r.Size("engine_workers", 1);

  const std::vector<std::vector<uint32_t>> reader_seqs(seqs.begin(),
                                                       seqs.end() - 1);
  std::atomic<bool> stop{false};
  PhaseWindows warm, pw;
  const int64_t t0 = NowNs();
  (void)RunReaders(e, pool, reader_seqs, t0 + kWarmupNs,
                   *PhaseWindows::ByTime(&warm, t0, kWarmupNs), false, nullptr,
                   stop);
  std::shared_mutex probe_gate;
  const PoolCache pc0 = Snapshot(*e.pool(), e.cache());
  ClientOut writer;
  pw.Advance(0, ops.size(), NowNs());
  const ChurnTarget target{&e, &gen, &sh, kTriggers, cfg.trace,
                           cfg.trace ? &probe_gate : nullptr};
  std::thread wt(ChurnWriter, Churn{target, &ops, &pool, &seqs.back(), &pw, &stop},
                 &writer);
  const std::vector<ClientOut> readers = RunReaders(
      e, pool, reader_seqs, INT64_MAX, pw, cfg.trace, &probe_gate, stop, &wt);
  if (!writer.first_error.empty()) {
    std::fprintf(stderr, "crud_churn writer: %s\n", writer.first_error.c_str());
  }
  CheckPasses(sh, e, "engine", &r);

  Layers L;
  AddPoolCache(&L, pc0, Snapshot(*e.pool(), e.cache()));
  std::vector<const WindowedLatency*> sel_parts{&writer.select};
  std::vector<const SpanLog*> logs{&writer.log};
  AddClient(&L, writer);
  for (const ClientOut& c : readers) {
    AddClient(&L, c);
    sel_parts.push_back(&c.select);
    logs.push_back(&c.log);
  }
  AddEngineState(&L, e, sh);
  AddRecluster(&L, sink.get());
  const OpStats sel = FromWindows(sel_parts, pw.bounds, "select", &r);
  const OpStats wr = FromWindows({&writer.write}, pw.bounds, "write", &r);

  SpanLog restart_log;
  // The restart tail continues the writer's own mix: one round.
  Restart rs = RestartEngine(std::move(rig), &sh, &gen, 1, RecoveryNs(cfg),
                             gate, sink.get(), cfg.trace, &restart_log, &r);
  r.op_sequence_hash = SeqHash(gen.hash(), seqs);
  logs.push_back(&restart_log);
  (void)TimedSetup(build, kSetupRepeats - kSetupFirst, &setup);
  Finish(cfg, &r, &L, rs, sel, wr, setup, 0, logs);
  return r;
}

// ---------------------------------------------------------------------------
// routed_durable

namespace {

struct RouterRig {
  Items items;
  std::vector<std::unique_ptr<Durability>> durability;
  std::unique_ptr<ShardRouter> router;
};

RouterOptions RouterOpts(RouterRig* rig, ServingMetrics* sink) {
  RouterOptions ro;
  ro.num_shards = kShards;
  ro.engine = EngineOptions(kRoutedPoolPages, nullptr, sink);
  for (auto& d : rig->durability) ro.shard_durability.push_back(d.get());
  return ro;
}

const std::vector<std::vector<size_t>> kRoutedSidx = {{kEbay.item_id}};

std::unique_ptr<RouterRig> BuildRouterRig(uint64_t seed, ServingMetrics* sink) {
  auto rig = std::make_unique<RouterRig>();
  rig->items = MakeItems(seed, kCategories);
  for (size_t i = 0; i < kShards; ++i) rig->durability.push_back(NewDurability());
  auto router = ShardRouter::Create(*rig->items.table, kEbay.catid,
                                    RouterOpts(rig.get(), sink));
  Must(router.status(), "ShardRouter::Create");
  rig->router = std::move(*router);
  for (const CmOptions& cm : ItemCms()) Must(rig->router->AttachCm(cm), "AttachCm");
  for (const auto& cols : kRoutedSidx) {
    Must(rig->router->AttachSecondaryIndex(cols), "AttachSecondaryIndex");
  }
  return rig;
}

enum class RoutedKind : uint8_t { kSelect, kAppend, kDelete, kUpdate };

/// One client op: a select (index into the query pool) or a write
/// (appends: index into the append batches).
struct RoutedOp {
  RoutedKind kind = RoutedKind::kSelect;
  uint32_t index = 0;
};

/// `n` ops of the routed stream, generated up front: a seeded interleave
/// of selects (80%, indexes into a pool of `pool_size` queries) with
/// multi-shard appends (their rows go to `*batches`), deletes and updates
/// (half of them move category, most then crossing shards).
std::vector<RoutedOp> RoutedOps(Generator* gen, size_t n, size_t pool_size,
                                std::vector<std::vector<NewItem>>* batches) {
  std::vector<RoutedOp> ops(n);
  for (RoutedOp& op : ops) {
    const size_t k = gen->Pick(100);
    if (k < 80) {
      op = {RoutedKind::kSelect, uint32_t(gen->Pick(pool_size))};
    } else if (k < 88) {
      op = {RoutedKind::kAppend, uint32_t(batches->size())};
      batches->emplace_back();
      for (size_t j = 0; j < kRoutedAppendRows; ++j) {
        batches->back().push_back(gen->NewRow());
      }
    } else {
      op.kind = k < 94 ? RoutedKind::kDelete : RoutedKind::kUpdate;
    }
  }
  return ops;
}

/// The rows of write op `op` (empty unless it appends).
std::span<const NewItem> RowsOf(const RoutedOp& op,
                                const std::vector<std::vector<NewItem>>& batches) {
  return op.kind == RoutedKind::kAppend ? std::span<const NewItem>(batches[op.index])
                                        : std::span<const NewItem>();
}

/// Shards the router visits for `q`: the owner of a clustered point, else
/// every shard its CM lookup cannot rule out (all when no CM applies).
std::vector<size_t> VisitedShards(const ShardRouter& router, const Query& q) {
  std::vector<size_t> out;
  if (const auto* p = corrmap::FindPredicateOn(q, kEbay.catid); p != nullptr) {
    for (const Key& k : p->keys()) out.push_back(router.RouteKey(k));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  for (size_t i = 0; i < router.num_shards(); ++i) {
    bool applicable = false;
    if (!router.shard(i).CanSkipForQuery(q, &applicable) || !applicable) {
      out.push_back(i);
    }
  }
  return out;
}

/// The routed client's writes: router calls plus, per touched shard, the
/// shadow update and the wait for any pass it triggered.
struct RoutedClient {
  ShardRouter* router;
  std::vector<EngineShadow>* shadows;
  Generator* gen;
  Triggers triggers;
  bool trace;
  ClientOut* out;

  Status Await(size_t shard, uint64_t op) {
    return AwaitMaintenance(router->shard(shard), triggers, &(*shadows)[shard],
                            trace ? &out->log : nullptr, op, &out->wait_ns);
  }

  /// Times one router call into `*op_ns` (and a span when tracing).
  template <class Fn>
  Status Timed(SpanName name, uint64_t op, int32_t root, int64_t* op_ns, Fn fn) {
    const int64_t c0 = NowNs();
    Status s = fn();
    const int64_t c1 = NowNs();
    *op_ns += c1 - c0;
    ++out->write_calls;
    if (trace) out->log.Add(name, op, root, c0, c1);
    return s;
  }

  Status Append(std::span<const NewItem> items, uint64_t op, int32_t root,
                int64_t* op_ns) {
    const auto rows = gen->Rows(items);
    Status s = Timed(SpanName::kRouterAppend, op, root, op_ns,
                     [&] { return router->ApplyAppend(rows); });
    if (!s.ok()) return s;
    out->rows_written += rows.size();
    std::vector<size_t> per_shard(router->num_shards(), 0);
    for (const auto& row : rows) ++per_shard[router->RouteKey(row[kEbay.catid])];
    for (size_t i = 0; i < per_shard.size(); ++i) {
      if (per_shard[i] > 0) (*shadows)[i].OnAppend(per_shard[i], kArity);
    }
    for (size_t i = 0; i < per_shard.size(); ++i) {
      if (per_shard[i] == 0) continue;
      if (Status w = Await(i, op); !w.ok()) return w;
    }
    return Status::OK();
  }

  Status DeleteOne(uint64_t op, int32_t root, int64_t* op_ns) {
    const size_t shard = gen->Pick(router->num_shards());
    const RowId row = PickLiveRows(router->shard(shard).table(), 1, gen)[0];
    const uint64_t epoch = router->ShardEpoch(shard);
    Status s = Timed(SpanName::kRouterDelete, op, root, op_ns,
                     [&] { return router->ApplyDelete(shard, row, epoch); });
    if (!s.ok()) return s;
    ++out->rows_written;
    (*shadows)[shard].OnDelete(1);
    return Await(shard, op);
  }

  Status UpdateOne(bool move, uint64_t op, int32_t root, int64_t* op_ns) {
    const size_t shard = gen->Pick(router->num_shards());
    const Table& t = router->shard(shard).table();
    const RowId row = PickLiveRows(t, 1, gen)[0];
    std::vector<Key> old(kArity);
    for (size_t c = 0; c < kArity; ++c) old[c] = t.GetKey(row, c);
    const std::vector<Key> nv = move ? gen->Recategorized(old) : gen->Repriced(old);
    const size_t dest = router->RouteKey(nv[kEbay.catid]);
    const uint64_t epoch = router->ShardEpoch(shard);
    Status s = Timed(SpanName::kRouterUpdate, op, root, op_ns,
                     [&] { return router->ApplyUpdate(shard, row, nv, epoch); });
    if (!s.ok()) return s;
    ++out->rows_written;
    if (dest == shard) {
      (*shadows)[shard].OnUpdate(kArity);
      return Await(shard, op);
    }
    (*shadows)[shard].OnDelete(1);
    (*shadows)[dest].OnAppend(1, kArity);
    if (Status w = Await(shard, op); !w.ok()) return w;
    return Await(dest, op);
  }

  /// One write op: an append batch, or kRouted{Delete,Update}Rows calls.
  Status Write(RoutedKind kind, std::span<const NewItem> rows, uint64_t op,
               int32_t root, int64_t* op_ns) {
    if (kind == RoutedKind::kAppend) return Append(rows, op, root, op_ns);
    const size_t n = kind == RoutedKind::kDelete ? kRoutedDeleteRows
                                                 : kRoutedUpdateRows;
    Status s;
    for (size_t j = 0; j < n && s.ok(); ++j) {
      s = kind == RoutedKind::kDelete ? DeleteOne(op, root, op_ns)
                                      : UpdateOne(j % 2 == 1, op, root, op_ns);
    }
    return s;
  }
};

/// One routed select; the traced run decomposes every kTraceEvery-th one
/// after it returned: each visited shard's select alone, its deliberation
/// and its CM lookups (the client is the only writer, so no pass can
/// publish meanwhile). Adds the probes' own pool/cache work to `probes`.
void RoutedSelect(const ShardRouter& router, const PoolQuery& pq, uint64_t op,
                  size_t window, bool trace, ClientOut* c, uint64_t* visited,
                  uint64_t* pruned, PoolCache* probes) {
  const int64_t o0 = NowNs();
  const RoutedSelectResult res = router.ExecuteSelect(pq.q);
  const int64_t o1 = NowNs();
  c->select.Add(window, o1 - o0);
  c->tot.Add(res.merged);
  *visited += res.shards_visited;
  *pruned += res.shards_pruned;
  if (!trace || op % kTraceEvery != 0) return;
  const PoolCache before = Snapshot(*router.pool(), router.cache());
  const int32_t root = c->log.Add(SpanName::kOp, op, -1, o0, 0);
  const int32_t sel = c->log.Add(SpanName::kRouterSelect, op, root, o0, o1);
  for (size_t s : VisitedShards(router, pq.q)) {
    const ServingEngine& e = router.shard(s);
    const int64_t v0 = NowNs();
    (void)e.ExecuteSelect(pq.q);
    const int32_t visit = c->log.Add(SpanName::kEngineSelect, op, sel, v0, NowNs());
    const int64_t p0 = NowNs();
    (void)e.PlanSelect(pq.q);
    c->log.Add(SpanName::kPlanDeliberate, op, visit, p0, NowNs());
    ProbeCmLookups(e, pq, op, root, c);
  }
  const PoolCache after = Snapshot(*router.pool(), router.cache());
  probes->pool.hits += after.pool.hits - before.pool.hits;
  probes->pool.misses += after.pool.misses - before.pool.misses;
  probes->pool.evictions += after.pool.evictions - before.pool.evictions;
  probes->cache.stale_evictions +=
      after.cache.stale_evictions - before.cache.stale_evictions;
  const int64_t t2 = NowNs();
  c->log.SetEnd(root, t2);
  c->trace_ns += t2 - o1;
}

}  // namespace

Report RunRoutedDurable(const RunConfig& cfg) {
  Report r;
  r.workload = cfg.workload;
  // The production shape: an obs sink attached in every run.
  ServingMetrics sink;
  Samples setup;
  const auto build = [&] { return BuildRouterRig(cfg.seed, &sink); };
  auto rig = TimedSetup(build, kSetupFirst, &setup);
  ShardRouter& router = *rig->router;
  Generator gen(*rig->items.table, Salt(cfg.seed, 3));

  // Three select kinds: clustered points (1 shard), Price ranges (every
  // shard plans them with its CM, but Price -> CATID is too soft at $1000
  // buckets to prune a shard), and scatters no index narrows -- ItemID
  // ranges (the secondary index competes) and CAT6 points (shard scans).
  // Points are 11/16 of the selects, so select_p50_us falls inside the
  // single-shard latencies. With half the selects single-shard and half
  // scattering, the median sat in the gap between the two and moved with
  // every small shift of the mix.
  std::vector<Query> queries;
  for (size_t i = 0; i < kRoutedQueryPool; ++i) {
    const size_t k = gen.Pick(16);
    queries.push_back(k < 11   ? gen.CatidPoint()
                      : k < 14 ? gen.PriceRange(1000)
                      : k < 15 ? gen.ItemRange(2000)
                               : gen.CategoryPoint(kEbay.cat6));
  }
  const std::vector<PoolQuery> pool = Compile(*rig->items.table, std::move(queries));
  std::vector<std::vector<NewItem>> batches;
  const std::vector<RoutedOp> ops =
      RoutedOps(&gen, kRoutedOpsPerSecond * size_t(cfg.seconds), pool.size(),
                &batches);
  const std::vector<Query> gate = GateSample(pool);
  std::vector<EngineShadow> shadows(router.num_shards());
  for (size_t i = 0; i < shadows.size(); ++i) shadows[i].Reset(router.shard(i));

  StateSizes(&r, *rig->items.table, kRoutedPoolPages);
  r.Size("query_pool", double(pool.size()));
  r.Size("ops", double(ops.size()));
  r.Size("shards", double(router.num_shards()));
  r.Size("client_threads", 1);
  r.Size("workers_per_shard", 1);

  for (const PoolQuery& pq : pool) (void)router.ExecuteSelect(pq.q);

  const int64_t t0 = NowNs();
  ClientOut c;
  PhaseWindows pw;
  RoutedClient client{&router, &shadows, &gen, kTriggers, cfg.trace, &c};
  uint64_t visited = 0, pruned = 0;
  PoolCache probes{};
  const PoolCache pc0 = Snapshot(*router.pool(), router.cache());
  for (uint64_t i = 0; i < ops.size(); ++i) {
    const RoutedOp& op = ops[i];
    const int64_t o0 = NowNs();
    pw.Advance(i, ops.size(), o0);
    if (op.kind == RoutedKind::kSelect) {
      RoutedSelect(router, pool[op.index], i, pw.current, cfg.trace, &c,
                   &visited, &pruned, &probes);
      continue;
    }
    const int32_t root = cfg.trace ? c.log.Add(SpanName::kOp, i, -1, o0, 0) : -1;
    int64_t op_ns = 0;
    const Status s = client.Write(op.kind, RowsOf(op, batches), i, root, &op_ns);
    if (cfg.trace) c.log.SetEnd(root, NowNs());
    ++c.write_ops;
    c.write.Add(pw.current, op_ns);
    if (!s.ok()) {
      c.Failed(s);
      if (s.code() == Status::Code::kInternal) break;
    }
  }
  const int64_t end = NowNs();
  pw.bounds.push_back(end);
  c.wall_ns = end - t0;
  if (!c.first_error.empty()) {
    std::fprintf(stderr, "routed_durable client: %s\n", c.first_error.c_str());
  }

  Layers L;
  AddClient(&L, c);
  L.shards_visited = visited;
  L.shards_pruned = pruned;
  AddPoolCache(&L, pc0, Snapshot(*router.pool(), router.cache()), probes);
  for (size_t i = 0; i < router.num_shards(); ++i) {
    AddEngineState(&L, router.shard(i), shadows[i]);
    CheckPasses(shadows[i], router.shard(i), "shard " + std::to_string(i), &r);
  }
  AddRecluster(&L, &sink);
  const OpStats sel = FromWindows({&c.select}, pw.bounds, "select", &r);
  const OpStats wr = FromWindows({&c.write}, pw.bounds, "write", &r);

  // ---- Restart: final compaction of every shard, the writes of a further
  // stretch of the op stream, crash of every shard's log, repeated
  // router recoveries.
  Restart rs;
  SpanLog restart_log;
  double index_bytes = 0;
  uint64_t live = 0;
  for (size_t i = 0; i < router.num_shards(); ++i) {
    FinalCompaction(router.shard(i), &shadows[i], &r);
    index_bytes += IndexBytes(router.shard(i));
    live += router.shard(i).table().NumLiveRows();
  }
  rs.index_bytes_per_row = index_bytes / double(live);

  const std::vector<Key> splits = router.split_keys();
  ServingEngine::RecoverSpec spec;
  for (const CmOptions& cm : ItemCms()) spec.cms.push_back({cm, 0});
  spec.secondary_indexes = kRoutedSidx;
  RouterOptions ro = RouterOpts(rig.get(), &sink);
  ro.engine.recluster_tail_rows = 0;
  ro.engine.compact_deleted_fraction = 0;
  auto recover = [&](uint64_t* records) {
    std::vector<RecoveryStats> stats;
    auto rec = ShardRouter::Recover(kEbay.catid, splits, ro, spec, &stats);
    *records = 0;
    for (const RecoveryStats& s : stats) *records += s.records_scanned;
    return rec;
  };
  if (cfg.trace) rs.checkpoint_rebuild_s = RebuildSeconds(recover, &r);

  {
    std::vector<std::vector<NewItem>> tail_batches;
    const std::vector<RoutedOp> tail =
        RoutedOps(&gen, kRouterTailOps, pool.size(), &tail_batches);
    ClientOut tail_out;
    RoutedClient tc{&router, &shadows, &gen, Triggers{}, false, &tail_out};
    for (size_t i = 0; i < tail.size(); ++i) {
      if (tail[i].kind == RoutedKind::kSelect) continue;
      int64_t op_ns = 0;
      ++rs.tail_ops;
      const Status s = tc.Write(tail[i].kind, RowsOf(tail[i], tail_batches), i,
                                -1, &op_ns);
      if (!s.ok()) tail_out.Failed(s);
    }
    rs.tail_failed = tail_out.failed;
    if (!tail_out.first_error.empty()) {
      std::fprintf(stderr, "restart tail: %s\n", tail_out.first_error.c_str());
    }
  }
  live = 0;
  for (size_t i = 0; i < router.num_shards(); ++i) {
    AddWal(*rig->durability[i], shadows[i], &rs);
    live += shadows[i].live();
  }
  CheckRouter(router, gate, live, "before crash", &r);

  uint64_t expected_live = 0;
  for (size_t i = 0; i < rig->durability.size(); ++i) {
    rig->durability[i]->Crash(gen.Pick(64));
    uint64_t shard_live = 0;
    if (Status s = DurablePrefixLive(*rig->durability[i], shadows[i],
                                     kGroupCommit, &shard_live);
        !s.ok()) {
      r.Fail("shard " + std::to_string(i) + " durable prefix: " + s.ToString());
    }
    expected_live += shard_live;
  }
  rig->router.reset();

  auto recovered = RecoverRepeatedly<ShardRouter>(
      RecoveryNs(cfg), recover, &rs, cfg.trace ? &restart_log : nullptr, &r);
  if (recovered) CheckRouter(*recovered, gate, expected_live, "recovered", &r);
  recovered.reset();

  r.op_sequence_hash = gen.hash();
  rig.reset();
  (void)TimedSetup(build, kSetupRepeats - kSetupFirst, &setup);
  Finish(cfg, &r, &L, rs, sel, wr, setup,
         Ratio(double(visited), double(c.tot.selects)), {&c.log, &restart_log});
  return r;
}

}  // namespace servebench
