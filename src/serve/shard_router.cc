#include "serve/shard_router.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/bucketing.h"
#include "exec/plan_choice.h"

namespace corrmap::serve {

namespace {

/// Runs fn(s) for every shard s in [0, n) on min(n, hardware threads)
/// threads, the calling thread among them, and joins them all. Returns
/// the failure of the lowest-numbered failing shard -- the status a loop
/// over the shards in order returns -- or OK; an exception fn throws is
/// rethrown the same way, once every thread has joined. fn(s) must touch
/// nothing another shard's fn touches, except thread-safe counters.
Status ForEachShard(size_t n, const std::function<Status(size_t)>& fn) {
  const size_t threads = std::min<size_t>(
      n, std::max<size_t>(std::thread::hardware_concurrency(), 1));
  std::vector<Status> status(n);
  std::vector<std::exception_ptr> thrown(n);
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t s = next++; s < n; s = next++) {
      try {
        status[s] = fn(s);
      } catch (...) {
        thrown[s] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(threads);
  for (size_t t = 1; t < threads; ++t) {
    // A thread that cannot start leaves its shards to the others.
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;
    }
  }
  work();
  for (std::thread& t : helpers) t.join();
  for (size_t s = 0; s < n; ++s) {
    if (thrown[s]) std::rethrow_exception(thrown[s]);
    if (!status[s].ok()) return status[s];
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    const Table& table, size_t c_col, RouterOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("need at least one shard");
  }
  if (table.clustered_column() != int(c_col)) {
    return Status::InvalidArgument(
        "table must be clustered on c_col before partitioning");
  }
  auto cidx = ClusteredIndex::Build(table, c_col);
  if (!cidx.ok()) return cidx.status();

  std::unique_ptr<ShardRouter> r(new ShardRouter());
  r->c_col_ = c_col;

  // Cut the sorted key space at distinct-key boundaries nearest the ideal
  // row quantiles: shards balance by row count but a distinct key never
  // spans two shards (so equality routing is exact and per-shard clustered
  // indexes stay self-contained). Fewer distinct keys than requested
  // shards simply yields fewer shards.
  const size_t n_rows = table.NumRows();
  const size_t n_keys = cidx->NumDistinctKeys();
  const size_t want = std::min(options.num_shards, std::max<size_t>(n_keys, 1));
  std::vector<RowId> bounds{0};
  size_t k = 0;
  for (size_t s = 1; s < want; ++s) {
    const RowId ideal = RowId(n_rows * s / want);
    while (k < n_keys && cidx->KeyFirstRow(k) < ideal) ++k;
    if (k >= n_keys) break;
    const RowId b = cidx->KeyFirstRow(k);
    if (b <= bounds.back()) continue;
    bounds.push_back(b);
    r->splits_.push_back(cidx->DistinctKey(k));
  }
  bounds.push_back(RowId(n_rows));

  if (!options.shard_durability.empty() &&
      options.shard_durability.size() < options.num_shards) {
    return Status::InvalidArgument(
        "shard_durability must carry one manager per requested shard");
  }
  // Deep copy with dictionaries preserved: physical keys keep their
  // codes across the partition, so a Key routes and compares the same in
  // every shard and in the source table. The copies and their clustered
  // indexes read only the source, so every shard builds at once.
  const size_t n_shards = bounds.size() - 1;
  r->shards_.resize(n_shards);
  Status built = ForEachShard(n_shards, [&](size_t s) -> Status {
    std::vector<RowId> order(size_t(bounds[s + 1] - bounds[s]));
    std::iota(order.begin(), order.end(), bounds[s]);
    Shard& sh = r->shards_[s];
    sh.table = table.CloneReordered(order);
    auto scidx = ClusteredIndex::Build(*sh.table, c_col);
    if (!scidx.ok()) return scidx.status();
    sh.cidx = std::make_unique<ClusteredIndex>(std::move(*scidx));
    return Status::OK();
  });
  if (!built.ok()) return built;
  // Engines are constructed in shard order: each draws its pool file ids
  // as it is constructed, and the ids pick the pool stripes.
  ServingOptions eo = r->SharedSetup(options);
  for (size_t s = 0; s < n_shards; ++s) {
    // Durability is strictly per shard: each engine logs its own row-id
    // space into its own WAL and checkpoints its own epoch swaps.
    eo.durability = options.shard_durability.empty()
                        ? nullptr
                        : options.shard_durability[s];
    Shard& sh = r->shards_[s];
    sh.engine =
        std::make_unique<ServingEngine>(sh.table.get(), sh.cidx.get(), eo);
  }
  if (r->metrics_ != nullptr) r->RegisterMetricsGauges();
  return r;
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Recover(
    size_t c_col, std::vector<Key> splits, RouterOptions options,
    const ServingEngine::RecoverSpec& spec,
    std::vector<RecoveryStats>* stats) {
  const size_t n_shards = splits.size() + 1;
  if (options.shard_durability.size() < n_shards) {
    return Status::InvalidArgument(
        "recovery needs one durability manager per shard (splits + 1)");
  }
  for (size_t i = 1; i < splits.size(); ++i) {
    if (!(splits[i - 1] < splits[i])) {
      return Status::InvalidArgument("split keys not strictly ascending");
    }
  }
  std::unique_ptr<ShardRouter> r(new ShardRouter());
  r->c_col_ = c_col;
  r->splits_ = std::move(splits);

  // Shards open in order, drawing every pool file id each will hold as
  // recovering them one after another does; then each rebuilds its CMs
  // and indexes and replays its own log at once. Table/cidx stay null:
  // a recovered engine owns both.
  ServingOptions eo = r->SharedSetup(options);
  std::vector<ServingOptions> shard_eo(n_shards, eo);
  std::vector<std::vector<uint32_t>> sidx_files(n_shards);
  std::vector<RecoveryStats> shard_stats(n_shards);
  r->shards_.resize(n_shards);
  for (size_t s = 0; s < n_shards; ++s) {
    shard_eo[s].durability = options.shard_durability[s];
    auto engine = ServingEngine::OpenCheckpoint(c_col, shard_eo[s], spec,
                                                &sidx_files[s],
                                                &shard_stats[s]);
    if (!engine.ok()) return engine.status();
    r->shards_[s].engine = std::move(*engine);
  }
  Status replayed = ForEachShard(n_shards, [&](size_t s) {
    return r->shards_[s].engine->ReplayTail(shard_eo[s], spec, sidx_files[s],
                                            &shard_stats[s]);
  });
  if (!replayed.ok()) return replayed;
  if (stats != nullptr) {
    stats->insert(stats->end(), shard_stats.begin(), shard_stats.end());
  }
  if (r->metrics_ != nullptr) r->RegisterMetricsGauges();
  return r;
}

ServingOptions ShardRouter::SharedSetup(const RouterOptions& options) {
  ServingOptions eo = options.engine;
  if (eo.buffer_pool_pages > 0) {
    pool_ = std::make_unique<BufferPool>(eo.buffer_pool_pages,
                                         RouterOptions::kPoolStripes);
  }
  cache_ = std::make_unique<SharedLookupCache>();
  // Every shard shares the one pool and cache; an engine given a shared
  // cache skips its own gauge registration (the names would collide), and
  // the router registers partition-level aggregates instead.
  eo.shared_pool = pool_.get();
  eo.shared_cache = cache_.get();
  metrics_ = eo.metrics;
  engines_pooled_ = eo.num_workers > 0;
  on_shard_visit_ = options.on_shard_visit;
  return eo;
}

ShardRouter::~ShardRouter() {
  if (metrics_ != nullptr) {
    for (const std::string& name : gauge_names_) {
      metrics_->registry().RemoveCallbackGauge(name);
    }
  }
}

void ShardRouter::RegisterMetricsGauges() {
  obs::MetricsRegistry& reg = metrics_->registry();
  auto add = [&](const std::string& name, std::function<double()> fn) {
    reg.RegisterCallbackGauge(name, std::move(fn));
    gauge_names_.push_back(name);
  };
  // Partition-level aggregates under the same names the single-engine
  // registration uses, so dashboards need not care whether the serving
  // layer is sharded.
  add("serve_tail_rows", [this] {
    double n = 0;
    for (const Shard& sh : shards_) n += double(sh.engine->TailRows());
    return n;
  });
  add("serve_tombstones", [this] {
    double n = 0;
    for (const Shard& sh : shards_) {
      n += double(sh.engine->table().NumDeleted());
    }
    return n;
  });
  add("serve_live_rows", [this] {
    double n = 0;
    for (const Shard& sh : shards_) {
      const Table& t = sh.engine->table();
      n += double(t.NumRows() - t.NumDeleted());
    }
    return n;
  });
  add("serve_recluster_epoch", [this] {
    double hi = 0;
    for (const Shard& sh : shards_) {
      hi = std::max(hi, double(sh.engine->ReclusterEpoch()));
    }
    return hi;
  });
  add("serve_queue_depth", [this] {
    double n = 0;
    for (const Shard& sh : shards_) n += double(sh.engine->QueueDepth());
    return n;
  });
  add("router_num_shards", [this] { return double(shards_.size()); });
  RegisterCacheAndPoolGauges(add, *cache_, pool_.get());
}

size_t ShardRouter::RouteKey(const Key& k) const {
  // splits_[s] is the first key owned by shard s+1, so the owner of k is
  // the number of splits <= k.
  return size_t(std::upper_bound(splits_.begin(), splits_.end(), k) -
                splits_.begin());
}

Status ShardRouter::AttachCm(const CmOptions& cm_options) {
  return ForEachShard(shards_.size(), [&](size_t s) -> Status {
    ServingEngine& engine = *shards_[s].engine;
    CmOptions opts = cm_options;
    std::unique_ptr<ClusteredBucketing> cb;
    if (cm_options.c_buckets != nullptr) {
      // A positional bucketing is only meaningful over one shard's own
      // clustered region; re-base the caller's target per shard.
      auto built = ClusteredBucketing::Build(
          engine.table(), opts.c_col,
          cm_options.c_buckets->target_tuples_per_bucket());
      if (!built.ok()) return built.status();
      cb = std::make_unique<ClusteredBucketing>(std::move(*built));
      opts.c_buckets = cb.get();
    }
    return engine.AttachCm(opts);
  });
}

Status ShardRouter::AttachSecondaryIndex(const std::vector<size_t>& columns) {
  std::vector<std::unique_ptr<SecondaryIndex>> built(shards_.size());
  Status s = ForEachShard(shards_.size(), [&](size_t i) -> Status {
    auto idx = shards_[i].engine->BuildSecondaryIndex(columns);
    if (!idx.ok()) return idx.status();
    built[i] = std::move(*idx);
    return Status::OK();
  });
  if (!s.ok()) return s;
  // Installed in shard order, each under a pool file id drawn in turn.
  for (size_t i = 0; i < shards_.size(); ++i) {
    ServingEngine& engine = *shards_[i].engine;
    engine.InstallSecondaryIndex(columns, std::move(built[i]),
                                 engine.RegisterPoolFile());
  }
  return Status::OK();
}

RoutedSelectResult ShardRouter::ExecuteSelect(const Query& query) const {
  RoutedSelectResult out;
  const size_t n = shards_.size();
  std::vector<uint8_t> visit(n, 1);

  const Predicate* cpred = FindPredicateOn(query, c_col_);
  if (cpred != nullptr && n > 1) {
    // Tier 1: the clustered predicate maps through the split keys to the
    // owning shard span / set; every other shard provably holds no
    // clustered-region matches AND no tail matches (appends route by the
    // same key), so it is skipped outright.
    std::fill(visit.begin(), visit.end(), uint8_t{0});
    out.clustered_routed = true;
    if (cpred->op() == Predicate::Op::kRange) {
      // Route the endpoints numerically against the split keys -- the
      // same Key::Numeric() axis Predicate::MatchesKey filters on --
      // instead of encoding them: EncodeKey turned the +/-infinity
      // endpoints of open ranges (Ge/Le) and out-of-dictionary endpoints
      // into bogus keys that silently misrouted the span. An inverted
      // range (lo > hi) or NaN endpoint matches no key at all, so it
      // visits no shard. Fractional endpoints may conservatively include
      // one boundary shard that holds no matches; execution re-filters.
      const double lo = cpred->lo();
      const double hi = cpred->hi();
      if (lo <= hi) {
        size_t s_lo = 0;
        while (s_lo < splits_.size() && splits_[s_lo].Numeric() <= lo) {
          ++s_lo;
        }
        size_t s_hi = s_lo;
        while (s_hi < splits_.size() && splits_[s_hi].Numeric() <= hi) {
          ++s_hi;
        }
        for (size_t s = s_lo; s <= s_hi && s < n; ++s) visit[s] = 1;
      }
    } else {
      for (const Key& key : cpred->keys()) visit[RouteKey(key)] = 1;
    }
  } else if (n > 1) {
    // Tier 2: one routed CM lookup per shard (through the shared cache,
    // so a visited shard's ExecuteSelect reuses it). A shard is skipped
    // only when a CM applies, its lookup is empty, and the shard's tail
    // is empty; anything else -- including no applicable CM -- keeps the
    // shard in the scatter.
    for (size_t s = 0; s < n; ++s) {
      bool applicable = false;
      if (shards_[s].engine->CanSkipForQuery(query, &applicable)) {
        visit[s] = 0;
        out.cm_pruned = true;
      }
    }
  }

  std::vector<size_t> targets;
  targets.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    if (visit[s]) {
      targets.push_back(s);
    } else {
      ++out.shards_pruned;
    }
  }

  // Scatter: each visited shard's select runs as an independent task that
  // writes only its own `parts` slot and times its own visit, so per-shard
  // completion needs no synchronization beyond the gather below. The
  // tasks ride the shards' worker pools and this thread blocks on the
  // futures. A single-target scatter -- and every scatter over pool-less
  // engines, whose queues never drain -- runs inline in ascending order.
  std::vector<SelectResult> parts(targets.size());
  auto visit_one = [&](size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    parts[i] = shards_[targets[i]].engine->ExecuteSelect(query);
    if (metrics_ != nullptr) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      metrics_->router_shard_visit_us->Record(double(us));
    }
    if (on_shard_visit_) on_shard_visit_(parts[i]);
  };
  if (targets.size() > 1 && engines_pooled_) {
    std::vector<std::future<void>> gathers;
    gathers.reserve(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      auto task = std::make_shared<std::packaged_task<void()>>(
          [&visit_one, i] { visit_one(i); });
      gathers.push_back(task->get_future());
      shards_[targets[i]].engine->Post([task] { (*task)(); });
    }
    for (std::future<void>& f : gathers) f.get();
  } else {
    for (size_t i = 0; i < targets.size(); ++i) visit_one(i);
  }

  // Gather: single-threaded, ascending shard order -- merged counts never
  // depend on which shard finished first. Critical-path
  // maxima feed the router trace; the merged result keeps the historical
  // summed/OR-ed semantics.
  double max_est_ms = 0;
  double max_actual_ms = 0;
  size_t cache_hit_shards = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const SelectResult& part = parts[i];
    ++out.shards_visited;
    if (part.cache_hit) ++cache_hit_shards;
    max_est_ms = std::max(max_est_ms, part.plan_est_ms);
    max_actual_ms = std::max(max_actual_ms, part.simulated_ms);
    if (i == 0) {
      out.merged = part;
      continue;
    }
    out.merged.num_matches += part.num_matches;
    out.merged.rows_examined += part.rows_examined;
    out.merged.simulated_ms += part.simulated_ms;
    out.merged.used_cm = out.merged.used_cm || part.used_cm;
    out.merged.cache_hit = out.merged.cache_hit || part.cache_hit;
    out.merged.plan_est_ms += part.plan_est_ms;
    out.merged.plan_candidates += part.plan_candidates;
  }

  selects_.fetch_add(1, std::memory_order_relaxed);
  shards_visited_.fetch_add(out.shards_visited, std::memory_order_relaxed);
  shards_pruned_.fetch_add(out.shards_pruned, std::memory_order_relaxed);
  if (out.clustered_routed) {
    clustered_routed_selects_.fetch_add(1, std::memory_order_relaxed);
  }
  if (out.cm_pruned) {
    cm_pruned_selects_.fetch_add(1, std::memory_order_relaxed);
  }
  if (metrics_ != nullptr) {
    if (out.clustered_routed) metrics_->router_clustered_routed->Increment();
    if (out.cm_pruned) metrics_->router_cm_pruned->Increment();
    // Router-level trace: the scatter as one unit (per-shard executions
    // already recorded their own engine-level traces above). est/actual
    // carry the critical-path MAX over the visited shards so slow-log
    // entries stay comparable with engine traces; the partition-wide sums
    // and per-shard actuals ride the dedicated merged-trace fields, and
    // cache_hit means every visited shard hit (a scatter is cached only
    // if wholly served from cache).
    obs::SelectTrace t;
    t.fingerprint = obs::FingerprintQuery(query);
    t.from_router = true;
    t.cache_hit =
        out.shards_visited > 0 && cache_hit_shards == out.shards_visited;
    t.cache_hit_shards = uint32_t(cache_hit_shards);
    t.est_ms = max_est_ms;
    t.actual_ms = max_actual_ms;
    t.sum_est_ms = out.merged.plan_est_ms;
    t.sum_actual_ms = out.merged.simulated_ms;
    t.num_matches = out.merged.num_matches;
    t.rows_examined = out.merged.rows_examined;
    t.shards_visited = uint32_t(out.shards_visited);
    t.shards_pruned = uint32_t(out.shards_pruned);
    t.num_candidates = uint32_t(out.merged.plan_candidates);
    for (size_t i = 0; i < parts.size() && i < obs::kTraceShardCap; ++i) {
      t.shard_actual_ms[t.num_shard_actuals++] = parts[i].simulated_ms;
    }
    metrics_->RecordRoutedSelect(t);
  }
  return out;
}

Status ShardRouter::ApplyAppend(std::span<const std::vector<Key>> rows) {
  if (rows.empty()) return Status::OK();
  if (shards_.size() == 1) return shards_[0].engine->ApplyAppend(rows);
  std::vector<std::vector<std::vector<Key>>> by_shard(shards_.size());
  for (const std::vector<Key>& row : rows) {
    if (row.size() <= c_col_) {
      return Status::InvalidArgument("appended row lacks the clustered key");
    }
    by_shard[RouteKey(row[c_col_])].push_back(row);
  }
  // All-or-nothing across shards. Phase 1: every target shard prepares
  // its slice (arity, capacity) and hands back a guard holding its append
  // lock -- ascending shard order makes the cross-shard lock acquisition
  // a total order, so concurrent multi-shard writes cannot deadlock. A
  // refusal drops the guards already held and no shard has changed. Phase
  // 2 applies everywhere.
  std::vector<ServingEngine::WriteGuard> guards(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Status st = shards_[s].engine->Prepare(
        ServingEngine::kAnyEpoch, {.appends = by_shard[s]}, &guards[s]);
    if (!st.ok()) return st;
  }
  Status out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!guards[s].valid()) continue;
    const Status st =
        shards_[s].engine->Commit(&guards[s], {.appends = by_shard[s]});
    if (out.ok()) out = st;
  }
  return out;
}

Status ShardRouter::ApplyDelete(size_t shard, RowId row,
                                uint64_t expected_epoch) {
  if (shard >= shards_.size()) return Status::OutOfRange("no such shard");
  return shards_[shard].engine->ApplyDelete(row, expected_epoch);
}

Status ShardRouter::ApplyUpdate(size_t shard, RowId row,
                                std::span<const Key> new_values,
                                uint64_t expected_epoch) {
  if (shard >= shards_.size()) return Status::OutOfRange("no such shard");
  if (new_values.size() <= c_col_) {
    return Status::InvalidArgument("updated row lacks the clustered key");
  }
  const size_t target = RouteKey(new_values[c_col_]);
  if (target == shard) {
    return shards_[shard].engine->ApplyUpdate(row, new_values,
                                              expected_epoch);
  }
  // The new clustered key moves the row across the partition: a delete in
  // its old shard plus an append to its owner, prepared on both shards in
  // ascending order (the multi-shard append's lock order) so a refusal on
  // either side -- stale epoch, dead row, full target -- changes neither.
  // The delete commits first: a select between the two commits sees
  // neither version, the same invariant the engine's own update keeps.
  const RowId old_row[1] = {row};
  const std::vector<Key> new_row[1] = {
      std::vector<Key>(new_values.begin(), new_values.end())};
  const ServingEngine::WriteSet del{.deletes = old_row};
  const ServingEngine::WriteSet add{.appends = new_row};
  ServingEngine& src = *shards_[shard].engine;
  ServingEngine& dst = *shards_[target].engine;
  ServingEngine::WriteGuard src_guard;
  ServingEngine::WriteGuard dst_guard;
  auto prepare_src = [&] {
    return src.Prepare(expected_epoch, del, &src_guard);
  };
  auto prepare_dst = [&] {
    return dst.Prepare(ServingEngine::kAnyEpoch, add, &dst_guard);
  };
  Status st = shard < target ? prepare_src() : prepare_dst();
  if (st.ok()) st = shard < target ? prepare_dst() : prepare_src();
  if (!st.ok()) return st;
  st = src.Commit(&src_guard, del);
  const Status appended = dst.Commit(&dst_guard, add);
  return st.ok() ? appended : st;
}

Result<ReclusterStats> ShardRouter::Recluster(size_t shard) {
  if (shard >= shards_.size()) return Status::OutOfRange("no such shard");
  return shards_[shard].engine->Recluster();
}

Result<ReclusterStats> ShardRouter::Compact(size_t shard) {
  if (shard >= shards_.size()) return Status::OutOfRange("no such shard");
  return shards_[shard].engine->Compact();
}

Status ShardRouter::ReclusterAll() {
  for (Shard& sh : shards_) {
    auto r = sh.engine->Recluster();
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

Status ShardRouter::CompactAll() {
  for (Shard& sh : shards_) {
    auto r = sh.engine->Compact();
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

void ShardRouter::ResetBufferPool() {
  // Each shard clears the (shared) pool -- idempotent -- and resets its
  // own epoch's calibration to cold.
  for (Shard& sh : shards_) sh.engine->ResetBufferPool();
}

Status ShardRouter::CheckInvariants() const {
  for (size_t i = 1; i < splits_.size(); ++i) {
    if (!(splits_[i - 1] < splits_[i])) {
      return Status::Corruption("split keys not strictly ascending");
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    Status st = shards_[s].engine->CheckInvariants();
    if (!st.ok()) return st;
    const Table& t = shards_[s].engine->table();
    for (RowId r = 0; r < t.NumRows(); ++r) {
      if (t.IsDeleted(r)) continue;
      if (RouteKey(t.GetKey(r, c_col_)) != s) {
        return Status::Corruption("live row held by a shard that does not "
                                  "own its clustered key");
      }
    }
  }
  return Status::OK();
}

}  // namespace corrmap::serve
