#include "serve/serving_engine.h"

#include <algorithm>
#include <cassert>

namespace corrmap::serve {

ServingEngine::ServingEngine(Table* table, const ClusteredIndex* cidx,
                             ServingOptions options)
    : options_(options),
      recluster_tail_rows_(options.recluster_tail_rows),
      compact_deleted_fraction_(options.compact_deleted_fraction),
      cost_model_(options.disk) {
  assert(table->clustered_column() == int(cidx->column()) &&
         "table must be clustered with cidx built over the clustered column");
  const size_t reserve =
      options_.reserve_rows > 0
          ? options_.reserve_rows
          : table->NumRows() + ServingOptions::kDefaultAppendHeadroom;
  table->Reserve(reserve);
  if (options_.shared_pool != nullptr) {
    pool_ = options_.shared_pool;
  } else if (options_.buffer_pool_pages > 0) {
    owned_pool_ = std::make_unique<BufferPool>(
        options_.buffer_pool_pages, ServingOptions::kBufferPoolStripes);
    pool_ = owned_pool_.get();
  }
  if (options_.shared_cache != nullptr) {
    cache_ = options_.shared_cache;
  } else {
    owned_cache_ = std::make_unique<SharedLookupCache>();
    cache_ = owned_cache_.get();
  }
  metrics_ = options_.metrics;
  durability_ = options_.durability;
  auto state = std::make_shared<EpochState>();
  state->table = table;
  state->cidx = cidx;
  state->clustered_boundary = RowId(table->NumRows());
  InitEpochCalibration(state.get());
  state_ = std::move(state);
  // A durable engine needs a base snapshot before its first logged write:
  // without one, a crash before the first recluster would have a log tail
  // and nothing to replay it against. An engine attached to an existing
  // checkpoint (the Recover path) keeps it.
  if (durability_ != nullptr) {
    durability_->set_metrics(metrics_);
    if (!durability_->has_checkpoint()) {
      durability_->Checkpoint(*table, state_->clustered_boundary, 0);
    }
  }
  if (metrics_ != nullptr && options_.shared_cache == nullptr) {
    RegisterMetricsGauges();
  }
  StartWorkers(options_.num_workers);
}

ServingEngine::~ServingEngine() {
  StopWorkers();
  if (metrics_ != nullptr) {
    for (const std::string& name : gauge_names_) {
      metrics_->registry().RemoveCallbackGauge(name);
    }
  }
}

void ServingEngine::RegisterMetricsGauges() {
  obs::MetricsRegistry& reg = metrics_->registry();
  auto add = [&](const std::string& name, std::function<double()> fn) {
    reg.RegisterCallbackGauge(name, std::move(fn));
    gauge_names_.push_back(name);
  };
  add("serve_tail_rows", [this] { return double(TailRows()); });
  add("serve_tombstones",
      [this] { return double(CurrentState()->table->NumDeleted()); });
  add("serve_live_rows", [this] {
    const std::shared_ptr<EpochState> st = CurrentState();
    return double(st->table->NumRows() - st->table->NumDeleted());
  });
  add("serve_recluster_epoch", [this] { return double(ReclusterEpoch()); });
  add("serve_queue_depth", [this] { return double(QueueDepth()); });
  RegisterCacheAndPoolGauges(add, *cache_, pool_);
}

void RegisterCacheAndPoolGauges(const GaugeAdder& add,
                                const SharedLookupCache& cache,
                                const BufferPool* pool) {
  const SharedLookupCache* c = &cache;
  add("cache_hits", [c] { return double(c->stats().hits); });
  add("cache_misses", [c] { return double(c->stats().misses); });
  add("cache_insertions", [c] { return double(c->stats().insertions); });
  add("cache_stale_evictions",
      [c] { return double(c->stats().stale_evictions); });
  add("cache_size", [c] { return double(c->Size()); });
  if (pool == nullptr) return;
  // One coherent per-stripe snapshot per gauge read; see the
  // BufferPoolSnapshot relaxed-consistency contract for what the exported
  // values can and cannot mix.
  add("pool_hits", [pool] { return double(pool->StatsSnapshot().stats.hits); });
  add("pool_misses",
      [pool] { return double(pool->StatsSnapshot().stats.misses); });
  add("pool_evictions",
      [pool] { return double(pool->StatsSnapshot().stats.evictions); });
  add("pool_dirty_evictions", [pool] {
    return double(pool->StatsSnapshot().stats.dirty_evictions);
  });
  add("pool_cached_pages",
      [pool] { return double(pool->StatsSnapshot().num_cached); });
  add("pool_dirty_pages",
      [pool] { return double(pool->StatsSnapshot().num_dirty); });
  add("pool_capacity_pages",
      [pool] { return double(pool->capacity_pages()); });
}

Status ServingEngine::AttachCm(CmOptions cm_options) {
  auto st = CurrentState();
  std::unique_ptr<ClusteredBucketing> owned_cb;
  uint64_t cb_target = 0;
  if (cm_options.c_buckets != nullptr) {
    if (cm_options.c_buckets->covered_rows() != st->clustered_boundary) {
      return Status::InvalidArgument(
          "clustered bucketing does not cover exactly the clustered "
          "region; rebuild it over the current table before attaching");
    }
    // Copy the caller's positional bucketing so the engine can rebuild it
    // over every recluster successor; remember only the target bucket
    // size (the one build parameter) across epochs.
    cb_target = cm_options.c_buckets->target_tuples_per_bucket();
    owned_cb = std::make_unique<ClusteredBucketing>(*cm_options.c_buckets);
    cm_options.c_buckets = owned_cb.get();
  }
  auto cm = ConcurrentCorrelationMap::Create(st->table, cm_options);
  if (!cm.ok()) return cm.status();
  auto owned = std::make_unique<ConcurrentCorrelationMap>(std::move(*cm));
  // A c-bucketed CM covers exactly the clustered region: positional
  // bucket ids do not extend into the tail, whose rows the sweep serves.
  const size_t build_limit = cm_options.c_buckets != nullptr
                                 ? size_t(st->clustered_boundary)
                                 : ~size_t{0};
  Status s = owned->BuildFromTable(build_limit);
  if (!s.ok()) return s;
  CmOptions remembered = cm_options;
  remembered.c_buckets = nullptr;  // per-epoch copies are rebuilt each swap
  attached_.push_back(std::move(remembered));
  c_bucket_targets_.push_back(cb_target);
  cm_slot_tags_.push_back(std::make_unique<uint64_t>(cm_slot_tags_.size()));
  st->cms.push_back(std::move(owned));
  st->c_bucketings.push_back(std::move(owned_cb));
  return Status::OK();
}

Status ServingEngine::AttachSecondaryIndex(std::vector<size_t> columns) {
  auto idx = BuildSecondaryIndex(columns);
  if (!idx.ok()) return idx.status();
  InstallSecondaryIndex(std::move(columns), std::move(*idx),
                        RegisterPoolFile());
  return Status::OK();
}

Result<std::unique_ptr<SecondaryIndex>> ServingEngine::BuildSecondaryIndex(
    const std::vector<size_t>& columns) const {
  auto st = CurrentState();
  if (columns.empty() || columns.size() > kMaxCmAttributes) {
    return Status::InvalidArgument("secondary index over 1..4 columns");
  }
  for (size_t c : columns) {
    if (c >= st->table->schema().num_columns()) {
      return Status::InvalidArgument("secondary-index column out of range");
    }
  }
  auto idx = std::make_unique<SecondaryIndex>(st->table, columns);
  // Clustered region only: tail rows are the tail sweep's, exactly as for
  // c-bucketed CMs, so appends never have to maintain the (immutable)
  // per-epoch tree.
  Status s = idx->BuildFromTable(size_t(st->clustered_boundary));
  if (!s.ok()) return s;
  return idx;
}

void ServingEngine::InstallSecondaryIndex(std::vector<size_t> columns,
                                          std::unique_ptr<SecondaryIndex> idx,
                                          uint32_t file) {
  auto st = CurrentState();
  sidx_columns_.push_back(std::move(columns));
  st->sidx.push_back(std::move(idx));
  st->sidx_files.push_back(file);
}

uint32_t ServingEngine::RegisterPoolFile() const {
  return pool_ != nullptr ? pool_->RegisterFile() : 0;
}

ServingEngine::EpochState::~EpochState() {
  if (pool == nullptr) return;
  pool->ForgetFile(heap_file);
  pool->ForgetFile(cidx_file);
  for (const uint32_t f : sidx_files) pool->ForgetFile(f);
}

void ServingEngine::InitEpochCalibration(EpochState* st) const {
  st->calibration = std::make_unique<CalibrationCell>();
  if (pool_ == nullptr) return;
  st->pool = pool_;
  st->heap_file = pool_->RegisterFile();
  st->cidx_file = pool_->RegisterFile();
  st->sidx_files.resize(st->sidx.size());
  for (uint32_t& f : st->sidx_files) f = pool_->RegisterFile();
}

PlanCalibration ServingEngine::CalibrationOf(const EpochState& st) const {
  if (pool_ == nullptr || st.calibration == nullptr) return {};
  std::shared_lock lock(st.calibration->mu);
  return st.calibration->calib;
}

void ServingEngine::MaybeRefreshCalibration(const EpochState& st) const {
  if (pool_ == nullptr || st.calibration == nullptr ||
      options_.calibration_period == 0) {
    return;
  }
  CalibrationCell& cell = *st.calibration;
  const uint64_t n =
      cell.selects_since.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (n < options_.calibration_period) return;
  cell.selects_since.store(0, std::memory_order_release);
  PlanCalibration fresh;
  // One sweep reads the whole-heap and per-extent residency under a
  // single lock hold per stripe.
  std::vector<FileResidency> extents;
  const FileResidency heap = pool_->ResidencyOfWithExtents(
      st.heap_file, st.table->NumPages(), &extents);
  fresh.heap_residency = heap.hit_rate;
  fresh.cidx_residency = pool_->ResidencyOf(st.cidx_file).hit_rate;
  // Extent-granular heap residency for the plan refinement: extents the
  // workload has not touched carry the whole-file scalar, so only ranges
  // with actual signal diverge from the legacy calibration.
  fresh.heap_extents.reserve(extents.size());
  for (const FileResidency& fr : extents) {
    fresh.heap_extents.push_back(fr.observed_touches > 0
                                     ? fr.hit_rate
                                     : fresh.heap_residency);
  }
  fresh.sidx_residency.reserve(st.sidx_files.size());
  for (const uint32_t f : st.sidx_files) {
    fresh.sidx_residency.push_back(pool_->ResidencyOf(f).hit_rate);
  }
  std::unique_lock lock(cell.mu);
  cell.calib = std::move(fresh);
}

PlanCalibration ServingEngine::CurrentCalibration() const {
  return CalibrationOf(*CurrentState());
}

void ServingEngine::ResetBufferPool() {
  if (pool_ != nullptr) pool_->Clear();
  const std::shared_ptr<EpochState> st = CurrentState();
  if (st->calibration != nullptr) {
    std::unique_lock lock(st->calibration->mu);
    st->calibration->calib = {};
    st->calibration->selects_since.store(0, std::memory_order_release);
  }
}

double ServingEngine::ChargeHeapRuns(const EpochState& st,
                                     std::span<const PageRun> runs) const {
  if (pool_ == nullptr) {
    return options_.disk.CostMs(CostOfRuns(runs));
  }
  // TouchRun locks each stripe the chunk hits once, and the hit flags are
  // priced page by page in run order, so the sum is the same double a
  // Touch-per-page loop gives.
  const double cold_page = options_.disk.seq_page_ms();
  const double cold_seek = options_.disk.seek_ms();
  constexpr uint64_t kChunkPages = BufferPool::kTouchRunWindow;
  uint8_t hit[kChunkPages];
  double ms = 0;
  for (const PageRun& run : runs) {
    for (uint64_t done = 0; done < run.length; done += kChunkPages) {
      const uint64_t n = std::min(kChunkPages, run.length - done);
      pool_->TouchRun(st.heap_file, run.first + done, n, hit);
      for (uint64_t i = 0; i < n; ++i) {
        ms += hit[i] ? CostModel::kResidentPageMs : cold_page;
        if (done + i == 0) {
          // The run's seek reaches the device only if its first page does.
          ms += hit[i] ? CostModel::kResidentSeekMs : cold_seek;
        }
      }
    }
  }
  return ms;
}

double ServingEngine::ChargeDescents(const EpochState& st,
                                     std::span<const PageNo> leaves) const {
  return ChargeDescentsOf(st.cidx_file, st.cidx->BTreeHeight(), leaves);
}

double ServingEngine::ChargeDescentsOf(uint32_t file, size_t height,
                                       std::span<const PageNo> leaves) const {
  if (pool_ == nullptr) {
    return double(leaves.size()) * double(height) * options_.disk.seek_ms();
  }
  const double cold_seek = options_.disk.seek_ms();
  double ms = 0;
  for (const PageNo leaf : leaves) {
    // Upper levels are shared pages [0, height-1); the leaf level is
    // proxied by the heap page the descent lands on, so leaf residency
    // follows the ranges the workload actually probes.
    for (size_t level = 0; level + 1 < height; ++level) {
      const bool hit = pool_->Touch({file, PageNo(level)});
      ms += hit ? CostModel::kResidentSeekMs : cold_seek;
    }
    const bool hit = pool_->Touch({file, PageNo(height) + leaf});
    ms += hit ? CostModel::kResidentSeekMs : cold_seek;
  }
  return ms;
}

SharedLookupCache::ResultPtr ServingEngine::LookupThroughCache(
    const EpochState& st, size_t slot,
    std::span<const CmColumnPredicate> preds, bool* hit) const {
  // Cross-query reuse keyed (stable CM slot, predicate fingerprint,
  // epoch). The slot tag outlives recluster swaps while the successor
  // CM's epoch is raised above its predecessor's, so entries computed
  // before a swap compare stale and are lazily evicted. A result computed
  // while maintenance interleaved (epoch moved) is used once but never
  // published.
  const ConcurrentCorrelationMap& cm = *st.cms[slot];
  const void* tag = cm_slot_tags_[slot].get();
  const uint64_t fp = SharedLookupCache::Fingerprint(preds);
  const uint64_t epoch = cm.Epoch();
  SharedLookupCache::ResultPtr res = cache_->Get(tag, fp, epoch);
  *hit = res != nullptr;
  if (res == nullptr) {
    res = std::make_shared<const CmLookupResult>(cm.Lookup(preds));
    if (cm.Epoch() == epoch) cache_->Put(tag, fp, epoch, res);
  }
  return res;
}

void ServingEngine::ResolveSidxPlans(const EpochState& st, const Query& query,
                                     std::vector<SidxPlan>* plans) const {
  plans->clear();
  const Table& table = *st.table;
  for (size_t i = 0; i < st.sidx.size(); ++i) {
    const SecondaryIndex& idx = *st.sidx[i];
    const Predicate* pred = FindPredicateOn(query, idx.columns().front());
    if (pred == nullptr) continue;  // composite prefix unpredicated
    SidxPlan plan;
    plan.slot = i;
    plan.rids = SecondaryIndexRids(table, idx, *pred, &plan.n_probes);
    plan.n_probes = std::max<size_t>(plan.n_probes, 1);
    // The per-epoch index covers [0, boundary) as built; drop rows
    // tombstoned since so costing prices the live rid set the execution
    // will sweep (execution still re-filters -- a delete can land between
    // here and there).
    std::erase_if(plan.rids, [&](RowId r) {
      return r >= st.clustered_boundary || table.IsDeleted(r);
    });
    std::sort(plan.rids.begin(), plan.rids.end());
    std::vector<PageNo> pages;
    pages.reserve(plan.rids.size());
    for (const RowId r : plan.rids) pages.push_back(table.layout().PageOfRow(r));
    plan.runs = ExtractRuns(std::move(pages), options_.disk.RunGapPages());
    plans->push_back(std::move(plan));
  }
}

ServingEngine::SelectPlan ServingEngine::Deliberate(const EpochState& st,
                                                    const Query& query) const {
  SelectPlan plan;
  plan.calib = CalibrationOf(st);
  plan.n_rows = st.table->NumRows();
  PlanContext ctx;
  ctx.table = st.table;
  ctx.cidx = st.cidx;
  ctx.clustered_boundary = st.clustered_boundary;
  ctx.n_rows = plan.n_rows;
  ctx.heap_residency = plan.calib.heap_residency;
  ctx.cidx_residency = plan.calib.cidx_residency;
  ctx.heap_extent_residency = plan.calib.heap_extents;
  ctx.heap_extent_pages = BufferPool::kExtentPages;
  ctx.num_deleted = st.table->NumDeleted();
  ctx.cost_model = &cost_model_;

  // Every applicable CM: its lookup, and the translation of its runs to
  // clustered row ranges -- priced now, swept later if it wins.
  const size_t n_cms = st.cms.size();
  plan.views.assign(n_cms, CmPlanView{});
  plan.lookups.assign(n_cms, nullptr);
  plan.cache_hits.assign(n_cms, 0);
  plan.cm_ranges.assign(n_cms, CmRowRanges{});
  std::vector<CmColumnPredicate> preds;
  for (size_t i = 0; i < n_cms; ++i) {
    const ConcurrentCorrelationMap& cm = *st.cms[i];
    if (!CompileCmPredicates(cm.options().u_cols, query, &preds)) continue;
    bool hit = false;
    plan.lookups[i] = LookupThroughCache(st, i, preds, &hit);
    plan.cache_hits[i] = hit ? 1 : 0;
    CmPlanView& view = plan.views[i];
    view = cm.PlanView(plan.lookups[i].get());
    if (view.lookup->empty()) continue;
    plan.cm_ranges[i] = TranslateCmRuns(*st.table, *st.cidx, cm.options(),
                                        *view.lookup, st.clustered_boundary);
    view.row_ranges = plan.cm_ranges[i].ranges;
  }

  // Sorted-index candidates: exact rid sets priced with the same shared
  // enumeration the Executor uses for its caller-priced extras.
  ResolveSidxPlans(st, query, &plan.sidx_plans);
  std::vector<PlanCandidate> extras;
  extras.reserve(plan.sidx_plans.size());
  for (const SidxPlan& sp : plan.sidx_plans) {
    const SecondaryIndex& idx = *st.sidx[sp.slot];
    const double sidx_res = sp.slot < plan.calib.sidx_residency.size()
                                ? plan.calib.sidx_residency[sp.slot]
                                : 0.0;
    extras.push_back({PlanKind::kSortedIndex,
                      "sorted_index_scan(" + idx.Name() + ")",
                      SortedIndexCostMs(ctx, sp.runs, sp.rids.size(),
                                        sp.n_probes, idx.Height(), sidx_res),
                      sp.slot, false});
  }
  plan.plans = ChooseAccessPlan(ctx, query, plan.views, extras);
  return plan;
}

PlanSet ServingEngine::PlanSelect(const Query& query) const {
  return Deliberate(*CurrentState(), query).plans;
}

bool ServingEngine::CanSkipForQuery(const Query& query,
                                    bool* applicable) const {
  *applicable = false;
  const std::shared_ptr<EpochState> st = CurrentState();
  std::vector<CmColumnPredicate> preds;
  for (size_t i = 0; i < st->cms.size(); ++i) {
    if (!CompileCmPredicates(st->cms[i]->options().u_cols, query, &preds)) {
      continue;
    }
    // The first applicable CM decides.
    *applicable = true;
    bool hit = false;
    const SharedLookupCache::ResultPtr res =
        LookupThroughCache(*st, i, preds, &hit);
    // Conservative on two counts: the tail must be empty (a tail row may
    // match before its CM entries land -- or ever, for c-bucketed CMs),
    // and the CM may only over-cover (tombstone-first deletes), so an
    // empty lookup proves an empty answer.
    const bool tail_empty =
        st->clustered_boundary >= RowId(st->table->NumRows());
    return tail_empty && res->empty();
  }
  return false;
}

SelectResult ServingEngine::ExecuteSelect(const Query& query) const {
  // Pin one epoch for the whole select: table, clustered index, boundary,
  // CM set, and calibration inputs stay mutually consistent even if a
  // recluster swaps the engine to a successor mid-flight.
  const std::shared_ptr<EpochState> st = CurrentState();
  const SelectPlan plan = Deliberate(*st, query);
  const SelectResult out = ExecutePlan(*st, query, plan);
  RecordSelect(*st, query, plan, out);
  return out;
}

SelectResult ServingEngine::ExecutePlan(const EpochState& st,
                                        const Query& query,
                                        const SelectPlan& plan) const {
  const PlanCandidate& win = plan.plans.chosen_plan();
  SelectResult out;
  out.recluster_epoch = st.version;
  out.heap_residency = plan.calib.heap_residency;
  out.cidx_residency = plan.calib.cidx_residency;
  out.plan_kind = win.kind;
  out.plan = win.description;
  out.plan_est_ms = win.est_ms;
  out.plan_candidates = plan.plans.candidates.size();
  out.used_cm = win.kind == PlanKind::kCmProbe;
  if (out.used_cm) {
    out.plan_cm_slot = win.slot;
    out.cache_hit = plan.cache_hits[win.slot] != 0;
  }

  const Table& table = *st.table;
  const size_t n_rows = plan.n_rows;
  const RowId boundary = st.clustered_boundary;
  RowFilterCounts counts;
  double ms = 0;
  auto sweep_ranges = [&](std::span<const RowRange> ranges) {
    std::vector<PageNo> pages;
    for (const RowRange& range : ranges) {
      FilterRowRange(table, query, range, &counts, nullptr, &pages);
    }
    ms += ChargeHeapRuns(
        st, ExtractRuns(std::move(pages), options_.disk.RunGapPages()));
  };

  switch (win.kind) {
    case PlanKind::kSeqScan: {
      FilterRowRange(table, query, RowRange{0, RowId(n_rows)}, &counts);
      DiskStats io;
      io.seq_pages = table.layout().NumPages(n_rows);
      ms += options_.disk.CostMs(io);
      break;
    }
    case PlanKind::kClusteredRange: {
      // The shared predicate-selection rule: ChooseAccessPlan costed this
      // plan from the same predicate, so plan_est_ms prices exactly the
      // range set executed here.
      const Predicate* cpred = FindPredicateOn(query, st.cidx->column());
      assert(cpred != nullptr && "clustered plan without clustered pred");
      const std::vector<RowRange> ranges =
          ClusteredRangesFor(table, *st.cidx, *cpred, boundary);
      // One descent per probe key (at least one), as ClusteredRangeCostMs
      // prices it: a key that found rows lands on its range's first page,
      // and each descent that missed lands on page 0.
      std::vector<PageNo> leaves(
          std::max<size_t>(ClusteredProbeCount(*cpred), 1), 0);
      for (size_t i = 0; i < ranges.size(); ++i) {
        leaves[i] = table.layout().PageOfRow(ranges[i].begin);
      }
      ms += ChargeDescents(st, leaves);
      sweep_ranges(ranges);
      break;
    }
    case PlanKind::kCmProbe: {
      // The deliberation's translation (the tail is swept separately
      // below; neither cidx nor the positional bucketing covers rows >=
      // boundary): the descents and ranges CmProbeCostMs priced.
      const CmRowRanges& rr = plan.cm_ranges[win.slot];
      ms += ChargeDescents(st, rr.leaves);
      sweep_ranges(rr.ranges);
      const CmPlanView& view = plan.views[win.slot];
      ms += cost_model_.CmLookupProbeCost(
          double(std::max<size_t>(view.num_ukeys, 1)),
          double(view.lookup->entries_probed));
      break;
    }
    case PlanKind::kSortedIndex: {
      const SidxPlan* sp = nullptr;
      for (const SidxPlan& p : plan.sidx_plans) {
        if (p.slot == win.slot) sp = &p;
      }
      assert(sp != nullptr && "chosen sorted-index slot not resolved");
      const SecondaryIndex& idx = *st.sidx[sp->slot];
      // One descent per probe; leaves proxied by the runs' first heap
      // pages so leaf residency tracks the ranges actually landed on.
      std::vector<PageNo> leaves;
      leaves.reserve(sp->n_probes);
      for (size_t i = 0; i < sp->n_probes; ++i) {
        leaves.push_back(
            sp->runs.empty()
                ? PageNo(0)
                : sp->runs[std::min(i, sp->runs.size() - 1)].first);
      }
      ms += ChargeDescentsOf(st.sidx_files[sp->slot], idx.Height(), leaves);
      FilterRidList(table, query, sp->rids, &counts);
      ms += ChargeHeapRuns(st, sp->runs);
      break;
    }
  }

  // Unclustered append tail: one sequential sweep, full re-filter, for
  // every non-scan plan. This is what makes a freshly appended row
  // visible to selects immediately; a recluster returns the tail to zero
  // and retires this cost.
  if (win.kind != PlanKind::kSeqScan && boundary < n_rows) {
    out.tail_rows_swept = uint64_t(n_rows) - uint64_t(boundary);
    FilterRowRange(table, query, RowRange{boundary, RowId(n_rows)}, &counts);
    const PageNo first = table.layout().PageOfRow(boundary);
    const PageNo last = table.layout().PageOfRow(n_rows - 1);
    const PageRun tail_run{first, last - first + 1};
    ms += ChargeHeapRuns(st, std::span<const PageRun>(&tail_run, 1));
  }

  out.rows_examined = counts.examined;
  out.num_matches = counts.matches;
  // Dead rows examined and skipped are priced at the tombstone CPU term,
  // so execution cost tracks the same penalty plan costing estimated.
  out.simulated_ms = ms + double(counts.dead) * CostModel::kTombstoneCpuMs;
  return out;
}

void ServingEngine::RecordSelect(const EpochState& st, const Query& query,
                                 const SelectPlan& plan,
                                 const SelectResult& out) const {
  MaybeRefreshCalibration(st);
  if (metrics_ == nullptr) return;
  obs::SelectTrace trace;
  trace.fingerprint = obs::FingerprintQuery(query);
  trace.epoch = st.version;
  trace.plan_kind = out.plan_kind;
  trace.cache_hit = out.cache_hit;
  trace.est_ms = out.plan_est_ms;
  trace.actual_ms = out.simulated_ms;
  trace.num_matches = out.num_matches;
  trace.rows_examined = out.rows_examined;
  trace.tail_rows_swept = out.tail_rows_swept;
  trace.num_candidates = uint32_t(plan.plans.candidates.size());
  for (const PlanCandidate& c : plan.plans.candidates) {
    if (trace.num_recorded == obs::kTraceCandidateCap) break;
    trace.candidates[trace.num_recorded++] = {c.kind, uint32_t(c.slot),
                                              c.est_ms};
  }
  metrics_->RecordSelect(trace);
}

Status ServingEngine::Prepare(uint64_t expected_epoch, const WriteSet& w,
                              WriteGuard* out) {
  std::unique_lock<std::mutex> lock(append_mu_);
  // Re-read the state under the append lock: a recluster swap happens
  // with this lock held, so the epoch pinned here cannot be retired while
  // the guard is alive.
  std::shared_ptr<EpochState> st = CurrentState();
  if (expected_epoch != kAnyEpoch && st->version != expected_epoch) {
    if (metrics_ != nullptr) metrics_->write_conflicts->Increment();
    return Status::Aborted("epoch moved past " +
                           std::to_string(expected_epoch) +
                           "; row ids were permuted -- re-resolve the rows "
                           "and retry");
  }
  const Table& table = *st->table;
  const size_t arity = table.schema().num_columns();
  for (const std::vector<Key>& row : w.appends) {
    if (row.size() != arity) {
      return Status::InvalidArgument("row arity does not match the schema");
    }
  }
  for (const RowId row : w.deletes) {
    if (row >= table.NumRows()) {
      return Status::OutOfRange("row id past the published row count");
    }
    if (!w.skip_dead && table.IsDeleted(row)) {
      return Status::NotFound("row already deleted");
    }
  }
  if (table.NumRows() + w.appends.size() > table.ReservedRows()) {
    return Status::ResourceExhausted(
        "append past the table's reserved capacity; concurrent readers "
        "require append-without-reallocation");
  }
  out->lock_ = std::move(lock);
  out->state_ = std::move(st);
  return Status::OK();
}

Status ServingEngine::Commit(WriteGuard* guard, const WriteSet& w) {
  assert(guard != nullptr && guard->valid() && "commit without a prepare");
  // Adopt the guard: the lock stays held through the apply and releases
  // on return, and the validated epoch is the one mutated.
  const std::unique_lock<std::mutex> lock = std::move(guard->lock_);
  const std::shared_ptr<EpochState> st = std::move(guard->state_);
  Table* table = st->table;

  // Tombstone FIRST, then retract: between the two steps a concurrent
  // probe may still cover a row, but every access path re-filters through
  // the tombstone bitmap, so the CM transiently over-covers and never
  // under-covers -- probe==scan holds at every instant. Prepare checked
  // the bounds, so a row is skipped only if already dead (skip_dead, or a
  // repeat within the batch).
  std::vector<RowId> dead;
  dead.reserve(w.deletes.size());
  for (const RowId row : w.deletes) {
    if (!table->DeleteRow(row).ok()) continue;
    delete_log_.push_back(row);
    dead.push_back(row);
  }
  Status cm_status;
  std::vector<RowId> clustered_dead;  // c-bucketed CMs never covered tail
  for (const auto& cm : st->cms) {
    if (dead.empty()) break;
    std::span<const RowId> rows = dead;
    if (cm->has_clustered_buckets()) {
      if (clustered_dead.empty()) {
        for (const RowId row : dead) {
          if (row < st->clustered_boundary) clustered_dead.push_back(row);
        }
      }
      rows = clustered_dead;
    }
    const Status cs = cm->DeleteRowsBatched(rows);
    if (cm_status.ok()) cm_status = cs;
  }

  // Append: heap first, CMs after. Selects that race this batch find the
  // new rows via the tail sweep whether or not their CM entries have
  // landed. c-bucketed CMs are skipped entirely -- positional bucket ids
  // do not cover the tail; the next recluster folds these rows in.
  const RowId first = RowId(table->NumRows());
  std::vector<RowId> rids;
  rids.reserve(w.appends.size());
  for (const std::vector<Key>& row : w.appends) {
    rids.push_back(RowId(table->NumRows()));
    table->AppendRowKeys(std::span<const Key>(row.data(), row.size()));
  }
  for (const auto& cm : st->cms) {
    if (!cm->has_clustered_buckets()) cm->InsertRowsBatched(rids);
  }
  if (dead.empty() && rids.empty()) return cm_status;

  // Log after the mutation: under append_mu_ the log order is exactly the
  // apply order, so replay reproduces the same row ids. The record holds
  // the rows this write actually tombstoned and every appended row, so
  // replay deletes and appends exactly them.
  if (durability_ != nullptr) durability_->LogWrite(first, dead, w.appends);
  if (metrics_ != nullptr) {
    // The row counters see every row, whatever the write's shape; a write
    // that both deletes and appends counts as one update, not an append.
    if (!dead.empty()) metrics_->deletes->Add(dead.size());
    if (!rids.empty()) {
      metrics_->rows_appended->Add(rids.size());
      (dead.empty() ? metrics_->appends : metrics_->updates)->Increment();
    }
  }
  MaybeScheduleRecluster(*st);
  return cm_status;
}

Status ServingEngine::Write(uint64_t expected_epoch, const WriteSet& w) {
  WriteGuard guard;
  Status s = Prepare(expected_epoch, w, &guard);
  if (!s.ok()) return s;
  return Commit(&guard, w);
}

Status ServingEngine::ApplyAppend(std::span<const std::vector<Key>> rows) {
  if (rows.empty()) return Status::OK();
  return Write(kAnyEpoch, {.appends = rows});
}

Status ServingEngine::ApplyDelete(RowId row, uint64_t expected_epoch) {
  const RowId one[1] = {row};
  return Write(expected_epoch, {.deletes = one});
}

Status ServingEngine::ApplyDeletes(std::span<const RowId> rows,
                                   uint64_t expected_epoch) {
  if (rows.empty()) return Status::OK();
  return Write(expected_epoch, {.deletes = rows, .skip_dead = true});
}

Status ServingEngine::ApplyUpdate(RowId row, std::span<const Key> new_values,
                                  uint64_t expected_epoch) {
  const RowId old_row[1] = {row};
  const std::vector<Key> new_row[1] = {
      std::vector<Key>(new_values.begin(), new_values.end())};
  return Write(expected_epoch, {.deletes = old_row, .appends = new_row});
}

void ServingEngine::MaybeScheduleRecluster(const EpochState& st) {
  const size_t tail_threshold =
      recluster_tail_rows_.load(std::memory_order_relaxed);
  const double dead_threshold =
      compact_deleted_fraction_.load(std::memory_order_relaxed);
  const size_t n_rows = st.table->NumRows();
  const bool tail_due = tail_threshold > 0 &&
                        n_rows - st.clustered_boundary >= tail_threshold;
  const bool compact_due =
      dead_threshold > 0 && n_rows > 0 &&
      double(st.table->NumDeleted()) >= dead_threshold * double(n_rows);
  if (!tail_due && !compact_due) return;
  if (recluster_pending_.exchange(true, std::memory_order_acq_rel)) return;
  // A compacting pass also drains the tail, so compaction wins when both
  // triggers fire.
  const ReclusterMode mode = compact_due ? ReclusterMode::kCompact
                                         : ReclusterMode::kMergeTail;
  Enqueue([this, mode] {
    const auto result = Reclusterer(this, mode).Run();
    recluster_pending_.store(false, std::memory_order_release);
    if (!result.ok()) {
      // Surface the failure (ReclusterFailures) and do NOT re-arm: each
      // attempt pays a full phase-1 build, so a persistent error must not
      // retry in a tight loop. The next over-threshold append tries again.
      recluster_failures_.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    // Re-arm: appends that landed while this pass ran (an over-threshold
    // burst) would otherwise sit in the tail until the *next* append.
    MaybeScheduleRecluster(*CurrentState());
  });
}

Result<ReclusterStats> ServingEngine::Recluster() {
  return Reclusterer(this).Run();
}

Result<ReclusterStats> ServingEngine::Compact() {
  return Reclusterer(this, ReclusterMode::kCompact).Run();
}

void ServingEngine::Post(std::function<void()> fn) { Enqueue(std::move(fn)); }

void ServingEngine::ResizeWorkerPool(size_t n) {
  StopWorkers();
  StartWorkers(n);
}

void ServingEngine::StartWorkers(size_t n) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = false;
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ServingEngine::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void ServingEngine::Enqueue(std::function<void()> fn) {
  QueuedJob job;
  job.fn = std::move(fn);
  if (metrics_ != nullptr) job.enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

void ServingEngine::WorkerLoop() {
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue before honoring a stop so ResizeWorkerPool never
      // strands submitted futures.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (metrics_ != nullptr) {
      const auto waited = std::chrono::steady_clock::now() - job.enqueued;
      metrics_->queue_wait_us->Record(
          std::chrono::duration<double, std::micro>(waited).count());
    }
    job.fn();
  }
}

size_t ServingEngine::num_cms() const { return CurrentState()->cms.size(); }

RowId ServingEngine::clustered_boundary() const {
  return CurrentState()->clustered_boundary;
}

size_t ServingEngine::TailRows() const {
  const std::shared_ptr<EpochState> st = CurrentState();
  return st->table->NumRows() - st->clustered_boundary;
}

uint64_t ServingEngine::ReclusterEpoch() const {
  return CurrentState()->version;
}

const Table& ServingEngine::table() const { return *CurrentState()->table; }

const ClusteredIndex& ServingEngine::cidx() const {
  return *CurrentState()->cidx;
}

std::vector<uint32_t> ServingEngine::PoolFiles() const {
  const std::shared_ptr<EpochState> st = CurrentState();
  std::vector<uint32_t> files = {st->heap_file, st->cidx_file};
  files.insert(files.end(), st->sidx_files.begin(), st->sidx_files.end());
  return files;
}

const ConcurrentCorrelationMap& ServingEngine::cm(size_t i) const {
  return *CurrentState()->cms[i];
}

Status ServingEngine::CheckInvariants() const {
  const std::shared_ptr<EpochState> st = CurrentState();
  for (const auto& cm : st->cms) {
    Status s = cm->CheckInvariants();
    if (!s.ok()) return s;
  }
  const Table& table = *st->table;
  if (size_t(st->clustered_boundary) > table.NumRows()) {
    return Status::Corruption("clustered boundary past the row count");
  }
  const size_t c_col = size_t(table.clustered_column());
  for (RowId r = 1; r < st->clustered_boundary; ++r) {
    if (table.GetKey(r, c_col) < table.GetKey(r - 1, c_col)) {
      return Status::Corruption("clustered region out of order at row " +
                                std::to_string(r));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<ServingEngine>> ServingEngine::Recover(
    size_t c_col, const ServingOptions& options, const RecoverSpec& spec,
    RecoveryStats* stats_out) {
  RecoveryStats stats;
  std::vector<uint32_t> sidx_files;
  auto engine = OpenCheckpoint(c_col, options, spec, &sidx_files, &stats);
  if (!engine.ok()) return engine.status();
  Status s = (*engine)->ReplayTail(options, spec, sidx_files, &stats);
  if (!s.ok()) return s;
  if (stats_out != nullptr) *stats_out = stats;
  return engine;
}

Result<std::unique_ptr<ServingEngine>> ServingEngine::OpenCheckpoint(
    size_t c_col, const ServingOptions& options, const RecoverSpec& spec,
    std::vector<uint32_t>* sidx_files, RecoveryStats* stats) {
  const auto t_start = std::chrono::steady_clock::now();
  Durability* d = options.durability;
  if (d == nullptr || !d->has_checkpoint()) {
    return Status::InvalidArgument(
        "recovery requires a durability manager holding a checkpoint "
        "(a durable engine writes one at construction)");
  }
  stats->checkpoint_epoch = d->checkpoint_epoch();

  // 1. The durable base: a private clone of the checkpoint snapshot,
  // which was taken at an epoch publish and is therefore fully clustered
  // with a fresh clustered index buildable over it.
  std::unique_ptr<Table> table = d->checkpoint_table()->Clone();
  auto built_cidx = ClusteredIndex::Build(*table, c_col);
  if (!built_cidx.ok()) return built_cidx.status();
  auto cidx = std::make_unique<ClusteredIndex>(std::move(*built_cidx));

  // 2. An engine over the snapshot. Durability stays detached and the
  // background triggers disarmed until ReplayTail finishes: replay
  // must not re-log its own records, and a recluster would permute row
  // ids mid-replay while the remaining records still address the
  // pre-crash id space.
  ServingOptions eo = options;
  eo.durability = nullptr;
  eo.recluster_tail_rows = 0;
  eo.compact_deleted_fraction = 0;
  auto engine =
      std::unique_ptr<ServingEngine>(new ServingEngine(table.get(),
                                                       cidx.get(), eo));
  engine->state_->owned_table = std::move(table);
  engine->state_->owned_cidx = std::move(cidx);
  sidx_files->resize(spec.secondary_indexes.size());
  for (uint32_t& f : *sidx_files) f = engine->RegisterPoolFile();
  stats->wall_seconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_start)
                             .count();
  return engine;
}

Status ServingEngine::ReplayTail(const ServingOptions& options,
                                 const RecoverSpec& spec,
                                 std::span<const uint32_t> sidx_files,
                                 RecoveryStats* stats) {
  const auto t_start = std::chrono::steady_clock::now();
  Durability* d = options.durability;

  // 3. Structures that cover the checkpoint's rows [0, boundary): the
  // c-bucketed CMs' positional bucketings and the secondary indexes. They
  // are rebuilt from the base data, not replayed from the log, and replay
  // never moves the boundary, so they are built once, before the tail.
  std::vector<std::unique_ptr<ClusteredBucketing>> buckets(spec.cms.size());
  for (size_t i = 0; i < spec.cms.size(); ++i) {
    if (spec.cms[i].c_bucket_target == 0) continue;
    auto built = ClusteredBucketing::Build(table(), spec.cms[i].options.c_col,
                                           spec.cms[i].c_bucket_target);
    if (!built.ok()) return built.status();
    buckets[i] = std::make_unique<ClusteredBucketing>(std::move(*built));
  }
  for (size_t i = 0; i < spec.secondary_indexes.size(); ++i) {
    auto idx = BuildSecondaryIndex(spec.secondary_indexes[i]);
    if (!idx.ok()) return idx.status();
    InstallSecondaryIndex(spec.secondary_indexes[i], std::move(*idx),
                          sidx_files[i]);
  }

  // 4. Replay the committed log tail through the ordinary write path with
  // no CM attached yet, so tombstones, appends and the delete log evolve
  // as they did pre-crash while no record pays CM maintenance. Row ids
  // re-land deterministically: appends take consecutive ids from the row
  // count, which starts at the checkpoint's count and is advanced only by
  // these replayed records. A deletes-only record replays idempotently
  // (skip_dead), as ApplyDeletes applied it.
  for (const WalRecord& rec : d->CommittedTail()) {
    ++stats->records_scanned;
    Durability::WriteOp op;
    if (!Durability::DecodeWrite(rec.payload, &op)) {
      return Status::Corruption("undecodable row-write payload");
    }
    if (!op.appends.empty() && RowId(table().NumRows()) != op.first_row) {
      return Status::Corruption(
          "replay row ids diverged from the logged append");
    }
    WriteSet w = {.deletes = op.deletes, .appends = op.appends};
    w.skip_dead = op.appends.empty();
    Status s = Write(kAnyEpoch, w);
    if (!s.ok()) return s;
  }

  // 5. Each CM, built once over the recovered table in slot order. A CM
  // holds the pairs of the live rows it covers (all of them, or those
  // below the boundary when c-bucketed), so one build equals building
  // over the checkpoint and maintaining it through every replayed write;
  // calibration starts cold like any fresh epoch.
  for (size_t i = 0; i < spec.cms.size(); ++i) {
    CmOptions co = spec.cms[i].options;
    co.c_buckets = buckets[i].get();  // AttachCm copies it
    Status s = AttachCm(co);
    if (!s.ok()) return s;
  }

  // 6. Re-attach durability and re-arm the background triggers. No fresh
  // checkpoint is needed: replay never permuted ids, so the existing
  // snapshot plus the retained tail plus future records stays replayable.
  durability_ = d;
  d->set_metrics(metrics_);
  recluster_tail_rows_.store(options.recluster_tail_rows,
                             std::memory_order_relaxed);
  compact_deleted_fraction_.store(options.compact_deleted_fraction,
                                  std::memory_order_relaxed);
  stats->wall_seconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_start)
                             .count();
  if (options.metrics != nullptr) {
    options.metrics->recovery_ms->Record(stats->wall_seconds * 1e3);
  }
  return Status::OK();
}

}  // namespace corrmap::serve
