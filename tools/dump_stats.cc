// dump_stats: exercise the serving stack against a synthetic workload and
// dump the resulting ServingMetrics snapshot -- the quickest way to see
// every exported series (and to pipe a live-shaped snapshot into jq or a
// Prometheus scrape test) without writing a bench.
//
//   dump_stats [--prometheus] [--selects N] [--seed S] [--out <path>]
//
// The workload is a miniature of bench_serve_mixed's mixed run: an ebay
// items table with two identity CMs, N selects sampled from a mixed
// CM-point / clustered-range pool, a streamed append batch, a handful of
// deletes, one recluster and one compaction, all logged through a
// group-commit WAL -- enough traffic that every subsystem's series (pool,
// cache, plan choice, drift, recluster, worker queue, WAL and checkpoints)
// is populated. Default output is the JSON snapshot
// (ServingMetrics::ToJson); --prometheus switches to the text exposition
// format of the registry alone.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/clustered_index.h"
#include "obs/serving_metrics.h"
#include "serve/durability.h"
#include "serve/serving_engine.h"
#include "workload/ebay_gen.h"

using namespace corrmap;
using namespace corrmap::serve;

int main(int argc, char** argv) {
  bool prometheus = false;
  size_t selects = 800;
  uint64_t seed = 0xD57A75;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prometheus") == 0) prometheus = true;
    if (i + 1 >= argc) continue;
    if (std::strcmp(argv[i], "--selects") == 0) {
      selects = size_t(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = uint64_t(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  EbayGenConfig cfg;
  cfg.num_categories = 400;
  cfg.min_items_per_category = 60;
  cfg.max_items_per_category = 120;
  auto t = GenerateEbayItems(cfg);
  (void)t->ClusterBy(kEbay.catid);
  auto cidx = ClusteredIndex::Build(*t, kEbay.catid);
  if (!cidx.ok()) {
    std::cerr << "ClusteredIndex::Build: " << cidx.status().ToString()
              << "\n";
    return 1;
  }

  obs::ServingMetrics metrics;
  Durability durability;  // WAL + checkpoint series via the engine's sink
  ServingOptions so;
  so.num_workers = 2;
  so.reserve_rows = t->NumRows() + 8192;
  so.buffer_pool_pages = 256;
  so.calibration_period = 32;
  so.metrics = &metrics;
  so.durability = &durability;
  ServingEngine engine(t.get(), &*cidx, so);
  for (size_t col : {kEbay.cat4, kEbay.cat5}) {
    CmOptions cm;
    cm.u_cols = {col};
    cm.u_bucketers = {Bucketer::Identity()};
    cm.c_col = kEbay.catid;
    if (!engine.AttachCm(cm).ok()) {
      std::cerr << "AttachCm failed\n";
      return 1;
    }
  }

  // Mixed pool: CM-friendly points and clustered CATID ranges, so plan
  // choice exercises (and drift covers) more than one plan kind.
  Rng rng(seed);
  std::vector<Query> pool;
  const size_t cat4 = kEbay.cat4, cat5 = kEbay.cat5;
  for (size_t i = 0; i < 128; ++i) {
    if (i % 2 == 0) {
      const size_t col = i % 4 == 0 ? cat4 : cat5;
      const RowId r = RowId(rng.UniformInt(0, int64_t(t->NumRows()) - 1));
      pool.push_back(Query({Predicate::Eq(
          *t, t->schema().column(col).name,
          Value(t->column(col).dictionary()->Get(
              t->GetKey(r, col).AsInt64())))}));
    } else {
      const int64_t lo =
          rng.UniformInt(0, int64_t(cfg.num_categories) - 20);
      pool.push_back(Query(
          {Predicate::Between(*t, "CATID", Value(lo), Value(lo + 10))}));
    }
  }

  // Appends land in the unclustered tail; a mid-run recluster folds them
  // back; deletes then a compaction cover the tombstone lifecycle.
  auto make_batch = [&](size_t n) {
    std::vector<std::vector<Key>> rows;
    for (size_t i = 0; i < n; ++i) {
      const RowId proto =
          RowId(rng.UniformInt(0, int64_t(t->NumRows()) - 1));
      std::vector<Key> row(t->schema().num_columns(), Key(int64_t(0)));
      row[kEbay.catid] = t->GetKey(proto, kEbay.catid);
      for (size_t k = kEbay.cat1; k <= kEbay.cat6; ++k) {
        row[k] = t->GetKey(proto, k);
      }
      row[kEbay.item_id] = Key(rng.UniformInt(10'000'000, 99'999'999));
      row[kEbay.price] = Key(rng.UniformDouble(0, 1e6));
      rows.push_back(std::move(row));
    }
    return rows;
  };

  for (size_t phase = 0; phase < 2; ++phase) {
    if (!engine.ApplyAppend(make_batch(1024)).ok()) return 1;
    for (size_t i = 0; i < selects / 2; ++i) {
      // Half through the worker pool (queue-wait series), half inline.
      const Query& q =
          pool[size_t(rng.UniformInt(0, int64_t(pool.size()) - 1))];
      if (i % 2 == 0) {
        (void)engine.Submit(q).get();
      } else {
        (void)engine.ExecuteSelect(q);
      }
    }
    if (phase == 0) {
      if (!engine.Recluster().ok()) return 1;
    } else {
      std::vector<RowId> victims;
      for (size_t i = 0; i < 256; ++i) {
        victims.push_back(RowId(
            rng.UniformInt(0, int64_t(engine.table().NumRows()) - 1)));
      }
      if (!engine.ApplyDeletes(victims).ok()) return 1;
      if (!engine.Compact().ok()) return 1;
    }
  }

  const std::string text =
      prometheus ? metrics.ToPrometheus() : metrics.ToJson();
  if (out_path != nullptr) {
    std::ofstream(out_path) << text << "\n";
    std::cerr << "wrote " << out_path << "\n";
  } else {
    std::cout << text << "\n";
  }
  return 0;
}
