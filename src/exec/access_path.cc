#include "exec/access_path.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace corrmap {

namespace {

/// Applies the min(..., cost_scan) bound (§4.1): when a bitmap-style sweep
/// would cost more than reading the table front to back, the executor scans
/// instead. Matched rows are already exact; only the I/O story changes.
void MaybeDegradeToScan(const Table& table, const ExecOptions& opts,
                        ExecResult* out) {
  if (!opts.degrade_to_scan) return;
  DiskStats scan_io;
  scan_io.seq_pages = table.NumPages();
  const double scan_ms = opts.disk.CostMs(scan_io);
  if (out->ms <= scan_ms) return;
  out->io = scan_io;
  out->ms = scan_ms;
  out->rows_examined = table.NumLiveRows();
  out->path += "->seq_scan";
}

/// Scans the rows of `ranges` (sorted, non-overlapping), evaluating `query`
/// and charging the page-run sweep. Shared by clustered-index and CM scans.
void SweepRanges(const Table& table, const Query& query,
                 const std::vector<RowRange>& ranges, const ExecOptions& opts,
                 ExecResult* out) {
  RowFilterCounts counts;
  std::vector<PageNo> pages;
  for (const RowRange& range : ranges) {
    FilterRowRange(table, query, range, &counts, &out->rows, &pages);
  }
  out->rows_examined += counts.examined;
  if (opts.keep_trace) {
    for (PageNo p : pages) out->trace.Touch(p);
  }
  const auto runs = ExtractRuns(std::move(pages), opts.EffectiveGapTolerance());
  out->io += CostOfRuns(runs);
}

/// Index descent + leaf-scan I/O for probing `n_probes` regions covering
/// `n_entries` matching entries in a B+Tree of height `height`.
DiskStats IndexProbeIo(size_t n_probes, uint64_t n_entries, size_t height,
                       uint64_t leaf_pages) {
  DiskStats io;
  io.seeks = uint64_t(n_probes) * height;
  io.seq_pages = leaf_pages;
  (void)n_entries;
  return io;
}

/// Heap sweep I/O + filtering for a bitmap-style RID set: pages are
/// deduplicated and swept in order; every live row on a touched page is NOT
/// examined -- only the RIDs themselves are fetched, as PostgreSQL does
/// with its per-tuple bitmap.
void SweepRidPages(const Table& table, const Query& query,
                   std::vector<RowId> rids, const ExecOptions& opts,
                   ExecResult* out) {
  std::sort(rids.begin(), rids.end());
  rids.erase(std::unique(rids.begin(), rids.end()), rids.end());
  RowFilterCounts counts;
  std::vector<PageNo> pages;
  pages.reserve(rids.size());
  FilterRidList(table, query, rids, &counts, &out->rows, &pages);
  out->rows_examined += counts.examined;
  if (opts.keep_trace) {
    for (PageNo p : pages) out->trace.Touch(p);
  }
  const auto runs = ExtractRuns(std::move(pages), opts.EffectiveGapTolerance());
  out->io += CostOfRuns(runs);
}

}  // namespace

ExecResult FullTableScan(const Table& table, const Query& query,
                         const ExecOptions& opts) {
  ExecResult out;
  out.path = "seq_scan";
  RowFilterCounts counts;
  FilterRowRange(table, query, RowRange{0, RowId(table.NumRows())}, &counts,
                 &out.rows);
  out.rows_examined = counts.examined;
  out.io.seq_pages = table.NumPages();
  if (opts.keep_trace) {
    for (PageNo p = 0; p < table.NumPages(); ++p) out.trace.Touch(p);
  }
  out.ms = opts.disk.CostMs(out.io);
  return out;
}

ExecResult ClusteredIndexScan(const Table& table, const ClusteredIndex& cidx,
                              const Query& query, const ExecOptions& opts) {
  ExecResult out;
  out.path = "clustered_index_scan";
  const Predicate* pred = FindPredicateOn(query, cidx.column());
  assert(pred != nullptr && "query must predicate the clustered column");
  const std::vector<RowRange> ranges =
      ClusteredRangesFor(table, cidx, *pred, ~RowId{0});
  out.io.seeks += uint64_t(ClusteredProbeCount(*pred)) * cidx.BTreeHeight();
  SweepRanges(table, query, ranges, opts, &out);
  out.ms = opts.disk.CostMs(out.io);
  return out;
}

ExecResult PipelinedIndexScan(const Table& table, const SecondaryIndex& index,
                              const Query& query, const ExecOptions& opts) {
  ExecResult out;
  out.path = "pipelined_index_scan";
  const Predicate* pred = FindPredicateOn(query, index.columns().front());
  assert(pred != nullptr && "query must predicate the indexed column");

  // Probe values one at a time in the order given; each probe descends the
  // tree, then fetches heap tuples in index order (no sorting).
  size_t n_probes = 0;
  const std::vector<RowId> rids =
      SecondaryIndexRids(table, index, *pred, &n_probes);
  out.io += IndexProbeIo(n_probes, rids.size(), index.Height(),
                         index.tree().LeafPagesFor(rids.size()));
  // Heap access in arrival order: seek whenever the page changes.
  RowFilterCounts counts;
  std::vector<PageNo> pages;
  pages.reserve(rids.size());
  FilterRidList(table, query, rids, &counts, &out.rows, &pages);
  out.rows_examined = counts.examined;
  PageNo last_page = PageNo(-1);
  for (const PageNo p : pages) {
    if (p == last_page) continue;
    ++out.io.seeks;
    last_page = p;
    if (opts.keep_trace) out.trace.Touch(p);
  }
  std::sort(out.rows.begin(), out.rows.end());
  out.ms = opts.disk.CostMs(out.io);
  return out;
}

ExecResult SortedIndexScan(const Table& table, const SecondaryIndex& index,
                           const Query& query, const ExecOptions& opts) {
  ExecResult out;
  out.path = "sorted_index_scan";
  const Predicate* pred = FindPredicateOn(query, index.columns().front());
  assert(pred != nullptr && "query must predicate the indexed column");

  size_t n_probes = 0;
  std::vector<RowId> rids = SecondaryIndexRids(table, index, *pred, &n_probes);
  out.io += IndexProbeIo(n_probes, rids.size(), index.Height(),
                         index.tree().LeafPagesFor(rids.size()));
  SweepRidPages(table, query, std::move(rids), opts, &out);
  out.ms = opts.disk.CostMs(out.io);
  MaybeDegradeToScan(table, opts, &out);
  return out;
}

ExecResult VirtualSortedIndexScan(const Table& table, const Query& query,
                                  size_t index_col, const ExecOptions& opts) {
  ExecResult out;
  out.path = "sorted_index_scan(virtual)";
  const Predicate* pred = FindPredicateOn(query, index_col);
  assert(pred != nullptr && "query must predicate the indexed column");

  // Matching RIDs found from the column directly; index descent + leaf I/O
  // charged analytically exactly as SortedIndexScan would.
  std::vector<RowId> rids;
  const size_t n = table.NumRows();
  for (RowId r = 0; r < n; ++r) {
    if (table.IsDeleted(r)) continue;
    if (pred->MatchesKey(table.GetKey(r, index_col))) rids.push_back(r);
  }
  // Height of a hypothetical dense secondary B+Tree on this column:
  // leaf level + levels needed to index the leaf pages.
  const double fanout = double(kDefaultPageSizeBytes) / 20.0;
  const double leaves = std::max(1.0, std::ceil(double(n) / fanout));
  const size_t height =
      1 + size_t(std::ceil(std::log(leaves) / std::log(fanout)));
  const size_t n_probes = pred->op() == Predicate::Op::kRange
                              ? 1
                              : std::max<size_t>(1, pred->keys().size());
  const uint64_t leaf_pages = (rids.size() + 399) / 400;
  out.io += IndexProbeIo(n_probes, rids.size(), height, leaf_pages);
  SweepRidPages(table, query, std::move(rids), opts, &out);
  out.ms = opts.disk.CostMs(out.io);
  MaybeDegradeToScan(table, opts, &out);
  return out;
}

bool CompileCmPredicates(std::span<const size_t> u_cols, const Query& query,
                         std::vector<CmColumnPredicate>* out) {
  out->clear();
  for (const size_t ucol : u_cols) {
    const Predicate* p = FindPredicateOn(query, ucol);
    if (p == nullptr) return false;
    if (p->op() == Predicate::Op::kRange) {
      out->push_back(CmColumnPredicate::Range(p->lo(), p->hi()));
    } else {
      out->push_back(CmColumnPredicate::Points(p->keys()));
    }
  }
  return true;
}

Result<std::vector<CmColumnPredicate>> CmPredicatesFor(
    const CorrelationMap& cm, const Query& query) {
  std::vector<CmColumnPredicate> preds;
  const std::vector<size_t>& u_cols = cm.options().u_cols;
  if (CompileCmPredicates(u_cols, query, &preds)) return preds;
  // Compilation stops at the first unpredicated attribute.
  return Status::InvalidArgument(
      "CM attribute '" + cm.table().schema().column(u_cols[preds.size()]).name +
      "' is not predicated by the query");
}

const CmLookupResult* CmLookupCache::GetOrCompute(const CorrelationMap& cm,
                                                  const Query& query) {
  std::vector<CmColumnPredicate> preds;
  const bool applicable = CompileCmPredicates(cm.options().u_cols, query,
                                              &preds);
  // Inapplicable CMs key under fingerprint 0 (the predicates don't exist
  // to hash); applicability only depends on the query's predicated
  // columns, which the fingerprint distinguishes for applicable ones.
  const EntryKey key{&cm, applicable ? FingerprintCmPredicates(preds) : 0};
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    std::optional<CmLookupResult> res;
    if (applicable) res = cm.Lookup(preds);
    it = cache_.emplace(key, std::move(res)).first;
  }
  return it->second.has_value() ? &*it->second : nullptr;
}

CmRowRanges TranslateCmRuns(const Table& table, const ClusteredIndex& cidx,
                            const CmOptions& cm, const CmLookupResult& res,
                            RowId clamp_end) {
  CmRowRanges out;
  out.ranges.reserve(res.ranges.size());
  const ClusteredBucketing* cb = cm.c_buckets;
  const bool double_keys =
      table.schema().column(cm.c_col).type == ValueType::kDouble;
  auto decode = [&](int64_t ordinal) {
    return double_keys ? Key(OrderedOrdinalToDouble(ordinal)) : Key(ordinal);
  };
  for (const OrdinalRange& r : res.ranges) {
    // Raw-key runs: each run of consecutive keys is one clustered-index
    // range probe (the heap is contiguous over the run's key interval).
    RowRange range = cb != nullptr
                         ? cb->RangeOfBucketRun(r.lo, r.hi)
                         : cidx.LookupRange(decode(r.lo), decode(r.hi));
    range.end = std::min(range.end, clamp_end);
    if (range.empty()) continue;
    if (cb == nullptr) {
      out.leaves.push_back(table.layout().PageOfRow(range.begin));
    }
    out.ranges.push_back(range);
  }
  std::sort(out.ranges.begin(), out.ranges.end(),
            [](const RowRange& a, const RowRange& b) {
              return a.begin < b.begin;
            });
  // c-bucketed: one descent for the whole sorted set, landing on its
  // first range.
  if (cb != nullptr && !out.ranges.empty()) {
    out.leaves.push_back(table.layout().PageOfRow(out.ranges.front().begin));
  }
  return out;
}

std::vector<RowId> SecondaryIndexRids(const Table& table,
                                      const SecondaryIndex& index,
                                      const Predicate& pred,
                                      size_t* n_probes) {
  const size_t col = index.columns().front();
  std::vector<RowId> rids;
  if (pred.op() == Predicate::Op::kRange) {
    const bool integral =
        table.schema().column(col).type != ValueType::kDouble;
    const Column& column = table.column(col);
    const CompositeKey lo(column.EncodeKey(
        Value(integral ? std::ceil(pred.lo()) : pred.lo())));
    const CompositeKey hi(column.EncodeKey(
        Value(integral ? std::floor(pred.hi()) : pred.hi())));
    *n_probes = 1;
    return index.LookupRange(lo, hi);
  }
  for (const Key& k : pred.keys()) {
    const CompositeKey ck(k);
    const std::vector<RowId> part = index.LookupRange(ck, ck);
    rids.insert(rids.end(), part.begin(), part.end());
  }
  *n_probes = pred.keys().size();
  return rids;
}

namespace {

/// One predicate resolved against its column's typed slot array, so the
/// filter's inner loops test raw int64/double slots instead of building a
/// Key per row. Each kernel gives exactly Predicate::MatchesKey's answer;
/// a shape without one (kIn on a double column) keeps MatchesKey itself.
struct TypedPredicate {
  enum class Kernel : uint8_t {
    kIntRange,     ///< double(slot) in [lo, hi], as Key::Numeric widens
    kDoubleRange,  ///< slot in [lo, hi]
    kIntEq,        ///< slot == int_key
    kDoubleEq,     ///< slot == double_key (NaN never, -0.0 == 0.0)
    kIntIn,        ///< slot in int_keys (binary search)
    kNever,        ///< key type differs from the column's: Key== is false
    kGeneric,      ///< Predicate::MatchesKey on the row's Key
  };
  Kernel kernel = Kernel::kGeneric;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  double lo = 0;
  double hi = 0;
  int64_t int_key = 0;
  double double_key = 0;
  std::vector<int64_t> int_keys;  ///< ascending
  const Predicate* pred = nullptr;
  const Column* column = nullptr;
};

TypedPredicate CompilePredicate(const Table& table, const Predicate& p) {
  using Kernel = TypedPredicate::Kernel;
  TypedPredicate t;
  t.column = &table.column(p.column());
  t.pred = &p;
  t.ints = t.column->int_data();
  t.doubles = t.column->double_data();
  const bool dbl = t.column->type() == ValueType::kDouble;
  switch (p.op()) {
    case Predicate::Op::kRange:
      t.kernel = dbl ? Kernel::kDoubleRange : Kernel::kIntRange;
      t.lo = p.lo();
      t.hi = p.hi();
      break;
    case Predicate::Op::kEq: {
      const Key& k = p.keys()[0];
      if (k.is_double() != dbl) {
        t.kernel = Kernel::kNever;
      } else if (dbl) {
        t.kernel = Kernel::kDoubleEq;
        t.double_key = k.AsDouble();
      } else {
        t.kernel = Kernel::kIntEq;
        t.int_key = k.AsInt64();
      }
      break;
    }
    case Predicate::Op::kIn:
      if (dbl) break;  // kGeneric
      t.kernel = Kernel::kIntIn;
      // The keys are sorted as Keys, which order int64 before double:
      // the int64 ones form an ascending prefix, and a double key never
      // equals an int64 slot.
      for (const Key& k : p.keys()) {
        if (!k.is_double()) t.int_keys.push_back(k.AsInt64());
      }
      break;
  }
  return t;
}

/// Bit i set iff test(v[i]), for i in [first, last) of one 64-row block;
/// only slots inside [first, last) are read. A full block tests into a
/// byte array first (a constant-trip loop with no loop-carried state),
/// then packs each 8 bytes of 0/1 with one multiply: 0x0102040810204080
/// moves byte b's bit to bit 56 + b with no carries between terms.
template <typename T, typename Test>
uint64_t MaskOf(const T* v, unsigned first, unsigned last, Test test) {
  uint64_t m = 0;
  if (first == 0 && last == 64) {
    uint8_t hit[64];
    for (unsigned i = 0; i < 64; ++i) hit[i] = uint8_t(test(v[i]));
    for (unsigned j = 0; j < 8; ++j) {
      uint64_t x = 0;
      for (unsigned b = 0; b < 8; ++b) x |= uint64_t(hit[8 * j + b]) << (8 * b);
      m |= ((x * 0x0102040810204080ULL) >> 56) << (8 * j);
    }
    return m;
  }
  for (unsigned i = first; i < last; ++i) m |= uint64_t(test(v[i])) << i;
  return m;
}

/// Bits [first, last) of the block starting at row `base`: which of its
/// rows satisfy `t`.
uint64_t BlockMask(const TypedPredicate& t, RowId base, unsigned first,
                   unsigned last) {
  using Kernel = TypedPredicate::Kernel;
  switch (t.kernel) {
    case Kernel::kIntRange: {
      const double lo = t.lo, hi = t.hi;
      return MaskOf(t.ints + base, first, last, [lo, hi](int64_t x) {
        const double v = double(x);
        return (v >= lo) & (v <= hi);
      });
    }
    case Kernel::kDoubleRange: {
      const double lo = t.lo, hi = t.hi;
      return MaskOf(t.doubles + base, first, last,
                    [lo, hi](double v) { return (v >= lo) & (v <= hi); });
    }
    case Kernel::kIntEq: {
      const int64_t k = t.int_key;
      return MaskOf(t.ints + base, first, last,
                    [k](int64_t x) { return x == k; });
    }
    case Kernel::kDoubleEq: {
      const double k = t.double_key;
      return MaskOf(t.doubles + base, first, last,
                    [k](double v) { return v == k; });
    }
    case Kernel::kIntIn:
      return MaskOf(t.ints + base, first, last, [&t](int64_t x) {
        return std::binary_search(t.int_keys.begin(), t.int_keys.end(), x);
      });
    case Kernel::kNever:
      return 0;
    case Kernel::kGeneric:
      break;
  }
  uint64_t m = 0;
  for (unsigned i = first; i < last; ++i) {
    m |= uint64_t(t.pred->MatchesKey(t.column->GetKey(base + i))) << i;
  }
  return m;
}

/// One row against `t` (the rid-list filter's test): BlockMask's kernels
/// for a single slot. Routing rids through a one-lane BlockMask instead
/// cost the range filter its inlining of BlockMask (about 1.9 -> 2.3
/// ns/row in bench_micro_structures).
bool RowMatches(const TypedPredicate& t, RowId r) {
  using Kernel = TypedPredicate::Kernel;
  switch (t.kernel) {
    case Kernel::kIntRange: {
      const double v = double(t.ints[r]);
      return v >= t.lo && v <= t.hi;
    }
    case Kernel::kDoubleRange:
      return t.doubles[r] >= t.lo && t.doubles[r] <= t.hi;
    case Kernel::kIntEq:
      return t.ints[r] == t.int_key;
    case Kernel::kDoubleEq:
      return t.doubles[r] == t.double_key;
    case Kernel::kIntIn:
      return std::binary_search(t.int_keys.begin(), t.int_keys.end(),
                                t.ints[r]);
    case Kernel::kNever:
      return false;
    case Kernel::kGeneric:
      break;
  }
  return t.pred->MatchesKey(t.column->GetKey(r));
}

std::vector<TypedPredicate> CompileQuery(const Table& table,
                                         const Query& query) {
  std::vector<TypedPredicate> out;
  out.reserve(query.predicates().size());
  for (const Predicate& p : query.predicates()) {
    out.push_back(CompilePredicate(table, p));
  }
  return out;
}

}  // namespace

void FilterRowRange(const Table& table, const Query& query, RowRange range,
                    RowFilterCounts* counts, std::vector<RowId>* matches,
                    std::vector<PageNo>* pages) {
  if (range.empty()) return;
  if (pages != nullptr) {
    const PageNo first = table.layout().PageOfRow(range.begin);
    const PageNo last = table.layout().PageOfRow(range.end - 1);
    for (PageNo p = first; p <= last; ++p) pages->push_back(p);
  }
  counts->examined += uint64_t(range.end - range.begin);
  const std::vector<TypedPredicate> preds = CompileQuery(table, query);
  // Blocks align with tombstone words; only the first and last can be
  // partial, and `lane` keeps every row outside the range out of the
  // counts and off the column arrays.
  for (RowId base = range.begin & ~RowId{63}; base < range.end; base += 64) {
    const unsigned first =
        range.begin > base ? unsigned(range.begin - base) : 0u;
    const unsigned last = unsigned(std::min<RowId>(range.end - base, 64));
    const uint64_t lane = (last == 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << last) - 1) &
                          (~uint64_t{0} << first);
    const uint64_t dead = table.TombstoneWord(size_t(base >> 6)) & lane;
    uint64_t live = lane & ~dead;
    for (const TypedPredicate& p : preds) {
      if (live == 0) break;
      live &= BlockMask(p, base, first, last);
    }
    counts->dead += uint64_t(std::popcount(dead));
    counts->matches += uint64_t(std::popcount(live));
    if (matches != nullptr) {
      for (; live != 0; live &= live - 1) {
        matches->push_back(base + RowId(std::countr_zero(live)));
      }
    }
  }
}

void FilterRidList(const Table& table, const Query& query,
                   std::span<const RowId> rids, RowFilterCounts* counts,
                   std::vector<RowId>* matches, std::vector<PageNo>* pages) {
  counts->examined += rids.size();
  const std::vector<TypedPredicate> preds = CompileQuery(table, query);
  for (const RowId r : rids) {
    if (pages != nullptr) pages->push_back(table.layout().PageOfRow(r));
    if (table.IsDeleted(r)) {
      ++counts->dead;
      continue;
    }
    const bool match =
        std::all_of(preds.begin(), preds.end(),
                    [r](const TypedPredicate& p) { return RowMatches(p, r); });
    if (!match) continue;
    ++counts->matches;
    if (matches != nullptr) matches->push_back(r);
  }
}

ExecResult CmScan(const Table& table, const CorrelationMap& cm,
                  const ClusteredIndex& cidx, const Query& query,
                  const ExecOptions& opts, CmLookupCache* cache) {
  ExecResult out;
  out.path = "cm_scan";
  CmLookupResult local;
  const CmLookupResult* res = nullptr;
  if (cache != nullptr) {
    res = cache->GetOrCompute(cm, query);
    assert(res != nullptr && "query must predicate every CM attribute");
  } else {
    auto preds = CmPredicatesFor(cm, query);
    assert(preds.ok() && "query must predicate every CM attribute");
    local = cm.Lookup(*preds);
    res = &local;
  }

  // CM lookup I/O: free when cached (the normal case -- CMs are tiny);
  // otherwise one seek plus the pages the lookup actually read (a
  // directory probe touches only its run, not the whole map).
  if (!opts.cm_cached) {
    ++out.io.seeks;
    out.io.seq_pages +=
        std::min<uint64_t>(cm.NumPages(), cm.PagesForEntries(res->entries_probed));
  }

  const CmRowRanges rr = TranslateCmRuns(table, cidx, cm.options(), *res);
  out.io.seeks += uint64_t(rr.leaves.size()) * cidx.BTreeHeight();
  SweepRanges(table, query, rr.ranges, opts, &out);
  out.ms = opts.disk.CostMs(out.io);
  MaybeDegradeToScan(table, opts, &out);
  return out;
}

}  // namespace corrmap
