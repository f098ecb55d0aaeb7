// Simulated disk: the experiments' substitute for the paper's 7200rpm SATA
// drive. Every access path reports its page-access pattern here; the model
// converts (seeks, sequential pages, writes) into milliseconds using the
// paper's own measured constants (Table 1: seek 5.5 ms, sequential page
// read 0.078 ms).
#ifndef CORRMAP_STORAGE_DISK_MODEL_H_
#define CORRMAP_STORAGE_DISK_MODEL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/page.h"

namespace corrmap {

/// Raw I/O counters accumulated by an operation.
struct DiskStats {
  uint64_t seeks = 0;          ///< Random repositionings (reads or writes).
  uint64_t seq_pages = 0;      ///< Pages read sequentially after a seek.
  uint64_t pages_written = 0;  ///< Random page write-backs (each seeks).

  DiskStats& operator+=(const DiskStats& o) {
    seeks += o.seeks;
    seq_pages += o.seq_pages;
    pages_written += o.pages_written;
    return *this;
  }
  friend DiskStats operator+(DiskStats a, const DiskStats& b) { return a += b; }
  bool operator==(const DiskStats&) const = default;

  std::string ToString() const;
};

/// Cost constants and the stats -> milliseconds conversion.
class DiskModel {
 public:
  /// Paper Table 1 values.
  static constexpr double kDefaultSeekMs = 5.5;
  static constexpr double kDefaultSeqPageMs = 0.078;

  DiskModel() = default;
  DiskModel(double seek_ms, double seq_page_ms)
      : seek_ms_(seek_ms), seq_page_ms_(seq_page_ms) {}

  double seek_ms() const { return seek_ms_; }
  double seq_page_ms() const { return seq_page_ms_; }

  /// Break-even page gap of run extraction: reading through a hole of up
  /// to seek_ms / seq_page_ms pages is cheaper than seeking over it (~70
  /// pages for the paper's disk).
  uint64_t RunGapPages() const { return uint64_t(seek_ms_ / seq_page_ms_); }

  /// Simulated elapsed milliseconds for the given counters. Writes cost a
  /// seek each (dirty-page write-back to a random location).
  double CostMs(const DiskStats& s) const {
    return double(s.seeks) * seek_ms_ + double(s.seq_pages) * seq_page_ms_ +
           double(s.pages_written) * seek_ms_;
  }

 private:
  double seek_ms_ = kDefaultSeekMs;
  double seq_page_ms_ = kDefaultSeqPageMs;
};

/// A maximal run of contiguous pages accessed in one sequential sweep.
struct PageRun {
  PageNo first = 0;
  uint64_t length = 0;
  bool operator==(const PageRun&) const = default;
};

/// Collapses a set of page numbers into maximal contiguous runs.
/// `pages` may be unsorted and contain duplicates; `gap_tolerance` merges
/// runs separated by at most that many missing pages (the missing pages are
/// read and counted as sequential I/O, which is how bitmap scans behave when
/// skipping a tiny hole is slower than reading through it).
std::vector<PageRun> ExtractRuns(std::vector<PageNo> pages,
                                 uint64_t gap_tolerance = 0);

/// I/O counters for sweeping the given runs: one seek per run plus their
/// total length in sequential pages.
DiskStats CostOfRuns(std::span<const PageRun> runs);

/// Sequence recorder used to visualize access patterns (Fig. 1): remembers
/// every page touched in order and can render an ASCII strip chart.
class AccessTrace {
 public:
  void Touch(PageNo page) { pages_.push_back(page); }
  const std::vector<PageNo>& pages() const { return pages_; }

  /// Number of maximal contiguous runs among the touched pages (sorted,
  /// deduplicated first).
  size_t NumRuns() const;

  /// Distinct pages touched.
  size_t NumDistinctPages() const;

  /// Renders the table as `width` cells ('#' if any page in the cell was
  /// touched, '.' otherwise), the paper's Fig. 1 visualization.
  std::string Render(uint64_t total_pages, size_t width = 100) const;

 private:
  std::vector<PageNo> pages_;
};

}  // namespace corrmap

#endif  // CORRMAP_STORAGE_DISK_MODEL_H_
