#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace corrmap {

std::string CostInputs::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "tups_per_page=%.0f total_tups=%.0f height=%.0f n_lookups=%.0f "
                "u_tups=%.1f c_tups=%.1f c_per_u=%.2f",
                tups_per_page, total_tups, btree_height, n_lookups, u_tups,
                c_tups, c_per_u);
  return buf;
}

namespace {

double ClampResidency(double r) { return std::clamp(r, 0.0, 1.0); }

}  // namespace

double CostModel::EffectiveSeqPageMs(double residency) const {
  const double r = ClampResidency(residency);
  return disk_.seq_page_ms() * (1.0 - r) + kResidentPageMs * r;
}

double CostModel::EffectiveSeekMs(double residency) const {
  const double r = ClampResidency(residency);
  return disk_.seek_ms() * (1.0 - r) + kResidentSeekMs * r;
}

double CostModel::RunResidency(std::span<const double> extent_hit_rates,
                               uint64_t extent_pages, uint64_t first_page,
                               uint64_t pages, double fallback) {
  if (extent_hit_rates.empty() || extent_pages == 0 || pages == 0) {
    return fallback;
  }
  double sum = 0;
  uint64_t page = first_page;
  uint64_t remaining = pages;
  while (remaining > 0) {
    const uint64_t extent = page / extent_pages;
    const uint64_t extent_end = (extent + 1) * extent_pages;
    const uint64_t span = std::min<uint64_t>(remaining, extent_end - page);
    const double r = extent < extent_hit_rates.size()
                         ? extent_hit_rates[extent]
                         : fallback;
    sum += ClampResidency(r) * double(span);
    page += span;
    remaining -= span;
  }
  return sum / double(pages);
}

double CostModel::ScanCost(const CostInputs& in) const {
  return disk_.seq_page_ms() * in.TotalPages();
}

double CostModel::PipelinedCost(const CostInputs& in) const {
  return in.n_lookups * in.u_tups * disk_.seek_ms() * in.btree_height;
}

double CostModel::SortedCost(const CostInputs& in) const {
  const double per_lookup =
      in.c_per_u * (disk_.seek_ms() * in.btree_height +
                    disk_.seq_page_ms() * in.CPages());
  return std::min(in.n_lookups * per_lookup, ScanCost(in));
}

double CostModel::CmCost(const CostInputs& in, uint64_t cm_pages,
                         bool cm_cached, uint64_t probed_pages) const {
  double cost = SortedCost(in);
  if (!cm_cached) {
    cost += disk_.seek_ms() +
            disk_.seq_page_ms() * double(std::min(probed_pages, cm_pages));
  }
  return cost;
}

double CostModel::CmLookupProbeCost(double num_ukeys,
                                    double entries_probed) const {
  const double search = std::log2(std::max(2.0, num_ukeys));
  return kCmCpuPerEntryMs * (search + entries_probed);
}

double CostModel::CmLookupScanCost(double num_ukeys) const {
  return kCmCpuPerEntryMs * num_ukeys;
}

}  // namespace corrmap
