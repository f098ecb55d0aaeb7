// Estimated-vs-actual cost drift, aggregated per plan kind per serving
// epoch: every cost-based select contributes (chosen plan's estimate,
// actual simulated cost) to its plan kind's accumulators, and the ratio
// actual/estimated says how miscalibrated the cost model currently is --
// a number instead of a vibe. Ratios near 1 mean the paper's model plus
// the live residency calibration is pricing what execution actually pays;
// a kind drifting past ~2x in either direction is the signal the ROADMAP's
// self-driving advisor needs to re-examine its plan choices.
//
// Epochs follow the engine's recluster swaps (AdvanceEpoch is called at
// publish): a recluster resets residency and rebuilds CMs, so per-epoch
// windows separate "calibrated steady state" from "cold successor".
// `lifetime` spans all epochs; `current` is the window since the last
// swap; `previous` is the last completed window (stable for readouts).
//
// Consistency: Record is two relaxed atomic adds per accumulator --
// concurrent with AdvanceEpoch a sample may land in either window (never
// lost from lifetime vs current by more than the in-flight sample), which
// is fine for a drift signal smoothed over hundreds of selects.
#ifndef CORRMAP_OBS_DRIFT_H_
#define CORRMAP_OBS_DRIFT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "exec/plan_choice.h"
#include "obs/metrics.h"

namespace corrmap::obs {

class DriftTracker {
 public:
  /// One slot per PlanKind value.
  static constexpr size_t kNumKinds = 4;

  struct KindDrift {
    uint64_t selects = 0;
    double est_ms = 0;
    double actual_ms = 0;
    /// actual/estimated; 0 when no estimate mass (no cost-based selects
    /// of this kind yet).
    double Ratio() const { return est_ms > 0 ? actual_ms / est_ms : 0; }
  };

  struct Snapshot {
    uint64_t epoch = 0;
    std::array<KindDrift, kNumKinds> current;
    std::array<KindDrift, kNumKinds> previous;
    std::array<KindDrift, kNumKinds> lifetime;
  };

  /// Accumulates one deliberated select. Callers skip selects without a
  /// positive estimate.
  void Record(PlanKind kind, double est_ms, double actual_ms);

  /// Closes the current window into `previous` and starts a fresh one
  /// (called at recluster publish).
  void AdvanceEpoch();

  Snapshot snapshot() const;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> selects{0};
    std::atomic<double> est_ms{0};
    std::atomic<double> actual_ms{0};
  };

  std::array<Cell, kNumKinds> current_;
  std::array<Cell, kNumKinds> lifetime_;
  mutable std::mutex epoch_mu_;  ///< guards previous_ across window rolls
  std::array<KindDrift, kNumKinds> previous_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace corrmap::obs

#endif  // CORRMAP_OBS_DRIFT_H_
