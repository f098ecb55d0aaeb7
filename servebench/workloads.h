// The three servebench workloads. Each builds its serving deployment from
// the seed, warms it up untimed, times a closed-loop op sequence generated
// up front, then ends with the durable restart every workload shares: a
// final publish, a fixed write tail, a seeded torn-tail crash and repeated
// recovery from the identical crashed state. See README.md for why each
// workload exists and which layers it loads.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace servebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// false: end-to-end metrics, no probes. true: per-layer metrics from
  /// spans and probes, written to spans_dir.
  bool trace = false;
  std::string spans_dir;
};

Report RunReadHot(const RunConfig& cfg);
Report RunCrudChurn(const RunConfig& cfg);
Report RunRoutedDurable(const RunConfig& cfg);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
