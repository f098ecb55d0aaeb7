// servebench: wall-clock benchmark of the corrmap serving layer.
//
//   servebench --workload read_hot|crud_churn|routed_durable --seed N
//              --seconds S --trace 0|1 [--spans-dir DIR]
//
// Prints the workload's stated sizes, every metric with its unit and
// sample count, the determinism counts and the correctness gate, then one
// JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 the per-layer metrics, with
// spans written to DIR. Exits 1 when a correctness gate fails.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload read_hot|crud_churn|routed_durable"
               " --seed N --seconds S --trace 0|1 [--spans-dir DIR]\n");
  std::exit(2);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap and trim thresholds, which are otherwise dynamic and
  // move with the order of frees, and so with thread timing. On a 4-vCPU
  // shared VM, over 5 seeds of read_hot run alternately with and without
  // these two calls, the spread (IQR / median) of peak_rss_mb was 0.03
  // pinned and 0.09 dynamic; the other spreads went both ways. Every
  // figure assumes these pins.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 512 << 20);
  servebench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      cfg.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      cfg.seconds = std::atoi(v);
    } else if (std::strcmp(k, "--trace") == 0) {
      cfg.trace = std::atoi(v) != 0;
    } else if (std::strcmp(k, "--spans-dir") == 0) {
      cfg.spans_dir = v;
    } else {
      Usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds < 1) Usage();

  servebench::Report r;
  if (cfg.workload == "read_hot") {
    r = servebench::RunReadHot(cfg);
  } else if (cfg.workload == "crud_churn") {
    r = servebench::RunCrudChurn(cfg);
  } else if (cfg.workload == "routed_durable") {
    r = servebench::RunRoutedDurable(cfg);
  } else {
    Usage();
  }

  std::printf("workload %s seed %llu seconds %d trace %d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              int(cfg.trace));
  for (const auto& [k, v] : r.sizes) std::printf("size %s = %s\n", k.c_str(), v.c_str());
  for (const servebench::Metric& m : r.metrics) {
    std::printf("metric %s = %s %s (n=%llu)%s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples),
                m.modeled ? " modeled" : "");
  }
  for (const servebench::Metric& m : r.info) {
    std::printf("info %s = %s %s (n=%llu)\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("determinism op_sequence_hash = %016llx\n",
              static_cast<unsigned long long>(r.op_sequence_hash));
  for (const auto& [k, v] : r.determinism) {
    std::printf("determinism %s = %s\n", k.c_str(), JsonNumber(v).c_str());
  }
  std::printf("ops attempted = %llu failed = %llu failed_ops_frac = %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              JsonNumber(r.attempted ? double(r.failed) / double(r.attempted) : 0)
                  .c_str());
  for (const std::string& e : r.errors) std::printf("gate FAILED: %s\n", e.c_str());
  std::printf("gate %s\n", r.correct() ? "passed" : "FAILED");

  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const servebench::Metric& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct() ? 0 : 1;
}
