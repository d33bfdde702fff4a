#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

/// Command-line options shared by the workloads (see main.cc for flags).
struct Options {
  std::string nt;     // N-Triples input (ingest)
  std::string image;  // frozen image served (serve_*)
  std::string work;   // scratch directory for files a workload writes
  std::string trace_out;
  uint64_t seed = 1;
  uint64_t triples = 1000000;
  double seconds = 10.0;
  /// N-Triples bytes the served image was frozen from (serve_*).
  double input_bytes = 0.0;
  bool trace = false;
  /// Corrupts one expected answer so the self-check can show that the
  /// answer checks catch a wrong result.
  bool inject_wrong_answer = false;
};

/// Cores the workloads size their parallelism by.
uint32_t Nproc();

/// Generates the seeded BSBM dataset and writes it as N-Triples to
/// opt.nt; with opt.image set, also loads that file and freezes it there.
Result Prep(const Options& opt);

/// parse -> dense -> freeze -> open -> to_graph -> summarize W/S/TW/TS,
/// repeated for opt.seconds.
Result RunIngest(const Options& opt);

/// In-process server on opt.image with closed-loop lookup clients
/// (mixed = false) or one scan client plus scheduled lookups (mixed).
Result RunServe(const Options& opt, bool mixed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
