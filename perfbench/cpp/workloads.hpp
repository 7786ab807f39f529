// The three perfbench workloads. Each builds its inputs from the seed,
// runs single-threaded in its own process, checks its outputs, and fills
// a Report with the end-to-end and per-layer metric sets.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  /// Sizes the measured work: each workload runs a fixed amount of work
  /// per second given (so simulated-time results depend only on the seed
  /// and this value, never on host speed).
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event file for the traced run
};

Report run_burst(const Options& options);
Report run_tpcc(const Options& options);
Report run_crash_cycle(const Options& options);

/// Shared tail of every workload: window-halves agreement check. `name`
/// values for the two halves must agree within `tolerance` (relative).
void check_halves(Report& report, const char* name, double first, double second,
                  double tolerance);

/// Note every chunk's ops-per-CPU-second rate.
void note_rates(Report& report, const ChunkRates& rates);

/// Export the traced run's spans (when tracing) and note the file.
void export_trace(Report& report, const SpanTracer& tracer, const Options& options);

}  // namespace perfbench
