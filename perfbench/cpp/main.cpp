// perfbench: the repository's benchmark driver binary.
//
//   perfbench --workload burst|tpcc|crash_cycle --seed N --seconds S
//             [--trace 0|1] [--trace-out FILE]
//
// Prints a human-readable report and, as its last line, one JSON object
// with every metric (name, value, unit, clock), the correctness verdict
// and the measured CPU. Exits 0 when every check passed, 1 when one
// failed, 2 on a usage or runtime error. run.py wraps it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void check_halves(Report& report, const char* name, double first, double second,
                  double tolerance) {
  const double base = std::max(std::abs(first), std::abs(second));
  const double delta = base > 0 ? std::abs(first - second) / base : 0.0;
  char line[160];
  std::snprintf(line, sizeof line, "window halves %s: %.4f vs %.4f (%.1f%%, limit %.0f%%)", name,
                first, second, delta * 100, tolerance * 100);
  report.notes.push_back(line);
  if (delta > tolerance) report.fail(std::string("unsteady window: ") + line, 0);
}

void note_rates(Report& report, const ChunkRates& rates) {
  std::string line = "ops per CPU second by chunk:";
  char buf[32];
  for (const double r : rates.rates()) {
    std::snprintf(buf, sizeof buf, " %.6g", r);
    line += buf;
  }
  report.notes.push_back(line);
}

void export_trace(Report& report, const SpanTracer& tracer, const Options& options) {
  if (!tracer.enabled() || options.trace_out.empty()) return;
  if (!tracer.write_chrome_trace(options.trace_out, "perfbench " + report.workload)) {
    report.fail("cannot write trace file " + options.trace_out, 0);
    return;
  }
  report.notes.push_back("spans: " + options.trace_out + " (Chrome trace events, " +
                         std::to_string(tracer.dropped()) + " spans past the buffer dropped)");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--trace") {
      opt.trace = std::string(value) == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0 || !std::isfinite(opt.seconds)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  try {
    Report report;
    if (workload == "burst") {
      report = run_burst(opt);
    } else if (workload == "tpcc") {
      report = run_tpcc(opt);
    } else if (workload == "crash_cycle") {
      report = run_crash_cycle(opt);
    } else {
      std::fprintf(stderr, "perfbench: --workload must be burst, tpcc or crash_cycle\n");
      return 2;
    }
    report.print();
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
