// Shared pieces of the perfbench harness: host clocks, exact percentiles,
// the metric report, the benchmark's own host-clock span recorder, and
// the self-describing payload used by every correctness check.
//
// Everything here lives on the benchmark's side of the library's public
// API. Nothing is compiled into the library.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// ---- host clocks -----------------------------------------------------------

/// Process CPU time (user + system) in seconds.
[[nodiscard]] double host_cpu_s();
/// Monotonic wall clock in seconds.
[[nodiscard]] double host_wall_s();
/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU and wall time elapsed since construction (or since restart()).
class HostTimer {
 public:
  HostTimer() { restart(); }
  void restart() {
    cpu0_ = host_cpu_s();
    wall0_ = host_wall_s();
  }
  [[nodiscard]] double cpu_s() const { return host_cpu_s() - cpu0_; }
  [[nodiscard]] double wall_s() const { return host_wall_s() - wall0_; }

 private:
  double cpu0_ = 0;
  double wall0_ = 0;
};

// ---- statistics ------------------------------------------------------------

/// Ops per CPU second of a measured phase, taken per chunk of it. The
/// median over chunks resists host interference that hits only a few
/// chunks; the halves compare the first and second half of the chunks.
class ChunkRates {
 public:
  /// Start the first chunk at `cpu_s` (process CPU seconds).
  void start(double cpu_s) { last_cpu_ = cpu_s; }
  /// End a chunk in which `ops` operations completed, at `cpu_s`.
  void mark(std::uint64_t ops, double cpu_s) {
    if (cpu_s > last_cpu_) rates_.push_back(static_cast<double>(ops) / (cpu_s - last_cpu_));
    last_cpu_ = cpu_s;
  }
  [[nodiscard]] const std::vector<double>& rates() const { return rates_; }
  [[nodiscard]] double median_rate() const;
  [[nodiscard]] double first_half() const;
  [[nodiscard]] double second_half() const;

 private:
  double last_cpu_ = 0;
  std::vector<double> rates_;
};

/// Percentile p in [0, 100] by linear interpolation between closest ranks
/// (exact, from every sample). 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] inline double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }
/// ratio() of two counts.
[[nodiscard]] inline double frac(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// ---- metric report ---------------------------------------------------------

/// Which clock a metric is read on. Simulated-time and count metrics are
/// deterministic for a seed; host metrics are not.
enum class Clock { kSim, kHost, kCount };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Clock clock = Clock::kCount;
};

/// Ordered metrics of one run plus its correctness verdict. `e2e` holds
/// the user-facing metrics, `layer` the per-layer ones.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  double measured_cpu_s = 0;          // process CPU of the measured phase
  double ledger_s = 0;                // traced run: span sum of the measured phase
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;     // extra human-readable lines

  void add_e2e(std::string name, double value, std::string unit, Clock clock) {
    e2e.push_back({std::move(name), value, std::move(unit), clock});
  }
  void add_layer(std::string name, double value, std::string unit, Clock clock) {
    layer.push_back({std::move(name), value, std::move(unit), clock});
  }
  /// Record a failed check; `ops` is how many operations it fails.
  void fail(const std::string& what, std::uint64_t ops = 1);
  [[nodiscard]] bool correct() const { return failures.empty(); }

  /// Human-readable block followed by one JSON line (the last line).
  void print() const;
};

// ---- host-clock spans ------------------------------------------------------

/// Layer boundaries the benchmark times from outside the library.
enum class SpanKind : std::uint8_t {
  kSubmit,    // a call into io::BlockDriver::submit_* (the interposer)
  kComplete,  // a client completion callback
  kStep,      // one sim::Simulator::step() driven by the benchmark
  kMount,     // a driver mount (crash_cycle remount)
  kSetup,     // populate / prefill
  kVerify,    // the benchmark's own correctness checks
  kGen,       // the benchmark's input generator (payload bytes)
  kCount,
};
[[nodiscard]] const char* span_name(SpanKind kind);

/// In-memory host-clock span recorder. Disabled, it costs one branch per
/// scope and reads no clock. Enabled, it keeps per-kind totals (count,
/// total and self time, self = total minus the time of child spans) for
/// every span, and the first `keep` spans themselves for export as a
/// Chrome trace-event file (readable by Perfetto and chrome://tracing).
class SpanTracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanTracer(bool enabled, std::size_t keep = std::size_t{1} << 17);

  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(SpanKind kind, std::uint64_t id) {
    open_.push_back({kind, id, host_now_ns(), 0});
  }
  void end();

  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(SpanTracer& tracer, SpanKind kind, std::uint64_t id)
        : tracer_(tracer.enabled() ? &tracer : nullptr) {
      if (tracer_ != nullptr) tracer_->begin(kind, id);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTracer* tracer_;
  };

  using AllTotals = std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)>;
  /// Totals of every kind since the last reset_totals().
  [[nodiscard]] const AllTotals& totals() const { return totals_; }
  /// Start of the measured phase: zero the totals and drop the spans kept
  /// so far, so the export starts with the measured phase.
  void reset_totals();

  /// Write the kept spans as Chrome trace-event JSON. Returns false on an
  /// I/O error.
  bool write_chrome_trace(const std::string& path, const std::string& process_name) const;
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    SpanKind kind;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Span {
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t id;
    SpanKind kind;
  };

  bool enabled_;
  std::size_t keep_;
  std::int64_t origin_ns_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  AllTotals totals_{};
};

// ---- self-describing payload ----------------------------------------------

inline constexpr std::size_t kSector = 512;

/// Fill one sector with the content write `write_id` puts at `sector_key`
/// (a device/LBA pair packed by sector_key()). The first 16 bytes carry
/// the two values, the rest is a pseudo-random stream derived from them,
/// so any sector read back names the write it came from and proves its
/// bytes are intact.
void fill_sector(std::uint64_t write_id, std::uint64_t sector_key, std::span<std::byte> out);
/// Returned by sector_write_id for bytes that are neither all zero nor
/// intact content of some write for the sector (torn or misplaced).
inline constexpr std::uint64_t kCorruptSector = ~std::uint64_t{0};
/// Write id a sector carries: 0 for a never-written (all-zero) sector,
/// kCorruptSector when its bytes are not intact content of a write for
/// `sector_key`.
[[nodiscard]] std::uint64_t sector_write_id(std::uint64_t sector_key,
                                            std::span<const std::byte> sector);
[[nodiscard]] inline std::uint64_t sector_key(std::uint16_t device, std::uint64_t lba) {
  return (static_cast<std::uint64_t>(device) << 48) | lba;
}

}  // namespace perfbench
