// The stacks the workloads run on, the counters the benchmark reads from
// them, and the per-layer metric set every workload reports.
//
// A Stack is the paper's hardware (ST41601N log disks, WD Caviar data
// disks) behind a TrailDriver or a ShardedDriver, fronted by the
// benchmark's Interposer. Layers are read from outside only: the public
// stats structs (TrailStats, DiskStats, RecoveryStats, WalStats,
// BufferPoolStats) as deltas, and obs::MetricsRegistry, reset at the
// start of the measured phase.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/sharded_driver.hpp"
#include "core/trail_driver.hpp"
#include "db/buffer_pool.hpp"
#include "db/wal.hpp"
#include "disk/disk_device.hpp"
#include "interposer.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// Host seconds spent in each setup step (one setup).
struct SetupTimes {
  double format_s = 0;
  double calibrate_s = 0;
  double populate_s = 0;  // tpcc
  double prefill_s = 0;   // crash_cycle
  double total_s = 0;     // wall time of the whole setup
};

struct Stack {
  static constexpr int kDataDisks = 3;

  trail::sim::Simulator sim;
  trail::obs::Obs obs{sim};
  std::vector<std::unique_ptr<trail::disk::DiskDevice>> log_disks;
  std::vector<std::unique_ptr<trail::disk::DiskDevice>> data_disks;
  std::unique_ptr<trail::core::TrailDriver> trail;      // single-driver stacks
  std::unique_ptr<trail::core::ShardedDriver> sharded;  // sharded stacks
  std::unique_ptr<Interposer> io;                       // what clients talk to
  std::vector<trail::io::DeviceId> devices;             // the data disks
  trail::core::ShardedConfig sharded_config;

  /// Every TrailDriver in the stack (one per shard).
  [[nodiscard]] std::vector<const trail::core::TrailDriver*> drivers() const;
  /// Metric-name prefixes of those drivers ("" or "shard.<k>.").
  [[nodiscard]] std::vector<std::string> prefixes() const;
  /// Payload bytes pinned in host memory across every driver.
  [[nodiscard]] std::size_t pinned_bytes() const;
  /// Run the simulator until `done` holds, one traced `step` per event.
  void step_until(SpanTracer& tracer, const std::function<bool()>& done, const char* what);
};

/// One ST41601N log disk + 3 data disks behind a TrailDriver (δ
/// calibrated as in §3.1), mounted, fronted by an Interposer.
[[nodiscard]] std::unique_ptr<Stack> build_trail_stack(SpanTracer& tracer, SetupTimes& times);

/// `shards` log disks + 3 data disks behind a ShardedDriver, mounted.
[[nodiscard]] std::unique_ptr<Stack> build_sharded_stack(std::size_t shards,
                                                         trail::core::ShardedConfig config,
                                                         SpanTracer& tracer, SetupTimes& times);

/// Power-cycle a sharded stack: crash every device, build a new driver
/// on the same disks and return it unmounted (the caller times mount()).
void crash_and_rebuild(Stack& stack, SpanTracer& tracer);

/// Cumulative public counters of a stack at one instant; the measured
/// phase reports differences of two of these.
struct Snapshot {
  trail::core::TrailStats trail;  // summed over drivers
  trail::disk::DiskStats log;     // summed over log disks
  trail::disk::DiskStats data;    // summed over data disks
  trail::db::BufferPoolStats pool;
  trail::db::WalStats wal;
  std::uint64_t events = 0;
  std::uint64_t io_reads = 0;
  std::uint64_t io_writes = 0;
  std::uint64_t io_write_sectors = 0;
  trail::sim::TimePoint now{};
};

/// Accumulates Snapshot differences (crash_cycle sums one per cycle,
/// since every remount starts a driver with fresh stats).
struct Delta {
  Snapshot sum;
  void add(const Snapshot& from, const Snapshot& to);
  double sim_s = 0;  // simulated seconds covered
};

[[nodiscard]] Snapshot take_snapshot(const Stack& stack, const trail::db::BufferPool* pool,
                                     const trail::db::LogManager* wal);

/// Everything the per-layer metric set is computed from. Fields a
/// workload does not exercise stay zero, and so do their metrics.
struct LayerInputs {
  Stack* stack = nullptr;
  Delta delta;
  std::uint64_t ops = 0;  // the workload's ops
  double measured_cpu_s = 0;
  double measured_wall_s = 0;
  bool traced = false;
  SpanTracer::AllTotals spans{};  // at the end of the measured phase
  double pinned_mb_max = 0;
  // crash_cycle
  std::vector<trail::core::ShardedRecoveryStats> mounts;
  double imbalance_pct = 0;
  // tpcc
  std::uint64_t txns = 0;
  std::uint64_t lock_timeouts = 0;  // transactions rolled back by a lock timeout
  // setup (medians over the repeated setups)
  SetupTimes setup;
  double verify_cpu_s = 0;
  std::uint64_t req_mismatch = 0;
  std::uint64_t fsck_shear_sectors = 0;
};

/// Append the full per-layer metric set (the same names on every
/// workload) to `report`.
void add_layer_metrics(Report& report, const LayerInputs& in);

/// Sum of every driver's `req.mismatch` counter since the last registry
/// reset (the request-attribution partition check; must stay 0).
[[nodiscard]] std::uint64_t req_mismatch(Stack& stack);

/// Run trail::audit's offline log verifier (fsck.trail) on every log disk
/// of the (unmounted) stack; failures land in `report`. On a log that
/// went through power cuts (`crashed`), first-byte-discipline errors that
/// are all power-cut shears (the disk model's torn sector) are a known
/// verifier defect: they are returned as a count and noted, not failed.
std::uint64_t fsck_logs(const Stack& stack, Report& report, bool crashed);

/// Median of each field over repeated setups.
[[nodiscard]] SetupTimes median_setup(const std::vector<SetupTimes>& runs);

}  // namespace perfbench
