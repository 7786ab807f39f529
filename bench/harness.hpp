// Shared benchmark scaffolding: canonical Trail / standard-driver stacks
// on the paper's drive profiles, plus the synchronous-write workload
// generator used by Fig. 3 / Table 1.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_calibrator.hpp"
#include "core/format_tool.hpp"
#include "core/sharded_driver.hpp"
#include "core/trail_driver.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "io/standard_driver.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/steps.hpp"

namespace trail::bench {

/// The paper's hardware: one ST41601N log disk + N WD data disks. Every
/// stack carries an observability context (metrics always collected,
/// tracing off unless a bench enables it) attached before mount.
struct TrailStack {
  sim::Simulator sim;
  obs::Obs obs{sim};
  std::unique_ptr<disk::DiskDevice> log_disk;
  std::vector<std::unique_ptr<disk::DiskDevice>> data_disks;
  std::unique_ptr<core::TrailDriver> driver;
  std::vector<io::DeviceId> devices;

  explicit TrailStack(int data_disk_count = 3, core::TrailConfig config = {},
                      disk::DiskProfile log_profile = disk::st41601n(),
                      disk::DiskProfile data_profile = disk::wd_caviar_10g()) {
    log_disk = std::make_unique<disk::DiskDevice>(sim, std::move(log_profile));
    for (int i = 0; i < data_disk_count; ++i)
      data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, data_profile));
    core::format_log_disk(*log_disk);
    // Calibrate δ the way §3.1 does, then hand it to the driver.
    if (config.delta == sim::Duration{0}) {
      const auto calib = core::DeltaCalibrator::run(sim, *log_disk, /*probe_track=*/1);
      config.delta = calib.delta_time;
    }
    driver = std::make_unique<core::TrailDriver>(sim, *log_disk, config);
    driver->attach_obs(&obs);
    for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
    driver->mount();
  }
};

/// The scale-out stack: one log disk per shard behind a ShardedDriver.
/// δ is calibrated once on shard 0's disk (all shards share a profile).
struct ShardedStack {
  sim::Simulator sim;
  obs::Obs obs{sim};
  std::vector<std::unique_ptr<disk::DiskDevice>> log_disks;
  std::vector<std::unique_ptr<disk::DiskDevice>> data_disks;
  std::unique_ptr<core::ShardedDriver> driver;
  std::vector<io::DeviceId> devices;

  explicit ShardedStack(std::size_t shards, int data_disk_count = 3,
                        core::ShardedConfig config = {},
                        disk::DiskProfile log_profile = disk::st41601n(),
                        disk::DiskProfile data_profile = disk::wd_caviar_10g()) {
    std::vector<disk::DiskDevice*> raw;
    for (std::size_t k = 0; k < shards; ++k) {
      log_disks.push_back(std::make_unique<disk::DiskDevice>(sim, log_profile));
      core::format_log_disk(*log_disks.back());
      raw.push_back(log_disks.back().get());
    }
    for (int i = 0; i < data_disk_count; ++i)
      data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, data_profile));
    if (config.shard.delta == sim::Duration{0}) {
      const auto calib = core::DeltaCalibrator::run(sim, *log_disks[0], /*probe_track=*/1);
      config.shard.delta = calib.delta_time;
    }
    driver = std::make_unique<core::ShardedDriver>(sim, raw, config);
    driver->attach_obs(&obs);
    for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
    driver->mount();
  }
};

/// The baseline: data disks behind the standard elevator driver.
struct StandardStack {
  sim::Simulator sim;
  std::vector<std::unique_ptr<disk::DiskDevice>> data_disks;
  std::unique_ptr<io::StandardDriver> driver;
  std::vector<io::DeviceId> devices;

  explicit StandardStack(int data_disk_count = 3,
                         io::Order order = io::Order::kClook,
                         disk::DiskProfile data_profile = disk::wd_caviar_10g()) {
    driver = std::make_unique<io::StandardDriver>(order);
    for (int i = 0; i < data_disk_count; ++i) {
      data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, data_profile));
      devices.push_back(driver->add_device(*data_disks.back()));
    }
  }
};

/// §5.1's workload: processes issuing random-target synchronous writes.
/// In clustered mode the next request follows the previous completion
/// immediately; in sparse mode it arrives after `sparse_gap` (> the
/// repositioning overhead, 1.5 ms typical).
struct SyncWriteWorkload {
  struct Params {
    std::uint32_t processes = 1;
    std::uint32_t write_sectors = 2;  // 1 KB
    bool clustered = true;
    sim::Duration sparse_gap = sim::millis(5);
    std::uint32_t writes_per_process = 200;
    std::uint32_t warmup_per_process = 20;
    std::uint64_t seed = 42;
  };

  /// Post-warmup throughput accounting. Only *measured* (post-warmup)
  /// acknowledgements count, over the wall-clock interval from the first
  /// measured submission to the last measured acknowledgement — warmup
  /// writes and the warmup phase's wall time never enter the rate.
  struct Timing {
    sim::TimePoint first_measured_submit{};
    sim::TimePoint last_measured_ack{};
    std::uint64_t measured_acks = 0;
    bool started = false;

    [[nodiscard]] double throughput_wps() const {
      const double sec = (last_measured_ack - first_measured_submit).sec();
      return sec > 0 ? static_cast<double>(measured_acks) / sec : 0.0;
    }
  };

  /// Runs to completion; returns the per-write latency histogram (ns
  /// units — read back through the *_ms accessors). O(1) per sample, so
  /// the bench hot loops never pay sample-vector growth or sorting.
  static obs::Histogram run(sim::Simulator& sim, io::BlockDriver& driver,
                            const std::vector<io::DeviceId>& devices, disk::Lba device_sectors,
                            const Params& p, Timing* timing = nullptr) {
    auto latencies = std::make_shared<obs::Histogram>();
    auto remaining = std::make_shared<std::uint32_t>(p.processes);
    sim::Rng seeder(p.seed);

    for (std::uint32_t proc = 0; proc < p.processes; ++proc) {
      struct Proc {
        sim::Rng rng;
        std::uint32_t issued = 0;
        std::vector<std::byte> data;
      };
      auto st = std::make_shared<Proc>();
      st->rng = seeder.split();
      st->data.assign(static_cast<std::size_t>(p.write_sectors) * disk::kSectorSize,
                      std::byte{0x5A});
      sim::loop_while(
          [st, p] { return st->issued < p.writes_per_process + p.warmup_per_process; },
          [st, &sim, &driver, &devices, device_sectors, p, latencies, timing](sim::Next next) {
            const bool measured = st->issued >= p.warmup_per_process;
            ++st->issued;
            const auto dev = devices[static_cast<std::size_t>(
                st->rng.uniform(0, static_cast<std::int64_t>(devices.size()) - 1))];
            const auto lba = static_cast<disk::Lba>(st->rng.uniform(
                0, static_cast<std::int64_t>(device_sectors - p.write_sectors - 1)));
            const sim::TimePoint t0 = sim.now();
            if (measured && timing != nullptr && !timing->started) {
              timing->started = true;
              timing->first_measured_submit = t0;
            }
            driver.submit_write(
                io::BlockAddr{dev, lba}, p.write_sectors, st->data,
                [&sim, p, latencies, measured, t0, timing, next = std::move(next)] {
                  if (measured) {
                    latencies->record(sim.now() - t0);
                    if (timing != nullptr) {
                      ++timing->measured_acks;
                      timing->last_measured_ack = sim.now();
                    }
                  }
                  if (p.clustered)
                    next();
                  else
                    sim.schedule(p.sparse_gap, [next] { next(); });
                });
          },
          [remaining](bool) { --*remaining; });
    }
    while (*remaining > 0) {
      if (!sim.step()) throw std::runtime_error("SyncWriteWorkload: stalled");
    }
    return std::move(*latencies);
  }
};

inline void print_heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// One-line latency distribution block, ns-recorded histogram shown in ms.
inline void print_latency_block(const char* label, const obs::Histogram& h) {
  std::printf("  [%s] n=%llu p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms\n", label,
              static_cast<unsigned long long>(h.count()), h.percentile_ms(50),
              h.percentile_ms(90), h.percentile_ms(99), h.max_ms());
}

/// Per-phase metrics snapshot (deterministic JSON) from a stack's registry.
inline void print_metrics_block(const char* phase, const obs::MetricsRegistry& metrics) {
  std::printf("--- metrics[%s] %s\n", phase, metrics.to_json().c_str());
}

}  // namespace trail::bench
