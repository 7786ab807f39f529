#include "stack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "audit/log_verifier.hpp"
#include "core/delta_calibrator.hpp"
#include "core/format_tool.hpp"
#include "disk/profile.hpp"

namespace perfbench {

namespace core = trail::core;
namespace disk = trail::disk;
namespace obs = trail::obs;

/// How far the traced span sum may stray from the measured process CPU
/// before the ledger fails to reconcile.
constexpr double kLedgerTolerance = 0.10;

std::vector<const core::TrailDriver*> Stack::drivers() const {
  std::vector<const core::TrailDriver*> out;
  if (trail) out.push_back(trail.get());
  if (sharded)
    for (std::size_t k = 0; k < sharded->shard_count(); ++k) out.push_back(&sharded->shard(k));
  return out;
}

std::vector<std::string> Stack::prefixes() const {
  if (!sharded) return {""};
  std::vector<std::string> out;
  for (std::size_t k = 0; k < sharded->shard_count(); ++k)
    out.push_back("shard." + std::to_string(k) + ".");
  return out;
}

std::size_t Stack::pinned_bytes() const {
  if (trail) return trail->buffers().pinned_bytes();
  std::size_t bytes = 0;
  for (std::size_t k = 0; k < sharded->shard_count(); ++k)
    bytes += sharded->shard(k).buffers().pinned_bytes();
  return bytes;
}

void Stack::step_until(SpanTracer& tracer, const std::function<bool()>& done, const char* what) {
  while (!done()) {
    SpanTracer::Scope span(tracer, SpanKind::kStep, sim.events_dispatched());
    if (!sim.step()) throw std::runtime_error(std::string(what) + ": simulation stalled");
  }
}

namespace {

void make_disks(Stack& s, std::size_t log_disks) {
  for (std::size_t k = 0; k < log_disks; ++k)
    s.log_disks.push_back(std::make_unique<disk::DiskDevice>(s.sim, disk::st41601n()));
  for (int i = 0; i < Stack::kDataDisks; ++i)
    s.data_disks.push_back(std::make_unique<disk::DiskDevice>(s.sim, disk::wd_caviar_10g()));
}

/// Format every log disk and calibrate δ on the first (§3.1).
trail::sim::Duration format_and_calibrate(Stack& s, SetupTimes& times) {
  HostTimer t;
  for (auto& d : s.log_disks) core::format_log_disk(*d);
  times.format_s = t.wall_s();
  t.restart();
  const auto calib = core::DeltaCalibrator::run(s.sim, *s.log_disks[0], /*probe_track=*/1);
  times.calibrate_s = t.wall_s();
  return calib.delta_time;
}

void attach_sharded(Stack& s, SpanTracer& tracer) {
  std::vector<disk::DiskDevice*> raw;
  for (auto& d : s.log_disks) raw.push_back(d.get());
  s.sharded = std::make_unique<core::ShardedDriver>(s.sim, raw, s.sharded_config);
  s.sharded->attach_obs(&s.obs);
  s.devices.clear();
  for (auto& d : s.data_disks) s.devices.push_back(s.sharded->add_data_disk(*d));
  s.io = std::make_unique<Interposer>(s.sim, *s.sharded, tracer);
}

}  // namespace

std::unique_ptr<Stack> build_trail_stack(SpanTracer& tracer, SetupTimes& times) {
  HostTimer total;
  auto s = std::make_unique<Stack>();
  make_disks(*s, 1);
  core::TrailConfig config;
  config.delta = format_and_calibrate(*s, times);
  s->trail = std::make_unique<core::TrailDriver>(s->sim, *s->log_disks[0], config);
  s->trail->attach_obs(&s->obs);
  for (auto& d : s->data_disks) s->devices.push_back(s->trail->add_data_disk(*d));
  s->trail->mount();
  s->io = std::make_unique<Interposer>(s->sim, *s->trail, tracer);
  times.total_s = total.wall_s();
  return s;
}

std::unique_ptr<Stack> build_sharded_stack(std::size_t shards, core::ShardedConfig config,
                                           SpanTracer& tracer, SetupTimes& times) {
  HostTimer total;
  auto s = std::make_unique<Stack>();
  make_disks(*s, shards);
  config.shard.delta = format_and_calibrate(*s, times);
  s->sharded_config = config;
  attach_sharded(*s, tracer);
  s->sharded->mount();
  times.total_s = total.wall_s();
  return s;
}

void crash_and_rebuild(Stack& s, SpanTracer& tracer) {
  s.sharded->crash();
  for (auto& d : s.log_disks) d->restart();
  for (auto& d : s.data_disks) d->restart();
  // The old driver never completes anything after crash(); dropping it
  // also drops every client completion it still held.
  s.sharded.reset();
  s.io.reset();
  attach_sharded(s, tracer);
}

// ---- counters --------------------------------------------------------------

namespace {

/// x += sign * y on an unsigned counter (sign is +1 or -1).
void acc(std::uint64_t& x, std::uint64_t y, std::int64_t sign) {
  x = static_cast<std::uint64_t>(static_cast<std::int64_t>(x) +
                                 sign * static_cast<std::int64_t>(y));
}

void add_trail(core::TrailStats& a, const core::TrailStats& b, std::int64_t sign) {
  acc(a.requests_logged, b.requests_logged, sign);
  acc(a.sectors_logged, b.sectors_logged, sign);
  acc(a.physical_log_writes, b.physical_log_writes, sign);
  acc(a.records_written, b.records_written, sign);
  acc(a.track_switches, b.track_switches, sign);
  acc(a.idle_repositions, b.idle_repositions, sign);
  acc(a.log_full_stalls, b.log_full_stalls, sign);
  acc(a.reads, b.reads, sign);
  acc(a.read_buffer_hits, b.read_buffer_hits, sign);
  acc(a.writebacks, b.writebacks, sign);
  acc(a.writeback_sectors, b.writeback_sectors, sign);
  acc(a.writebacks_skipped, b.writebacks_skipped, sign);
  acc(a.writebacks_dispatched, b.writebacks_dispatched, sign);
  acc(a.writeback_commands, b.writeback_commands, sign);
}

void add_disk(disk::DiskStats& a, const disk::DiskStats& b, std::int64_t sign) {
  acc(a.reads, b.reads, sign);
  acc(a.writes, b.writes, sign);
  acc(a.sectors_read, b.sectors_read, sign);
  acc(a.sectors_written, b.sectors_written, sign);
  a.busy += b.busy * sign;
  a.overhead += b.overhead * sign;
  a.seek += b.seek * sign;
  a.rotation += b.rotation * sign;
  a.transfer += b.transfer * sign;
}

void add_snapshot(Snapshot& a, const Snapshot& b, std::int64_t sign) {
  add_trail(a.trail, b.trail, sign);
  add_disk(a.log, b.log, sign);
  add_disk(a.data, b.data, sign);
  acc(a.pool.hits, b.pool.hits, sign);
  acc(a.pool.misses, b.pool.misses, sign);
  acc(a.pool.evictions, b.pool.evictions, sign);
  acc(a.pool.dirty_writebacks, b.pool.dirty_writebacks, sign);
  acc(a.pool.checkpoint_writes, b.pool.checkpoint_writes, sign);
  acc(a.wal.flushes, b.wal.flushes, sign);
  acc(a.events, b.events, sign);
  acc(a.io_reads, b.io_reads, sign);
  acc(a.io_writes, b.io_writes, sign);
  acc(a.io_write_sectors, b.io_write_sectors, sign);
}

}  // namespace

void Delta::add(const Snapshot& from, const Snapshot& to) {
  add_snapshot(sum, to, +1);
  add_snapshot(sum, from, -1);
  sim_s += (to.now - from.now).sec();
}

Snapshot take_snapshot(const Stack& stack, const trail::db::BufferPool* pool,
                       const trail::db::LogManager* wal) {
  Snapshot s;
  for (const core::TrailDriver* d : stack.drivers()) add_trail(s.trail, d->stats(), +1);
  for (const auto& d : stack.log_disks) add_disk(s.log, d->stats(), +1);
  for (const auto& d : stack.data_disks) add_disk(s.data, d->stats(), +1);
  if (pool != nullptr) s.pool = pool->stats();
  if (wal != nullptr) s.wal = wal->stats();
  s.events = stack.sim.events_dispatched();
  s.io_reads = stack.io->reads();
  s.io_writes = stack.io->writes();
  s.io_write_sectors = stack.io->write_sectors();
  s.now = stack.sim.now();
  return s;
}

std::uint64_t req_mismatch(Stack& stack) {
  std::uint64_t n = 0;
  for (const std::string& p : stack.prefixes())
    n += stack.obs.metrics.counter(p + "req.mismatch").value();
  return n;
}

namespace {

/// The bytes disk::DiskDevice leaves in the sector under the head when
/// power is cut mid-transfer (disk_device.cpp: "shear the in-flight
/// sector with pseudo-garbage derived from its address").
bool is_power_cut_shear(trail::disk::Lba lba, std::span<const std::byte> sector) {
  std::uint64_t x = lba * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  for (const std::byte b : sector) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (b != std::byte(static_cast<std::uint8_t>(x))) return false;
  }
  return true;
}

/// LBAs of the sectors of a log disk that hold a power-cut shear and
/// break the first-byte discipline (a shear that happens to start with
/// 0x00 reads as escaped payload and passes).
std::set<trail::disk::Lba> shears(const disk::DiskDevice& log_disk) {
  std::set<trail::disk::Lba> out;
  const disk::SectorStore& store = log_disk.store();
  disk::SectorBuf sector{};
  for (disk::Lba lba = 0; lba < log_disk.geometry().total_sectors(); ++lba) {
    if (!store.is_written(lba)) continue;
    store.read(lba, 1, sector);
    if (sector[0] != std::byte{0} && is_power_cut_shear(lba, sector)) out.insert(lba);
  }
  return out;
}

}  // namespace

std::uint64_t fsck_logs(const Stack& stack, Report& report, bool crashed) {
  std::uint64_t sheared = 0;
  for (std::size_t k = 0; k < stack.log_disks.size(); ++k) {
    const trail::audit::Report fsck = trail::audit::verify_log(*stack.log_disks[k]);
    for (const auto& [name, check] : fsck.checks()) {
      if (check.ok()) continue;
      std::string first;
      for (const auto& f : check.findings())
        if (f.severity == trail::audit::Severity::kError) {
          first = f.message + " at LBA " + std::to_string(f.lba);
          break;
        }
      const std::string what = "fsck.trail log disk " + std::to_string(k) + " " + name + ": " +
                               std::to_string(check.errors()) + " errors, first: " + first;
      if (crashed && name == "log.sector_classes") {
        // Known verifier defect: a power cut leaves the sector under the
        // head sheared (the disk model's documented torn write, which the
        // log format's checksums are there to reject), recovery leaves it
        // on the ring, and the verifier counts it against the first-byte
        // discipline. Pass only when every error is such a shear.
        const std::set<disk::Lba> cut = shears(*stack.log_disks[k]);
        bool all_shears = check.errors() == cut.size();
        for (const auto& f : check.findings())
          if (f.severity == trail::audit::Severity::kError && !cut.contains(f.lba))
            all_shears = false;
        if (all_shears) {
          sheared += cut.size();
          report.notes.push_back("power-cut shears, not failed: " + what);
          continue;
        }
      }
      report.fail(what);
    }
  }
  return sheared;
}

SetupTimes median_setup(const std::vector<SetupTimes>& runs) {
  const auto med = [&runs](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& r : runs) v.push_back(r.*field);
    return median(std::move(v));
  };
  SetupTimes m;
  m.format_s = med(&SetupTimes::format_s);
  m.calibrate_s = med(&SetupTimes::calibrate_s);
  m.populate_s = med(&SetupTimes::populate_s);
  m.prefill_s = med(&SetupTimes::prefill_s);
  m.total_s = med(&SetupTimes::total_s);
  return m;
}

// ---- the per-layer metric set ----------------------------------------------

void add_layer_metrics(Report& r, const LayerInputs& in) {
  const Snapshot& d = in.delta.sum;
  obs::MetricsRegistry& metrics = in.stack->obs.metrics;
  const std::vector<std::string> prefixes = in.stack->prefixes();
  const double sim_ns = in.delta.sim_s * 1e9;

  // Largest percentile of one histogram family across drivers.
  const auto max_pct = [&](const std::string& name, double p) {
    double v = 0;
    for (const std::string& px : prefixes)
      v = std::max(v, metrics.histogram(px + name).percentile_ms(p));
    return v;
  };

  // Host ledger (traced run only; the untraced run reports zeros).
  const auto spans = [&in](SpanKind kind) { return in.spans[static_cast<std::size_t>(kind)]; };
  const SpanTracer::Totals submit = spans(SpanKind::kSubmit);
  const SpanTracer::Totals complete = spans(SpanKind::kComplete);
  const SpanTracer::Totals step = spans(SpanKind::kStep);
  const SpanTracer::Totals mount = spans(SpanKind::kMount);
  const SpanTracer::Totals gen = spans(SpanKind::kGen);
  const double cpu_ns = in.measured_cpu_s * 1e9;
  const double engine_ns = static_cast<double>(step.self_ns);
  // Ledger reconciliation: traced self time of every kind inside the
  // measured phase against its measured process CPU.
  const double attributed = engine_ns + static_cast<double>(submit.self_ns + complete.self_ns +
                                                            gen.self_ns + mount.self_ns);

  r.add_layer("sim.events_per_op", frac(d.events, in.ops), "count", Clock::kCount);
  r.add_layer("sim.engine_cpu_ns_per_event", frac(step.self_ns, d.events), "ns", Clock::kHost);
  r.add_layer("sim.engine_cpu_share", ratio(engine_ns, cpu_ns), "frac", Clock::kHost);

  // core (driver)
  r.add_layer("core.submit_cpu_ns", frac(submit.self_ns, submit.count), "ns", Clock::kHost);
  r.add_layer("core.batch_mean", d.trail.mean_batch_size(), "count", Clock::kCount);
  r.add_layer("core.queue_p99_ms", max_pct("req.phase.queue", 99), "ms", Clock::kSim);
  double log_queue_max = 0;
  for (const std::string& px : prefixes)
    log_queue_max = std::max(
        log_queue_max, static_cast<double>(metrics.gauge(px + "trail.log_queue_depth").max()));
  r.add_layer("core.log_queue_max", log_queue_max, "count", Clock::kCount);
  r.add_layer("core.log_full_stalls", static_cast<double>(d.trail.log_full_stalls), "count",
              Clock::kCount);
  r.add_layer("core.track_switches_per_kop", 1000 * frac(d.trail.track_switches, in.ops), "count",
              Clock::kCount);
  r.add_layer("core.position_p50_ms", max_pct("req.phase.position", 50), "ms", Clock::kSim);
  r.add_layer("core.position_p99_ms", max_pct("req.phase.position", 99), "ms", Clock::kSim);
  r.add_layer("core.transfer_p50_ms", max_pct("req.phase.transfer", 50), "ms", Clock::kSim);
  r.add_layer("core.log_amp", frac(d.log.sectors_written, d.io_write_sectors), "ratio",
              Clock::kCount);
  r.add_layer("core.read_hit_ratio", frac(d.trail.read_buffer_hits, d.trail.reads), "frac",
              Clock::kCount);
  r.add_layer("core.pinned_mb_max", in.pinned_mb_max, "MB", Clock::kCount);
  r.add_layer("core.wb_skip_ratio",
              frac(d.trail.writebacks_skipped,
                   d.trail.writebacks_skipped + d.trail.writebacks_dispatched),
              "frac", Clock::kCount);
  r.add_layer("core.wb_ranges_per_cmd",
              frac(d.trail.writebacks_dispatched, d.trail.writeback_commands), "count",
              Clock::kCount);
  double wb_sectors = 0, wb_cmds = 0;
  for (const std::string& px : prefixes) {
    const obs::Histogram& h = metrics.histogram(px + "wb.batch_sectors");
    wb_sectors += static_cast<double>(h.sum());
    wb_cmds += static_cast<double>(h.count());
  }
  r.add_layer("core.wb_sectors_per_cmd", ratio(wb_sectors, wb_cmds), "count", Clock::kCount);

  // io (data-disk queues + write-back scheduler)
  double queue_max = 0, service_p50 = 0, service_n = 0;
  for (const std::string& px : prefixes) {
    for (int i = 0; i < Stack::kDataDisks; ++i) {
      const std::string idx = std::to_string(i);
      queue_max = std::max(
          queue_max, static_cast<double>(metrics.gauge(px + "io.queue_depth.data" + idx).max()));
      const obs::Histogram& h = metrics.histogram(px + "io.service_ns.data" + idx);
      if (h.count() > 0) {
        service_p50 += h.percentile_ms(50);
        service_n += 1;
      }
    }
  }
  r.add_layer("io.queue_depth_max", queue_max, "count", Clock::kCount);
  r.add_layer("io.dispatch_skips_per_kop",
              1000 * frac(metrics.counter("io.dispatch_skips").value(), in.ops),
              "count", Clock::kCount);
  r.add_layer("io.service_p50_ms", ratio(service_p50, service_n), "ms", Clock::kSim);

  // disk
  const double log_disks = static_cast<double>(in.stack->log_disks.size());
  r.add_layer("disk.log_busy_frac", ratio(static_cast<double>(d.log.busy.ns()), sim_ns * log_disks),
              "frac", Clock::kSim);
  r.add_layer("disk.log_rotation_ms_per_write",
              ratio(d.log.rotation.ms(), static_cast<double>(d.log.writes)), "ms", Clock::kSim);
  r.add_layer("disk.data_busy_frac",
              ratio(static_cast<double>(d.data.busy.ns()), sim_ns * Stack::kDataDisks), "frac",
              Clock::kSim);
  r.add_layer("disk.data_seek_frac", frac(d.data.seek.ns(), d.data.busy.ns()), "frac",
              Clock::kSim);
  r.add_layer("disk.data_cmds_per_op", frac(d.data.reads + d.data.writes, in.ops), "count",
              Clock::kCount);

  // core.recovery: per-mount means; phases take the slowest shard (the
  // overlapped mount waits for it), counts sum over shards.
  double locate = 0, rebuild = 0, writeback = 0, tracks = 0, found = 0, torn = 0, cut = 0;
  for (const core::ShardedRecoveryStats& m : in.mounts) {
    double l = 0, rb = 0, wb = 0;
    for (const core::RecoveryStats& s : m.shards) {
      l = std::max(l, s.locate_time.ms());
      rb = std::max(rb, s.rebuild_time.ms());
      wb = std::max(wb, s.writeback_time.ms());
      tracks += s.tracks_scanned;
    }
    locate += l;
    rebuild += rb;
    writeback += wb;
    found += m.records_found;
    torn += m.records_dropped_torn;
    cut += m.records_cut;
  }
  const double mounts = static_cast<double>(in.mounts.size());
  double overshoot = 0, stream_sectors = 0;
  for (const std::string& px : prefixes) {
    overshoot += static_cast<double>(metrics.counter(px + "recovery.probe_overshoot").value());
    stream_sectors += static_cast<double>(metrics.counter(px + "recovery.stream_sectors").value());
  }
  r.add_layer("core.recovery.locate_ms", ratio(locate, mounts), "ms", Clock::kSim);
  r.add_layer("core.recovery.rebuild_ms", ratio(rebuild, mounts), "ms", Clock::kSim);
  r.add_layer("core.recovery.writeback_ms", ratio(writeback, mounts), "ms", Clock::kSim);
  r.add_layer("core.recovery.tracks_scanned", ratio(tracks, mounts), "count", Clock::kCount);
  r.add_layer("core.recovery.records_found", ratio(found, mounts), "count", Clock::kCount);
  r.add_layer("core.recovery.probe_overshoot_ratio", ratio(overshoot, tracks), "frac",
              Clock::kCount);
  r.add_layer("core.recovery.stream_sectors_per_record", ratio(stream_sectors, found), "count",
              Clock::kCount);
  r.add_layer("core.recovery.torn_dropped", torn, "count", Clock::kCount);
  r.add_layer("core.recovery.records_cut", cut, "count", Clock::kCount);
  r.add_layer("core.recovery.mount_cpu_ms",
              ratio(static_cast<double>(mount.total_ns) / 1e6, static_cast<double>(mount.count)),
              "ms", Clock::kHost);

  // core.sharded
  double gate_p99 = 0;
  if (in.stack->sharded) gate_p99 = max_pct("req.phase.watermark_gate", 99);
  r.add_layer("core.sharded.gate_p99_ms", gate_p99, "ms", Clock::kSim);
  r.add_layer("core.sharded.imbalance_pct", in.imbalance_pct, "%", Clock::kCount);

  // db
  const std::uint64_t txns = in.txns;
  r.add_layer("db.complete_cpu_us_per_txn", frac(complete.self_ns, txns) / 1e3, "us",
              Clock::kHost);
  r.add_layer("db.cache_hit_ratio", frac(d.pool.hits, d.pool.hits + d.pool.misses), "frac",
              Clock::kCount);
  r.add_layer("db.evictions_per_txn", frac(d.pool.evictions, txns), "count", Clock::kCount);
  r.add_layer("db.dirty_writebacks_per_txn", frac(d.pool.dirty_writebacks, txns), "count",
              Clock::kCount);
  r.add_layer("db.checkpoint_writes_per_txn", frac(d.pool.checkpoint_writes, txns), "count",
              Clock::kCount);
  r.add_layer("db.block_reads_per_txn", frac(d.io_reads, txns), "count", Clock::kCount);
  r.add_layer("db.block_writes_per_txn", frac(d.io_writes, txns), "count", Clock::kCount);
  r.add_layer("db.lock_timeouts_per_ktxn", 1000 * frac(in.lock_timeouts, txns), "count",
              Clock::kCount);
  r.add_layer("db.wal_flushes_per_txn", frac(d.wal.flushes, txns), "count", Clock::kCount);
  const obs::Histogram& commit_wait = metrics.histogram("wal.commit_wait_ns");
  r.add_layer("db.commit_wait_p50_ms", commit_wait.percentile_ms(50), "ms", Clock::kSim);
  r.add_layer("db.commit_wait_p99_ms", commit_wait.percentile_ms(99), "ms", Clock::kSim);
  r.add_layer("db.wal_flush_p99_ms", metrics.histogram("wal.flush_ns").percentile_ms(99), "ms",
              Clock::kSim);

  // setup (host seconds, medians over the repeated setups)
  r.add_layer("core.format_s", in.setup.format_s, "s", Clock::kHost);
  r.add_layer("core.calibrate_s", in.setup.calibrate_s, "s", Clock::kHost);
  r.add_layer("tpcc.populate_s", in.setup.populate_s, "s", Clock::kHost);
  r.add_layer("bench.prefill_s", in.setup.prefill_s, "s", Clock::kHost);

  r.add_layer("obs.req_mismatch", static_cast<double>(in.req_mismatch), "count", Clock::kCount);

  // bench (self)
  r.add_layer("bench.gen_cpu_share", ratio(static_cast<double>(gen.self_ns), cpu_ns), "frac",
              Clock::kHost);
  r.add_layer("bench.verify_cpu_s", in.verify_cpu_s, "s", Clock::kHost);
  r.add_layer("audit.fsck_shear_sectors", static_cast<double>(in.fsck_shear_sectors), "count",
              Clock::kCount);
  // Spans are read on the wall clock; a single-threaded process that is
  // not descheduled has wall time == CPU time, so the span sum must match
  // the measured process CPU. When the host took more than the tolerance
  // of wall time away from the process, wall-clock spans cannot match its
  // CPU, and the ledger is held to the measured wall time instead.
  const double wall_ns = in.measured_wall_s * 1e9;
  if (in.traced) {
    r.ledger_s = attributed / 1e9;
    const auto row = [&r, cpu_ns](const char* name, double ns) {
      char line[120];
      std::snprintf(line, sizeof line, "ledger %-8s %10.3f ms  %5.1f%% of measured CPU", name,
                    ns / 1e6, 100.0 * ratio(ns, cpu_ns));
      r.notes.push_back(line);
    };
    row("submit", static_cast<double>(submit.self_ns));
    row("complete", static_cast<double>(complete.self_ns));
    row("engine", engine_ns);
    row("mount", static_cast<double>(mount.self_ns));
    row("gen", static_cast<double>(gen.self_ns));
    row("sum", attributed);
    row("wall", wall_ns);
    row("cpu", cpu_ns);
    const bool descheduled = wall_ns - cpu_ns > kLedgerTolerance * cpu_ns;
    const double reference = descheduled ? wall_ns : cpu_ns;
    const bool reconciles = std::abs(attributed - reference) <= kLedgerTolerance * reference;
    char line[200];
    std::snprintf(line, sizeof line,
                  "ledger reconciles: %s (span sum vs measured CPU %+.1f%%, vs wall %+.1f%%; "
                  "held to %s within %.0f%%)",
                  reconciles ? "yes" : "NO", 100.0 * ratio(attributed - cpu_ns, cpu_ns),
                  100.0 * ratio(attributed - wall_ns, wall_ns), descheduled ? "wall" : "CPU",
                  100.0 * kLedgerTolerance);
    r.notes.push_back(line);
    if (!reconciles) r.fail(line, 0);
  }
  r.add_layer("bench.ledger_gap_pct",
              in.traced ? 100.0 * ratio(cpu_ns - attributed, cpu_ns) : 0.0, "%",
              Clock::kHost);
}

}  // namespace perfbench
