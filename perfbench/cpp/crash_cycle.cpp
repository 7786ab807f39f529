// crash_cycle: a 2-shard ShardedDriver (defaults: recovery pipeline depth
// 8, overlapped mount, recovery write-back on) over 3 data disks.
//
// Setup prefills the log rings. Each cycle runs a closed-loop write burst,
// cuts power at a seeded instant (crash(), then restart() every disk),
// builds a new driver on the same disks, mount()s it, and checks every
// write acknowledged in the cycle against a shadow model. It is the only
// workload that runs core/recovery and the sharded mount, watermark and
// consistency cut. One op is one cycle.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = trail::sim;
namespace io = trail::io;
namespace core = trail::core;

namespace {

// ---- stated sizes (README.md lists them) ----
constexpr std::size_t kShards = 2;
constexpr std::uint32_t kClients = 8;                           // closed-loop writers
constexpr std::uint64_t kSpanSectors = std::uint64_t{1} << 17;  // 64 MiB per data disk
constexpr std::uint32_t kPrefillWrites = 6000;
constexpr std::int64_t kCrashMinUs = 20'000;  // crash instant after the burst starts
constexpr std::int64_t kCrashMaxUs = 300'000;
constexpr double kCyclesPerSecond = 30;
constexpr int kMinCycles = 100;  // mount_p90 needs >= 10 samples beyond it
constexpr std::array<std::uint32_t, 5> kSizes = {1, 2, 4, 8, 16};  // sectors
const std::vector<double> kSizeWeights = {0.25, 0.30, 0.20, 0.15, 0.10};
constexpr int kSetups = 5;

/// Seeded write generator plus the shadow model. Write ids increase in
/// submission order; a sector's floor is the newest id that must survive
/// there (the newest acknowledged write, or a newer one a mount already
/// showed to be durable).
class Writes {
 public:
  explicit Writes(std::uint64_t seed)
      : rng_(seed),
        floor_(Stack::kDataDisks * kSpanSectors, 0),
        ever_(floor_.size(), false),
        stamp_(floor_.size(), 0) {}

  struct Write {
    std::uint64_t id;
    std::uint8_t device;
    std::uint64_t lba;
    std::uint32_t sectors;
  };

  Write next(SpanTracer& tracer, std::vector<std::byte>& payload) {
    Write w{};
    w.id = ++last_id_;
    w.sectors = kSizes[rng_.weighted(kSizeWeights)];
    w.device = static_cast<std::uint8_t>(rng_.uniform(0, Stack::kDataDisks - 1));
    w.lba = static_cast<std::uint64_t>(
        rng_.uniform(0, static_cast<std::int64_t>(kSpanSectors - w.sectors)));
    SpanTracer::Scope gen(tracer, SpanKind::kGen, w.id);
    payload.resize(w.sectors * kSector);
    for (std::uint32_t k = 0; k < w.sectors; ++k) {
      fill_sector(w.id, sector_key(w.device, w.lba + k),
                  std::span(payload).subspan(k * kSector, kSector));
      touch(index(w.device, w.lba + k));
    }
    return w;
  }

  void acked(const Write& w) {
    for (std::uint32_t k = 0; k < w.sectors; ++k) {
      std::uint64_t& f = floor_[index(w.device, w.lba + k)];
      f = std::max(f, w.id);
    }
  }

  /// Check `sectors` (indexes) on the data platters. Returns the ids of
  /// writes found lost or corrupt; raises each floor to what survived.
  std::set<std::uint64_t> verify(const Stack& s, const std::vector<std::size_t>& sectors) {
    std::set<std::uint64_t> bad;
    std::byte buf[kSector];
    for (const std::size_t i : sectors) {
      const auto dev = static_cast<std::uint16_t>(i / kSpanSectors);
      const std::uint64_t lba = i % kSpanSectors;
      s.data_disks[dev]->store().read(lba, 1, std::span(buf));
      const std::uint64_t got = sector_write_id(sector_key(dev, lba), std::span(buf));
      if (got == kCorruptSector || got < floor_[i]) {
        bad.insert(floor_[i]);
        continue;
      }
      floor_[i] = got;
    }
    return bad;
  }

  /// Start a cycle: take_touched() lists only sectors written after this.
  void new_cycle() { ++epoch_; }
  /// Sectors written since the last new_cycle().
  std::vector<std::size_t> take_touched() { return std::exchange(touched_, {}); }
  /// Every sector ever written.
  [[nodiscard]] std::vector<std::size_t> all_touched() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < ever_.size(); ++i)
      if (ever_[i]) out.push_back(i);
    return out;
  }
  sim::Rng& rng() { return rng_; }

 private:
  static std::size_t index(std::uint8_t dev, std::uint64_t lba) {
    return static_cast<std::size_t>(dev) * kSpanSectors + lba;
  }
  void touch(std::size_t i) {
    ever_[i] = true;
    if (stamp_[i] != epoch_) {
      stamp_[i] = epoch_;
      touched_.push_back(i);
    }
  }

  sim::Rng rng_;
  std::uint64_t last_id_ = 0;
  std::vector<std::uint64_t> floor_;
  std::vector<bool> ever_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
  std::vector<std::size_t> touched_;
};

/// Closed-loop writers for one burst. Each writer submits its next write
/// when the previous one is acknowledged, until `live` is cleared.
struct Burst {
  bool live = true;
  std::uint64_t acked = 0;
  std::vector<std::vector<std::byte>> payloads{kClients};
  std::function<void(std::uint32_t)> go;
};

void start_burst(Burst& b, Stack& s, Writes& writes, SpanTracer& tracer) {
  b.go = [&b, &s, &writes, &tracer](std::uint32_t c) {
    if (!b.live) return;
    const Writes::Write w = writes.next(tracer, b.payloads[c]);
    s.io->submit_write(io::BlockAddr{s.devices[w.device], w.lba}, w.sectors, b.payloads[c],
                       [&b, &writes, w, c] {
                         writes.acked(w);
                         ++b.acked;
                         b.go(c);
                       });
  };
  for (std::uint32_t c = 0; c < kClients; ++c) b.go(c);
}

/// Setup: the stack plus a prefill that stamps the log rings and drains.
std::unique_ptr<Stack> build(Writes& writes, SpanTracer& tracer, SetupTimes& times) {
  HostTimer total;
  auto s = build_sharded_stack(kShards, core::ShardedConfig{}, tracer, times);
  SpanTracer::Scope span(tracer, SpanKind::kSetup, 1);
  HostTimer t;
  Burst b;
  start_burst(b, *s, writes, tracer);
  s->step_until(tracer, [&b] { return b.acked >= kPrefillWrites; }, "prefill");
  b.live = false;
  bool drained = false;
  s->io->drain([&drained] { drained = true; });
  s->step_until(tracer, [&drained] { return drained; }, "prefill drain");
  times.prefill_s = t.wall_s();
  times.total_s = total.wall_s();
  return s;
}

}  // namespace

Report run_crash_cycle(const Options& opt) {
  Report r;
  r.workload = "crash_cycle";
  r.seed = opt.seed;
  r.traced = opt.trace;
  SpanTracer tracer(opt.trace);

  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> s;
  std::unique_ptr<Writes> writes;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    writes = std::make_unique<Writes>(opt.seed);
    SetupTimes t;
    s = build(*writes, tracer, t);
    setups.push_back(t);
  }
  (void)writes->take_touched();  // prefill content is checked at the end

  const int cycles = std::max(kMinCycles, static_cast<int>(opt.seconds * kCyclesPerSecond));
  sim::Rng crash_rng = writes->rng().split();

  const std::uint64_t mismatch_setup = req_mismatch(*s);
  s->obs.metrics.reset();
  tracer.reset_totals();
  HostTimer timer, verify_timer;
  double verify_cpu = 0, verify_wall = 0;
  ChunkRates rates;  // one chunk per tenth of the cycles
  rates.start(0);
  const int chunk = std::max(1, cycles / 10);
  Delta delta;
  std::vector<double> sync, sync1, sync2, mount_ms;
  std::vector<core::ShardedRecoveryStats> mounts;
  double imbalance = 0, pinned_max = 0;
  std::uint64_t writes_acked = 0, censored = 0;
  std::set<std::uint64_t> lost;
  const sim::TimePoint start = s->sim.now();

  for (int c = 0; c < cycles; ++c) {
    if (c > 0 && c % chunk == 0) rates.mark(chunk, timer.cpu_s() - verify_cpu);
    writes->new_cycle();
    const Snapshot before = take_snapshot(*s, nullptr, nullptr);
    const sim::TimePoint crash_at =
        s->sim.now() + sim::micros(crash_rng.uniform(kCrashMinUs, kCrashMaxUs));
    Burst b;
    start_burst(b, *s, *writes, tracer);
    s->step_until(tracer, [&] { return s->sim.now() >= crash_at; }, "crash_cycle burst");
    b.live = false;
    pinned_max = std::max(pinned_max, static_cast<double>(s->pinned_bytes()) / 1048576.0);
    delta.add(before, take_snapshot(*s, nullptr, nullptr));
    writes_acked += b.acked;
    // Writes still unacknowledged at the cut enter the latency sample
    // censored at the cut: they waited at least that long.
    const sim::TimePoint cut = s->sim.now();
    std::vector<double> cycle_sync = s->io->latencies_ms(before.now, cut);
    for (const double ms : s->io->unacked_waits_ms(cut)) {
      cycle_sync.push_back(ms);
      ++censored;
    }
    for (const double ms : cycle_sync) {
      sync.push_back(ms);
      (c < cycles / 2 ? sync1 : sync2).push_back(ms);
    }
    imbalance += s->sharded->routing_imbalance() * 100.0;

    // The remount's host cost covers the power cut and the new driver too.
    const sim::TimePoint t0 = s->sim.now();
    try {
      SpanTracer::Scope span(tracer, SpanKind::kMount, static_cast<std::uint64_t>(c) + 1);
      crash_and_rebuild(*s, tracer);
      s->sharded->mount();
    } catch (const std::exception& e) {
      r.fail(std::string("mount failed: ") + e.what());
      break;
    }
    mount_ms.push_back((s->sim.now() - t0).ms());
    mounts.push_back(s->sharded->last_recovery());

    verify_timer.restart();
    {
      SpanTracer::Scope span(tracer, SpanKind::kVerify, static_cast<std::uint64_t>(c) + 1);
      const auto bad = writes->verify(*s, writes->take_touched());
      lost.insert(bad.begin(), bad.end());
    }
    verify_cpu += verify_timer.cpu_s();
    verify_wall += verify_timer.wall_s();
  }
  const double cpu = timer.cpu_s() - verify_cpu;
  const double wall = timer.wall_s() - verify_wall;
  const int last = static_cast<int>(mount_ms.size());
  rates.mark(static_cast<std::uint64_t>(last - (last - 1) / chunk * chunk), cpu);
  const SpanTracer::AllTotals spans = tracer.totals();
  const sim::TimePoint end = s->sim.now();
  r.measured_cpu_s = cpu;
  r.attempted = static_cast<std::uint64_t>(cycles);

  // Final checks: every sector ever written, a clean unmount, fsck of
  // each shard's log disk, and the attribution partition.
  verify_timer.restart();
  std::uint64_t sheared = 0;
  {
    SpanTracer::Scope span(tracer, SpanKind::kVerify, 0);
    const auto bad = writes->verify(*s, writes->all_touched());
    lost.insert(bad.begin(), bad.end());
    if (s->sharded->mounted()) {
      s->sharded->unmount();
      sheared = fsck_logs(*s, r, true);
    }
  }
  verify_cpu += verify_timer.cpu_s();
  if (!lost.empty())
    r.fail(std::to_string(lost.size()) + " acknowledged writes lost or corrupt after remount",
           lost.size());
  const std::uint64_t mismatch = mismatch_setup + req_mismatch(*s);
  if (mismatch != 0) r.fail("req.mismatch = " + std::to_string(mismatch), 0);

  const double done = static_cast<double>(mount_ms.size());
  check_halves(r, "sync_p99_ms", percentile(sync1, 99), percentile(sync2, 99), 0.30);
  check_halves(r, "ops_per_cpu_s", rates.first_half(), rates.second_half(), 0.50);
  note_rates(r, rates);

  const SetupTimes setup = median_setup(setups);
  r.add_e2e("setup_s", setup.total_s, "s", Clock::kHost);
  r.add_e2e("ops_per_cpu_s", rates.median_rate(), "1/s", Clock::kHost);
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB", Clock::kHost);
  r.add_e2e("failed_frac", ratio(static_cast<double>(r.failed), done), "frac", Clock::kCount);
  r.add_e2e("sync_p50_ms", percentile(sync, 50), "ms", Clock::kSim);
  r.add_e2e("sync_p99_ms", percentile(sync, 99), "ms", Clock::kSim);
  r.add_e2e("mount_p50_ms", percentile(mount_ms, 50), "ms", Clock::kSim);
  r.add_e2e("mount_p90_ms", percentile(mount_ms, 90), "ms", Clock::kSim);
  r.add_e2e("cycles_per_min", ratio(done, (end - start).sec() / 60.0), "1/min", Clock::kSim);

  LayerInputs in;
  in.stack = s.get();
  in.delta = delta;
  in.ops = mount_ms.size();
  in.measured_cpu_s = cpu;
  in.measured_wall_s = wall;
  in.traced = opt.trace;
  in.spans = spans;
  in.pinned_mb_max = pinned_max;
  in.mounts = mounts;
  in.imbalance_pct = ratio(imbalance, done);
  in.setup = setup;
  in.verify_cpu_s = verify_cpu;
  in.req_mismatch = mismatch;
  in.fsck_shear_sectors = sheared;
  add_layer_metrics(r, in);

  char line[240];
  std::snprintf(line, sizeof line,
                "inputs: %d cycles, %zu shards, %u closed-loop writers, crash %lld..%lld ms into "
                "each burst, %llu acked writes, %llu unacked at the cut (censored in sync_*)",
                cycles, kShards, kClients, static_cast<long long>(kCrashMinUs / 1000),
                static_cast<long long>(kCrashMaxUs / 1000),
                static_cast<unsigned long long>(writes_acked),
                static_cast<unsigned long long>(censored));
  r.notes.push_back(line);
  export_trace(r, tracer, opt);
  return r;
}

}  // namespace perfbench
