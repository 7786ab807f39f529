// burst: open-loop synchronous writes on a TrailDriver (1 ST41601N log
// disk, 3 WD Caviar data disks).
//
// Arrivals are seeded Poisson with ON/OFF phases: ON offers more than the
// data disks can write back, so the write-back queue grows thousands of
// ranges deep, and OFF lets it drain, so the run is stationary over whole
// cycles. After each measured ON phase the benchmark times how long the
// backlog it left takes to reach the data disks, which is what a drain()
// issued at the burst's last acknowledgement would wait for. Sizes mix
// 512 B..8 KB. A hot set takes a stated share of the targets (superseded
// write-backs get skipped); the rest fall uniformly over a stated span of
// each data disk (CSCAN coalescing). The workload runs all of the io
// write-back path and none of db, fs, tpcc or recovery. One op is one
// acknowledged write.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/random.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = trail::sim;
namespace io = trail::io;

namespace {

// ---- stated sizes (README.md lists them) ----
constexpr double kOnRatePerS = 800;   // Poisson arrival rate while ON
constexpr double kOffRatePerS = 40;   // ... while OFF
constexpr std::int64_t kOnMs = 8000;  // phase lengths (simulated)
constexpr std::int64_t kOffMs = 16000;
constexpr double kCyclesPerSecond = 1.6;  // measured ON/OFF cycles per --seconds
constexpr std::uint64_t kSpanSectors = std::uint64_t{1} << 16;  // 32 MiB per data disk
constexpr std::uint32_t kHotTargets = 512;  // 8 KB-aligned hot blocks
constexpr double kHotShare = 0.30;
constexpr std::array<std::uint32_t, 5> kSizes = {1, 2, 4, 8, 16};  // sectors
const std::vector<double> kSizeWeights = {0.25, 0.30, 0.20, 0.15, 0.10};
constexpr int kSetups = 5;
constexpr std::size_t kVerifyChunk = 128;  // sectors per read-back command
constexpr std::size_t kVerifyWindow = 16;  // read-backs in flight

struct Arrival {
  std::int64_t at_ns;
  std::uint64_t lba;
  std::uint32_t sectors;
  std::uint8_t device;
  std::int32_t on_cycle;  // the cycle whose ON phase it arrives in, or -1 (OFF)
};

/// The seeded generator: every input of the run, built before the stack
/// sees any of it. Cycle 0 is warm-up; cycles 1..cycles are measured.
std::vector<Arrival> generate(std::uint64_t seed, int cycles) {
  sim::Rng rng(seed);
  sim::Rng hot_rng = rng.split();
  std::vector<std::pair<std::uint8_t, std::uint64_t>> hot(kHotTargets);
  for (auto& [dev, lba] : hot) {
    dev = static_cast<std::uint8_t>(hot_rng.uniform(0, Stack::kDataDisks - 1));
    lba = static_cast<std::uint64_t>(hot_rng.uniform(0, kSpanSectors / 16 - 1)) * 16;
  }
  std::vector<Arrival> out;
  const std::int64_t cycle_ns = (kOnMs + kOffMs) * 1'000'000;
  for (int c = 0; c <= cycles; ++c) {
    const std::int64_t base = c * cycle_ns;
    for (const bool on : {true, false}) {
      const std::int64_t begin = on ? base : base + kOnMs * 1'000'000;
      const std::int64_t end = on ? begin + kOnMs * 1'000'000 : base + cycle_ns;
      const double mean_gap_ns = 1e9 / (on ? kOnRatePerS : kOffRatePerS);
      double t = static_cast<double>(begin) + rng.exponential(mean_gap_ns);
      while (t < static_cast<double>(end)) {
        Arrival a{};
        a.at_ns = static_cast<std::int64_t>(t);
        a.sectors = kSizes[rng.weighted(kSizeWeights)];
        a.on_cycle = on ? c : -1;
        if (rng.chance(kHotShare)) {
          const auto& [dev, lba] = hot[static_cast<std::size_t>(rng.uniform(0, kHotTargets - 1))];
          a.device = dev;
          a.lba = lba;
        } else {
          a.device = static_cast<std::uint8_t>(rng.uniform(0, Stack::kDataDisks - 1));
          a.lba = static_cast<std::uint64_t>(
              rng.uniform(0, static_cast<std::int64_t>(kSpanSectors - a.sectors)));
        }
        out.push_back(a);
        t += rng.exponential(mean_gap_ns);
      }
    }
  }
  return out;
}

/// The open-loop client of one stack: submits every arrival at its time,
/// keeps the shadow of the newest write per sector, and counts the
/// acknowledgements of each ON phase.
class Load {
 public:
  Load(Stack& s, const std::vector<Arrival>& arrivals, SpanTracer& tracer,
       sim::TimePoint window_start, std::size_t cycles)
      : newest(Stack::kDataDisks * kSpanSectors, 0),
        on_acked(cycles + 1, 0),
        on_last_ack(cycles + 1),
        s_(s),
        arrivals_(arrivals),
        tracer_(tracer),
        window_start_(window_start),
        payload_(16 * kSector) {
    s_.sim.schedule_at(sim::TimePoint{arrivals_[0].at_ns}, [this] { arrive(); });
  }
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  std::vector<std::uint32_t> newest;  // newest write id (index + 1) per sector of the spans
  std::uint64_t window_writes = 0;    // arrivals since the window started
  std::size_t acked = 0;
  std::vector<std::size_t> on_acked;  // per cycle, acknowledged writes of its ON phase
  std::vector<sim::TimePoint> on_last_ack;
  double pinned_max = 0;  // MB, sampled at every acknowledgement

 private:
  void arrive() {
    const std::size_t i = next_++;
    const Arrival& a = arrivals_[i];
    if (s_.sim.now() >= window_start_) ++window_writes;
    {
      SpanTracer::Scope gen(tracer_, SpanKind::kGen, i + 1);
      for (std::uint32_t k = 0; k < a.sectors; ++k) {
        fill_sector(i + 1, sector_key(a.device, a.lba + k),
                    std::span(payload_).subspan(k * kSector, kSector));
        newest[a.device * kSpanSectors + a.lba + k] = static_cast<std::uint32_t>(i + 1);
      }
    }
    s_.io->submit_write(io::BlockAddr{s_.devices[a.device], a.lba}, a.sectors,
                        std::span(payload_).first(a.sectors * kSector), [this, c = a.on_cycle] {
                          ++acked;
                          if (c >= 0) {
                            ++on_acked[static_cast<std::size_t>(c)];
                            on_last_ack[static_cast<std::size_t>(c)] = s_.sim.now();
                          }
                          pinned_max = std::max(
                              pinned_max, static_cast<double>(s_.pinned_bytes()) / 1048576.0);
                        });
    if (next_ < arrivals_.size())
      s_.sim.schedule_at(sim::TimePoint{arrivals_[next_].at_ns}, [this] { arrive(); });
  }

  Stack& s_;
  const std::vector<Arrival>& arrivals_;
  SpanTracer& tracer_;
  sim::TimePoint window_start_;
  std::size_t next_ = 0;
  std::vector<std::byte> payload_;
};

}  // namespace

Report run_burst(const Options& opt) {
  Report r;
  r.workload = "burst";
  r.seed = opt.seed;
  r.traced = opt.trace;
  SpanTracer tracer(opt.trace);

  const int cycles = std::max(4, 2 * static_cast<int>(opt.seconds * kCyclesPerSecond / 2 + 0.5));
  const std::vector<Arrival> arrivals = generate(opt.seed, cycles);
  const std::int64_t cycle_ns = (kOnMs + kOffMs) * 1'000'000;
  const sim::TimePoint window_start{cycle_ns};
  const sim::TimePoint half_at{cycle_ns * (1 + cycles / 2)};
  const sim::TimePoint window_end{cycle_ns * (1 + cycles)};
  std::vector<std::size_t> on_writes(static_cast<std::size_t>(cycles) + 1, 0);
  for (const Arrival& a : arrivals)
    if (a.on_cycle >= 0) ++on_writes[static_cast<std::size_t>(a.on_cycle)];

  // Set up several times; the last stack is the one measured. Set-up is
  // the stack plus the warm-up cycle, which brings the log ring and the
  // write-back queues to their steady state (burst's prefill).
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> s;
  std::unique_ptr<Load> load;
  for (int i = 0; i < kSetups; ++i) {
    load.reset();
    s.reset();
    HostTimer total;
    SetupTimes t;
    s = build_trail_stack(tracer, t);
    load = std::make_unique<Load>(*s, arrivals, tracer, window_start,
                                  static_cast<std::size_t>(cycles));
    HostTimer warm;
    s->sim.run_until(window_start);
    t.prefill_s = warm.wall_s();
    t.total_s = total.wall_s();
    setups.push_back(t);
  }
  const std::vector<std::uint32_t>& newest = load->newest;
  const std::vector<std::size_t>& on_acked = load->on_acked;
  const std::vector<sim::TimePoint>& on_last_ack = load->on_last_ack;

  // Measured phase: cycles 1..N, then drain. For each measured ON phase,
  // time from its last acknowledgement to the first instant nothing is
  // left pinned for write-back (what drain() waits for, read without its
  // 0.5 ms polling, which would add events to the run).
  const std::uint64_t mismatch_setup = req_mismatch(*s);
  s->obs.metrics.reset();
  tracer.reset_totals();
  const Snapshot before = take_snapshot(*s, nullptr, nullptr);
  HostTimer timer;
  ChunkRates rates;  // one chunk per ON/OFF cycle; the last one holds the drain
  rates.start(timer.cpu_s());
  sim::TimePoint next_cycle{window_start.ns() + cycle_ns};
  std::size_t draining = 1;   // the measured cycle whose backlog is being timed
  std::vector<double> drains;  // ms, one per measured cycle
  std::uint64_t chunk_base = 0;
  load->pinned_max = 0;
  s->step_until(
      tracer,
      [&] {
        const sim::TimePoint now = s->sim.now();
        if (draining < on_writes.size() && on_acked[draining] == on_writes[draining] &&
            s->pinned_bytes() == 0) {
          if (now.ns() >= (static_cast<std::int64_t>(draining) + 1) * cycle_ns)
            r.fail("cycle " + std::to_string(draining) + ": backlog outlived its OFF phase", 0);
          drains.push_back((now - on_last_ack[draining]).ms());
          ++draining;
        }
        if (now >= next_cycle && next_cycle < window_end) {
          rates.mark(load->window_writes - chunk_base, timer.cpu_s());
          chunk_base = load->window_writes;
          next_cycle = sim::TimePoint{next_cycle.ns() + cycle_ns};
        }
        return load->acked == arrivals.size();
      },
      "burst");
  bool drained = false;
  s->io->drain([&drained] { drained = true; });
  s->step_until(tracer, [&drained] { return drained; }, "burst drain");
  const double cpu = timer.cpu_s();
  const double wall = timer.wall_s();
  rates.mark(load->window_writes - chunk_base, cpu);
  const SpanTracer::AllTotals spans = tracer.totals();
  const Snapshot after = take_snapshot(*s, nullptr, nullptr);
  if (drains.size() != static_cast<std::size_t>(cycles))
    r.fail("only " + std::to_string(drains.size()) + " of " + std::to_string(cycles) +
               " backlogs drained",
           0);
  r.measured_cpu_s = cpu;
  r.attempted = load->window_writes;

  // Checks: read every written block back through the driver against the
  // shadow, fsck the log disk, and require the attribution partition.
  HostTimer verify_timer;
  std::set<std::uint32_t> lost;
  {
    SpanTracer::Scope span(tracer, SpanKind::kVerify, 1);
    std::vector<std::pair<std::uint8_t, std::uint64_t>> chunks;
    for (std::uint8_t dev = 0; dev < Stack::kDataDisks; ++dev)
      for (std::uint64_t base = 0; base < kSpanSectors; base += kVerifyChunk)
        for (std::uint64_t k = 0; k < kVerifyChunk; ++k)
          if (newest[dev * kSpanSectors + base + k] != 0) {
            chunks.emplace_back(dev, base);
            break;
          }
    std::vector<std::vector<std::byte>> bufs(kVerifyWindow,
                                             std::vector<std::byte>(kVerifyChunk * kSector));
    std::vector<std::size_t> free_slots;
    for (std::size_t i = 0; i < kVerifyWindow; ++i) free_slots.push_back(i);
    std::size_t issued = 0, checked = 0;
    std::function<void()> pump = [&] {
      while (!free_slots.empty() && issued < chunks.size()) {
        const std::size_t slot = free_slots.back();
        free_slots.pop_back();
        const auto [dev, base] = chunks[issued++];
        s->io->submit_read(io::BlockAddr{s->devices[dev], base}, kVerifyChunk, bufs[slot],
                           [&, slot, dev = dev, base = base] {
                             for (std::uint64_t k = 0; k < kVerifyChunk; ++k) {
                               const std::uint32_t want = newest[dev * kSpanSectors + base + k];
                               const std::uint64_t got = sector_write_id(
                                   sector_key(dev, base + k),
                                   std::span(bufs[slot]).subspan(k * kSector, kSector));
                               if (got != want) lost.insert(want);
                             }
                             ++checked;
                             free_slots.push_back(slot);
                             pump();
                           });
      }
    };
    pump();
    s->step_until(tracer, [&] { return checked == chunks.size(); }, "burst verify");
  }
  if (!lost.empty())
    r.fail("read-back: " + std::to_string(lost.size()) + " acknowledged writes lost or corrupt",
           lost.size());
  s->trail->unmount();
  (void)fsck_logs(*s, r, false);
  const double verify_cpu = verify_timer.cpu_s();
  const std::uint64_t mismatch = mismatch_setup + req_mismatch(*s);
  if (mismatch != 0) r.fail("req.mismatch = " + std::to_string(mismatch), 0);

  // Window halves must agree (stationary run).
  const std::vector<double> lat = s->io->latencies_ms(window_start, window_end);
  const std::vector<double> lat1 = s->io->latencies_ms(window_start, half_at);
  const std::vector<double> lat2 = s->io->latencies_ms(half_at, window_end);
  check_halves(r, "sync_p99_ms", percentile(lat1, 99), percentile(lat2, 99), 0.30);
  const auto split = drains.begin() + std::min<std::ptrdiff_t>(cycles / 2, std::ssize(drains));
  check_halves(r, "drain_ms", median({drains.begin(), split}), median({split, drains.end()}), 0.30);
  check_halves(r, "ops_per_cpu_s", rates.first_half(), rates.second_half(), 0.50);
  note_rates(r, rates);

  const SetupTimes setup = median_setup(setups);
  const double ops = static_cast<double>(load->window_writes);
  const double window_min = (window_end - window_start).sec() / 60.0;
  r.add_e2e("setup_s", setup.total_s, "s", Clock::kHost);
  r.add_e2e("ops_per_cpu_s", rates.median_rate(), "1/s", Clock::kHost);
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB", Clock::kHost);
  r.add_e2e("failed_frac", ratio(static_cast<double>(r.failed), ops), "frac", Clock::kCount);
  r.add_e2e("sync_p50_ms", percentile(lat, 50), "ms", Clock::kSim);
  r.add_e2e("sync_p99_ms", percentile(lat, 99), "ms", Clock::kSim);
  r.add_e2e("drain_ms", median(drains), "ms", Clock::kSim);
  r.add_e2e("drain_p90_ms", percentile(drains, 90), "ms", Clock::kSim);
  r.add_e2e("writes_per_min", ratio(ops, window_min), "1/min", Clock::kSim);

  LayerInputs in;
  in.stack = s.get();
  in.delta.add(before, after);
  in.ops = load->window_writes;
  in.measured_cpu_s = cpu;
  in.measured_wall_s = wall;
  in.traced = opt.trace;
  in.spans = spans;
  in.pinned_mb_max = load->pinned_max;
  in.setup = setup;
  in.verify_cpu_s = verify_cpu;
  in.req_mismatch = mismatch;
  add_layer_metrics(r, in);

  char line[200];
  std::snprintf(line, sizeof line,
                "inputs: %zu writes (%llu measured) over 1+%d ON/OFF cycles; ON %.0f/s for %lld "
                "ms, OFF %.0f/s for %lld ms",
                arrivals.size(), static_cast<unsigned long long>(load->window_writes), cycles,
                kOnRatePerS, static_cast<long long>(kOnMs), kOffRatePerS,
                static_cast<long long>(kOffMs));
  r.notes.push_back(line);
  export_trace(r, tracer, opt);
  return r;
}

}  // namespace perfbench
