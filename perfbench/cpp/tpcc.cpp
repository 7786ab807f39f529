// tpcc: TPC-C at w=1 through "EXT2" + Trail (the Table 2 configuration:
// one data disk for the database log file, two for the tables), closed
// loop with 4 terminals. The buffer pool is smaller than the populated
// dataset, so page reads compete with write-back on the data disks. Host
// CPU goes mostly to db, fs and tpcc; the driver sees small WAL appends,
// inode updates and page I/O, the same driver and io code as burst used
// differently. One op is one completed transaction.
//
// The terminals are the benchmark's own TxnRunner loop: tpcc::Driver keeps
// per-transaction latencies to itself and steps the simulator where the
// benchmark cannot time it. A transaction rolled back by a lock timeout
// is a failed op (the spec's intentional NEW-ORDER rollbacks are not);
// the terminal moves on to its next transaction, as tpcc::Driver does.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fs/filesystem.hpp"
#include "sim/random.hpp"
#include "stack.hpp"
#include "tpcc/transactions.hpp"
#include "tpcc/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = trail::sim;
namespace db = trail::db;
namespace tpcc = trail::tpcc;

namespace {

// ---- stated sizes (README.md lists them) ----
constexpr std::uint32_t kTerminals = 4;
constexpr double kScale = 1.0;                // full w=1 dataset
constexpr std::size_t kPoolPages = 6000;      // 4 KB frames (24 MB)
constexpr std::uint64_t kCheckpointBytes = 8ull << 20;  // WAL bytes between checkpoints
constexpr std::uint64_t kWarmChunk = 500;     // warm-up granularity (txns)
constexpr std::uint64_t kMinWarmTxns = 2000;  // warm-up floor beyond a full pool
constexpr double kTxnsPerSecond = 1200;       // measured txns per --seconds
constexpr std::uint64_t kMinWindowTxns = 8000;  // >= 3 checkpoints, so the halves compare
constexpr std::uint64_t kChunks = 10;        // CPU-rate chunks of the window
constexpr int kSetups = 5;

struct Rig {
  std::unique_ptr<Stack> s;
  std::vector<std::unique_ptr<trail::fs::Filesystem>> filesystems;
  std::unique_ptr<db::Database> database;
  std::unique_ptr<tpcc::TpccDatabase> tpcc;
};

Rig build(std::uint64_t seed, SpanTracer& tracer, SetupTimes& times) {
  HostTimer total;
  Rig rig;
  rig.s = build_trail_stack(tracer, times);
  Stack& s = *rig.s;
  db::DbConfig dbc;
  dbc.buffer_pool_pages = kPoolPages;
  dbc.log_region_sectors = 1 << 19;
  dbc.checkpoint_every_bytes = kCheckpointBytes;
  rig.database = std::make_unique<db::Database>(s.sim, *s.io, s.devices[0], dbc);
  for (int i = 0; i < Stack::kDataDisks; ++i) {
    auto& d = *s.data_disks[static_cast<std::size_t>(i)];
    trail::fs::mkfs(d, trail::fs::MkfsParams{0, d.geometry().total_sectors()});
    rig.filesystems.push_back(
        std::make_unique<trail::fs::Filesystem>(*s.io, s.devices[static_cast<std::size_t>(i)], d));
    rig.filesystems.back()->mount();
    rig.database->attach_filesystem(s.devices[static_cast<std::size_t>(i)],
                                    *rig.filesystems.back());
  }
  for (int i = 0; i < Stack::kDataDisks; ++i)
    rig.database->attach_device(s.devices[static_cast<std::size_t>(i)],
                                *s.data_disks[static_cast<std::size_t>(i)]);
  rig.tpcc = std::make_unique<tpcc::TpccDatabase>(*rig.database, tpcc::Scale::reduced(kScale),
                                                  s.devices[1], s.devices[2]);
  {
    SpanTracer::Scope span(tracer, SpanKind::kSetup, 1);
    HostTimer t;
    sim::Rng rng(seed);
    rig.tpcc->populate(rng);
    times.populate_s = t.wall_s();
  }
  rig.database->wal().attach_obs(&s.obs);
  rig.database->pool().attach_obs(&s.obs);
  times.total_s = total.wall_s();
  return rig;
}

/// 4 KB pages the populated rows fill (row bytes only: a lower bound).
std::uint64_t dataset_pages(Rig& rig) {
  std::uint64_t bytes = 0;
  for (std::size_t t = 0; t < tpcc::kTableCount; ++t) {
    const db::Table& table =
        rig.database->table(rig.tpcc->table(static_cast<tpcc::TableIndex>(t)));
    bytes += table.row_count() * table.row_size();
  }
  return bytes / 4096;
}

struct Txn {
  double ms = 0;  // submission -> outcome
  bool new_order_commit = false;
  bool lock_timeout = false;  // rolled back by a lock timeout
};

/// Closed-loop terminals: each runs one transaction from the standard
/// mix, then the next, until the shared budget is issued.
class Terminals {
 public:
  Terminals(tpcc::TpccDatabase& db, sim::Simulator& sim, std::uint64_t seed) : sim_(sim) {
    sim::Rng rng(seed ^ 0x7e4d1a5cULL);
    for (std::uint32_t i = 0; i < kTerminals; ++i)
      runners_.push_back(std::make_unique<tpcc::TxnRunner>(db, rng.split()));
    idle_.assign(kTerminals, true);
  }

  /// Allow `more` transactions and wake idle terminals.
  void extend(std::uint64_t more) {
    budget_ += more;
    for (std::uint32_t i = 0; i < kTerminals; ++i)
      if (idle_[i]) go(i);
  }
  [[nodiscard]] bool quiet() const { return completed_ == budget_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] const std::vector<Txn>& txns() const { return txns_; }

 private:
  void go(std::uint32_t i) {
    if (issued_ >= budget_) {
      idle_[i] = true;
      return;
    }
    idle_[i] = false;
    ++issued_;
    const sim::TimePoint t0 = sim_.now();
    runners_[i]->run(tpcc::pick_txn_type(runners_[i]->rng()), [this, i, t0](tpcc::TxnResult res) {
      Txn t;
      t.ms = (sim_.now() - t0).ms();
      t.new_order_commit = res.committed && res.type == tpcc::TxnType::kNewOrder;
      t.lock_timeout = !res.committed && !res.user_abort;
      txns_.push_back(t);
      ++completed_;
      go(i);
    });
  }

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<tpcc::TxnRunner>> runners_;
  std::vector<bool> idle_;
  std::uint64_t budget_ = 0, issued_ = 0, completed_ = 0;
  std::vector<Txn> txns_;
};

}  // namespace

Report run_tpcc(const Options& opt) {
  Report r;
  r.workload = "tpcc";
  r.seed = opt.seed;
  r.traced = opt.trace;
  SpanTracer tracer(opt.trace);

  std::vector<SetupTimes> setups;
  Rig rig;
  for (int i = 0; i < kSetups; ++i) {
    rig = Rig{};
    SetupTimes t;
    rig = build(opt.seed, tracer, t);
    setups.push_back(t);
  }
  Stack& s = *rig.s;
  db::Database& database = *rig.database;
  Terminals terminals(*rig.tpcc, s.sim, opt.seed);

  // Warm-up: until the pool is full, plus a floor.
  std::uint64_t warm = 0;
  while (warm < kMinWarmTxns || database.pool().resident_pages() < database.pool().capacity()) {
    terminals.extend(kWarmChunk);
    warm += kWarmChunk;
    s.step_until(tracer, [&] { return terminals.quiet(); }, "tpcc warm-up");
  }

  // Measured window: N transactions; the halves split at N/2 completions.
  const std::uint64_t n = std::max<std::uint64_t>(
      kMinWindowTxns, 2 * static_cast<std::uint64_t>(opt.seconds * kTxnsPerSecond / 2));
  const std::uint64_t mismatch_setup = req_mismatch(s);
  s.obs.metrics.reset();
  tracer.reset_totals();
  const Snapshot before = take_snapshot(s, &database.pool(), &database.wal());
  const sim::TimePoint window_start = s.sim.now();
  const db::Lsn lsn0 = database.wal().next_lsn();
  HostTimer timer;
  ChunkRates rates;  // one chunk per tenth of the window
  rates.start(timer.cpu_s());
  const std::uint64_t chunk = n / kChunks;
  std::uint64_t next_mark = warm + chunk;
  double pinned_max = 0;
  sim::TimePoint half_at{};
  std::uint64_t polls = 0;
  terminals.extend(n);
  s.step_until(
      tracer,
      [&] {
        if (terminals.completed() >= next_mark && next_mark < warm + n) {
          rates.mark(chunk, timer.cpu_s());
          next_mark += chunk;
        }
        if (half_at == sim::TimePoint{} && terminals.completed() >= warm + n / 2)
          half_at = s.sim.now();
        if (++polls % 64 == 0)
          pinned_max = std::max(pinned_max, static_cast<double>(s.pinned_bytes()) / 1048576.0);
        return terminals.quiet();
      },
      "tpcc");
  const double cpu = timer.cpu_s();
  const double wall = timer.wall_s();
  rates.mark(n - chunk * (kChunks - 1), cpu);
  const SpanTracer::AllTotals spans = tracer.totals();
  const Snapshot after = take_snapshot(s, &database.pool(), &database.wal());
  const sim::TimePoint window_end = s.sim.now();
  const double checkpoints = static_cast<double>(database.wal().next_lsn() - lsn0) /
                             static_cast<double>(kCheckpointBytes);
  r.measured_cpu_s = cpu;
  r.attempted = n;

  // Per-transaction results of the window and of each half.
  const std::vector<Txn>& all = terminals.txns();
  std::vector<double> lat;
  std::uint64_t new_orders = 0, new_orders_half = 0, timeouts = 0;
  for (std::size_t k = warm; k < all.size(); ++k) {
    const Txn& t = all[k];
    lat.push_back(t.ms);
    if (t.lock_timeout) ++timeouts;
    if (t.new_order_commit) {
      ++new_orders;
      if (k < warm + n / 2) ++new_orders_half;
    }
  }
  if (timeouts != 0)
    r.fail(std::to_string(timeouts) + " transactions rolled back by a lock timeout", timeouts);

  // Checks: TPC-C consistency, fsck of the log disk after a clean
  // unmount, and the attribution partition.
  HostTimer verify_timer;
  {
    SpanTracer::Scope span(tracer, SpanKind::kVerify, 1);
    const auto consistency = rig.tpcc->check_consistency(s.sim);
    if (!consistency.ok) r.fail("check_consistency: " + consistency.detail);
    s.trail->unmount();
    (void)fsck_logs(s, r, false);
  }
  const double verify_cpu = verify_timer.cpu_s();
  const std::uint64_t mismatch = mismatch_setup + req_mismatch(s);
  if (mismatch != 0) r.fail("req.mismatch = " + std::to_string(mismatch), 0);

  const auto tpm = [](std::uint64_t commits, sim::TimePoint from, sim::TimePoint to) {
    return ratio(static_cast<double>(commits), (to - from).sec() / 60.0);
  };
  const double tpmc = tpm(new_orders, window_start, window_end);
  check_halves(r, "tpmc", tpm(new_orders_half, window_start, half_at),
               tpm(new_orders - new_orders_half, half_at, window_end), 0.20);
  check_halves(r, "sync_p99_ms", percentile(s.io->latencies_ms(window_start, half_at), 99),
               percentile(s.io->latencies_ms(half_at, window_end), 99), 0.30);
  check_halves(r, "ops_per_cpu_s", rates.first_half(), rates.second_half(), 0.50);
  note_rates(r, rates);

  const SetupTimes setup = median_setup(setups);
  const std::vector<double> sync = s.io->latencies_ms(window_start, window_end);
  r.add_e2e("setup_s", setup.total_s, "s", Clock::kHost);
  r.add_e2e("ops_per_cpu_s", rates.median_rate(), "1/s", Clock::kHost);
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB", Clock::kHost);
  r.add_e2e("failed_frac", ratio(static_cast<double>(r.failed), static_cast<double>(n)), "frac",
            Clock::kCount);
  r.add_e2e("sync_p50_ms", percentile(sync, 50), "ms", Clock::kSim);
  r.add_e2e("sync_p99_ms", percentile(sync, 99), "ms", Clock::kSim);
  r.add_e2e("tpmc", tpmc, "1/min", Clock::kSim);
  r.add_e2e("txn_p50_ms", percentile(lat, 50), "ms", Clock::kSim);
  r.add_e2e("txn_p99_ms", percentile(lat, 99), "ms", Clock::kSim);

  LayerInputs in;
  in.stack = &s;
  in.delta.add(before, after);
  in.ops = n;
  in.txns = n;
  in.lock_timeouts = timeouts;
  in.measured_cpu_s = cpu;
  in.measured_wall_s = wall;
  in.traced = opt.trace;
  in.spans = spans;
  in.pinned_mb_max = pinned_max;
  in.setup = setup;
  in.verify_cpu_s = verify_cpu;
  in.req_mismatch = mismatch;
  add_layer_metrics(r, in);

  char line[240];
  std::snprintf(line, sizeof line,
                "inputs: w=1 scale %.2f, %u terminals, pool %zu pages vs dataset %llu pages; "
                "warm-up %llu txns, window %llu txns spanning %.1f checkpoints",
                kScale, kTerminals, kPoolPages,
                static_cast<unsigned long long>(dataset_pages(rig)),
                static_cast<unsigned long long>(warm), static_cast<unsigned long long>(n),
                checkpoints);
  r.notes.push_back(line);
  r.notes.push_back(
      "ledger: tpcc step self time holds the engine plus db/tpcc work run from db's own "
      "timers and transaction continuations");
  export_trace(r, tracer, opt);
  return r;
}

}  // namespace perfbench
