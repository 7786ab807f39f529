#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string_view>

#include "audit/log_verifier.hpp"
#include "obs/obs.hpp"
#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using core::TrailConfig;
using disk::kSectorSize;

class RecoveryTest : public TrailFixture {
 protected:
  RecoveryTest() : TrailFixture(2) {}

  /// Write n records without letting write-back run (data disks crashed
  /// first), so all of them are pending at the crash.
  void write_pending(int n, std::uint64_t seed, std::uint32_t sectors = 1) {
    for (auto& d : data_disks) d->crash_halt();  // block write-back
    for (int i = 0; i < n; ++i)
      write_sync({devices[static_cast<std::size_t>(i) % devices.size()],
                  static_cast<disk::Lba>(i) * sectors},
                 make_pattern(sectors, seed + static_cast<std::uint64_t>(i)));
  }
};

/// Complete spans named `name` on the unsharded recovery lane.
std::size_t recovery_spans(const obs::EventTracer& tracer, std::string_view name) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const obs::TraceEvent e = tracer.at(i);
    if (e.ph == obs::TracePhase::kComplete && e.name == name &&
        std::string_view(e.cat) == "recovery" && e.tid == obs::kRecoveryTid)
      ++n;
  }
  return n;
}

TEST_F(RecoveryTest, CrashBeforeWritebackRecoversAll) {
  start();
  write_pending(10, 100);
  crash_and_remount();
  EXPECT_EQ(driver->last_recovery().records_found, 10u);
  settle();
  verify_all_acknowledged_durable();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, CrashAfterSettleRecoversNothingPending) {
  start();
  for (int i = 0; i < 6; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 2)}, make_pattern(2, 50 + i));
  settle();
  crash_and_remount();
  // Everything was committed before the crash. log_head bounds the walk
  // to records that were live when the *youngest* record was appended, so
  // a few already-committed records may be replayed (harmlessly), but
  // never more than were ever written.
  EXPECT_LE(driver->last_recovery().records_found, 6u);
  verify_all_acknowledged_durable();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, RecoveryWritesBackInOrder_LatestVersionWins) {
  start();
  // Three writes to the SAME address with different content, none written
  // back. Replay must leave the newest on the data disk.
  for (auto& d : data_disks) d->crash_halt();
  const io::BlockAddr addr{devices[0], 40};
  write_sync(addr, make_pattern(2, 1));
  write_sync(addr, make_pattern(2, 2));
  const auto last = make_pattern(2, 3);
  write_sync(addr, last);
  crash_and_remount();
  EXPECT_EQ(driver->last_recovery().records_found, 3u);
  std::vector<std::byte> got(2 * kSectorSize);
  data_disks[0]->store().read(40, 2, got);
  EXPECT_EQ(got, last);
}

TEST_F(RecoveryTest, UnacknowledgedTornWriteIsDropped) {
  start();
  write_pending(3, 7);
  // Submit one more write and crash in the middle of its log transfer.
  bool acked = false;
  driver->submit_write({devices[0], 900}, 8, make_pattern(8, 99), [&] { acked = true; });
  // Let the physical write start (overhead elapses) then crash mid-media.
  sim.run_until(sim.now() + log_profile_.command_overhead + log_profile_.sector_time(0) * 3);
  EXPECT_FALSE(acked);
  crash_and_remount();
  EXPECT_TRUE(acked == false);
  // The torn record was dropped; the 3 acknowledged ones recovered.
  const auto& rs = driver->last_recovery();
  EXPECT_EQ(rs.records_found, 3u);
  verify_all_acknowledged_durable();
}

TEST_F(RecoveryTest, RecoveryWithoutWritebackAdoptsPending) {
  start();
  write_pending(8, 500);
  TrailConfig cfg;
  cfg.recovery_write_back = false;  // Fig. 4b: skip phase 3
  crash_and_remount(cfg);
  const auto& rs = driver->last_recovery();
  EXPECT_EQ(rs.records_found, 8u);
  EXPECT_EQ(rs.writeback_time.ns(), 0);
  EXPECT_EQ(rs.sectors_written_back, 0u);
  // The pending records are live again (the background write-back may
  // already have drained some during the rest of mount).
  verify_all_acknowledged_durable();
  // ...and the background write-back eventually drains them.
  settle();
  EXPECT_EQ(driver->buffers().pending_records(), 0u);
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, DoubleCrashAfterAdoptionStillRecovers) {
  start();
  write_pending(5, 800);
  TrailConfig cfg;
  cfg.recovery_write_back = false;
  crash_and_remount(cfg);  // epoch 2 adopts epoch-1 records
  EXPECT_EQ(driver->last_recovery().records_found, 5u);
  // Crash again immediately: write-back never ran, and the pending
  // records now belong to an *older* epoch than the crashed one.
  crash_and_remount();  // default: write back
  EXPECT_EQ(driver->last_recovery().records_found, 5u);
  verify_all_acknowledged_durable();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, DoubleCrashWithNewEpochWritesMergesBothEpochs) {
  start();
  write_pending(4, 900);
  TrailConfig cfg;
  cfg.recovery_write_back = false;
  crash_and_remount(cfg);
  // New epoch writes more records (write-back still blocked).
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 3; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(200 + i * 2)}, make_pattern(2, 950 + i));
  crash_and_remount();
  // At least the 3 epoch-2 records, plus whichever adopted epoch-1
  // records had not yet settled during the adoption mount: the chain must
  // cross the epoch boundary when any remain.
  const auto found = driver->last_recovery().records_found;
  EXPECT_GE(found, 3u);
  EXPECT_LE(found, 7u);
  verify_all_acknowledged_durable();
  settle();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, SequentialLocateFindsSameRecords) {
  start();
  write_pending(6, 321);
  TrailConfig cfg;
  cfg.recovery_sequential_locate = true;
  crash_and_remount(cfg);
  const auto& rs = driver->last_recovery();
  EXPECT_TRUE(rs.sequential_fallback);
  EXPECT_EQ(rs.records_found, 6u);
  EXPECT_EQ(rs.tracks_scanned, 77u);  // every usable track
  verify_all_acknowledged_durable();
}

TEST_F(RecoveryTest, BinarySearchScansFewTracksOnWrappedLog) {
  TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // one record per track: stamp fast
  start(cfg);
  // Stamp (nearly) the whole ring so the arc is long.
  for (int i = 0; i < 150; ++i) {
    write_sync({devices[0], static_cast<disk::Lba>(i % 64)}, make_pattern(1, i));
    sim.run_until(sim.now() + sim::millis(6));  // allow write-back + switch
  }
  settle();
  for (auto& d : data_disks) d->crash_halt();
  write_sync({devices[0], 999}, make_pattern(1, 999));
  crash_and_remount();
  const auto& rs = driver->last_recovery();
  EXPECT_FALSE(rs.sequential_fallback);
  // O(lg 77) + anchor: generously under half the ring.
  EXPECT_LT(rs.tracks_scanned, 30u);
  EXPECT_GE(rs.records_found, 1u);
  verify_all_acknowledged_durable();
}

TEST_F(RecoveryTest, PrevSectOutsideTheLogRingIsRefused) {
  start();
  write_pending(4, 700, 2);
  driver->crash();
  driver.reset();
  audit::LogImage image;
  (void)audit::verify_log(*log_disk, {}, &image);
  ASSERT_FALSE(image.records.empty());
  const audit::ParsedRecord& youngest = image.records.back();
  const disk::Geometry& geom = log_disk->geometry();
  // A newer record with a valid header CRC on the next (blank) ring
  // track, so locate finds it as the youngest and the walk follows its
  // prev_sect first.
  const core::LogDiskLayout layout(geom);
  const core::TrackRing ring(geom.track_count(), layout.reserved_tracks());
  const disk::Lba lba =
      geom.first_lba_of_track(ring.next(geom.track_of_lba(youngest.header_lba)));
  ASSERT_FALSE(log_disk->store().is_written(lba));
  const disk::Lba past_end = geom.total_sectors() + 5;
  const disk::Lba replica = layout.header_lba(1);
  ASSERT_TRUE(ring.is_reserved(geom.track_of_lba(replica)));
  for (const disk::Lba bad : {past_end, replica}) {
    SCOPED_TRACE(bad);
    core::RecordHeader rogue = youngest.header;
    rogue.sequence_id += 1;
    rogue.prev_sect = core::encode_log_ptr(0, static_cast<std::uint32_t>(bad));
    for (std::uint32_t i = 0; i < rogue.batch_size; ++i)
      rogue.entries[i].log_lba = static_cast<std::uint32_t>(lba + 1 + i);
    disk::SectorBuf sector{};
    core::serialize_record_header(rogue, sector);
    log_disk->store().write(lba, 1, sector);

    log_disk->restart();
    for (auto& d : data_disks) d->restart();
    core::TrailDriver fresh(sim, *log_disk);
    for (auto& d : data_disks) (void)fresh.add_data_disk(*d);
    try {
      fresh.mount();
      ADD_FAILURE() << "mount followed a prev_sect outside the log ring";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "recovery: prev_sect names a sector outside the log ring");
    }
  }
}

TEST_F(RecoveryTest, RecoveryStatsPhasesAreTimed) {
  start();
  write_pending(12, 4000, 2);
  crash_and_remount();
  const auto& rs = driver->last_recovery();
  EXPECT_GT(rs.locate_time.ns(), 0);
  EXPECT_GT(rs.rebuild_time.ns(), 0);
  EXPECT_GT(rs.writeback_time.ns(), 0);
  EXPECT_EQ(rs.records_found, 12u);
  EXPECT_EQ(rs.sectors_written_back, 24u);
}

TEST_F(RecoveryTest, RecoveryPhasesAreTraced) {
  // Fig. 4's breakdown in the trace: each phase a mount runs is one span.
  for (const bool write_back : {true, false}) {
    SCOPED_TRACE(write_back ? "write back" : "adopt");
    obs::Obs obs(sim);
    obs.tracer.set_enabled(true);
    start();
    write_pending(6, 1200, 2);
    TrailConfig cfg;
    cfg.recovery_write_back = write_back;
    crash_and_remount(cfg, &obs);
    EXPECT_EQ(recovery_spans(obs.tracer, "recovery.locate"), 1u);
    EXPECT_EQ(recovery_spans(obs.tracer, "recovery.rebuild"), 1u);
    EXPECT_EQ(recovery_spans(obs.tracer, "recovery.writeback"), write_back ? 1u : 0u);
    settle();
    verify_expected_on_data_disks();
    driver->unmount();
    driver.reset();  // detach before `obs` goes out of scope
  }
}

TEST_F(RecoveryTest, CrashDuringRepositionLosesNothing) {
  start();
  const auto data = make_pattern(8, 60);  // 8 sectors: exceeds 30% threshold
  write_sync({devices[0], 80}, data);
  // The driver is now repositioning to the next track; crash mid-flight.
  sim.run_until(sim.now() + sim::micros(300));
  crash_and_remount();
  verify_all_acknowledged_durable();
}

TEST_F(RecoveryTest, RepeatedCrashCyclesPreserveEverything) {
  start();
  std::uint64_t seed = 1;
  for (int cycle = 0; cycle < 5; ++cycle) {
    // Some settled writes, some pending, then crash.
    for (int i = 0; i < 4; ++i)
      write_sync({devices[static_cast<std::size_t>(i) % 2],
                  static_cast<disk::Lba>((cycle * 16 + i) * 2)},
                 make_pattern(2, seed++));
    settle();
    for (auto& d : data_disks) d->crash_halt();
    for (int i = 0; i < 3; ++i)
      write_sync({devices[0], static_cast<disk::Lba>(300 + cycle * 8 + i * 2)},
                 make_pattern(2, seed++));
    crash_and_remount(cycle % 2 == 0 ? TrailConfig{}
                                     : [] {
                                         TrailConfig c;
                                         c.recovery_write_back = false;
                                         return c;
                                       }());
    verify_all_acknowledged_durable();
  }
  settle();
  verify_expected_on_data_disks();
}

TEST_F(RecoveryTest, RandomizedCrashPointsNeverLoseAckedWrites) {
  // Property: crash at an arbitrary moment during a random write storm;
  // after recovery every acknowledged write is intact.
  sim::Rng rng(20260707);
  for (int trial = 0; trial < 8; ++trial) {
    expected_.clear();
    log_disk = std::make_unique<disk::DiskDevice>(sim, log_profile_);
    core::format_log_disk(*log_disk);
    data_disks.clear();
    for (int i = 0; i < 2; ++i)
      data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, data_profile_));
    start();

    // Fire-and-record storm: submissions at random times, tracking acks.
    struct Tracked {
      io::BlockAddr addr;
      std::vector<std::byte> data;
      bool acked = false;
    };
    std::vector<std::unique_ptr<Tracked>> writes;
    sim::TimePoint t = sim.now();
    for (int i = 0; i < 30; ++i) {
      auto w = std::make_unique<Tracked>();
      const auto count = static_cast<std::uint32_t>(rng.uniform(1, 6));
      w->addr = {devices[static_cast<std::size_t>(rng.uniform(0, 1))],
                 static_cast<disk::Lba>(rng.uniform(0, 200))};
      w->data = make_pattern(count, rng.next());
      Tracked* raw = w.get();
      t += sim::micros(rng.uniform(0, 4000));
      sim.schedule_at(t, [this, raw, count] {
        if (!driver || !driver->mounted()) return;
        driver->submit_write(raw->addr, count, raw->data, [raw] { raw->acked = true; });
      });
      writes.push_back(std::move(w));
    }
    const sim::TimePoint crash_at = sim.now() + sim::micros(rng.uniform(500, 120'000));
    sim.run_until(crash_at);
    crash_and_remount();
    settle();

    // Later writes to the same sector supersede earlier ones; build the
    // expected final state from ack order (which equals submission order
    // here since the driver acks in order). Sectors also touched by an
    // UNacknowledged write are indeterminate — a crashed multi-sector
    // write may legitimately be partially applied — so skip them.
    std::map<std::pair<std::uint16_t, disk::Lba>, const Tracked*> latest;
    std::set<std::pair<std::uint16_t, disk::Lba>> indeterminate;
    for (const auto& w : writes) {
      const auto sectors = w->data.size() / kSectorSize;
      for (std::size_t s = 0; s < sectors; ++s) {
        const std::pair<std::uint16_t, disk::Lba> key{w->addr.device.index(), w->addr.lba + s};
        if (w->acked)
          latest[key] = w.get();
        else
          indeterminate.insert(key);
      }
    }
    for (const auto& [key, w] : latest) {
      if (indeterminate.contains(key)) continue;
      std::vector<std::byte> got(kSectorSize);
      const auto lba = key.second;
      data_disks[key.first & 0xFF]->store().read(lba, 1, got);
      const std::size_t off = static_cast<std::size_t>(lba - w->addr.lba) * kSectorSize;
      EXPECT_EQ(std::memcmp(got.data(), w->data.data() + off, kSectorSize), 0)
          << "trial " << trial << " lost acked sector at lba " << lba;
    }
    driver->unmount();
    driver.reset();
  }
}

}  // namespace
}  // namespace trail::testing

namespace trail::testing {
namespace {

// Regression: repeated mount/unmount cycles used to advance the resume
// tail PAST the stored track without stamping it, leaving stale-keyed
// "dip" tracks inside the ring that broke the locate binary search's
// circular monotonicity (found by examples/torture, seed 7, iteration 16).
TEST_F(RecoveryTest, ManyMountCyclesKeepRingSearchable) {
  start();
  for (int cycle = 0; cycle < 25; ++cycle) {
    for (int i = 0; i < 3; ++i)
      write_sync({devices[0], static_cast<disk::Lba>(cycle * 8 + i * 2)},
                 make_pattern(1, static_cast<std::uint64_t>(cycle) * 10 + i));
    settle();
    driver->unmount();
    driver.reset();
    start();
  }
  // Crash with pending records: recovery must find THIS epoch's chain,
  // not an older epoch's.
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 4; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(500 + i * 2)}, make_pattern(1, 900 + i));
  crash_and_remount();
  EXPECT_GE(driver->last_recovery().records_found, 4u);
  EXPECT_FALSE(driver->last_recovery().sequential_fallback);
  verify_all_acknowledged_durable();
  verify_expected_on_data_disks();
}

// Regression: a request split across physical writes could have its early
// parts superseded (and unpinned) before the full-range write-back was
// enqueued, tripping the pin bookkeeping (found by examples/torture).
TEST_F(RecoveryTest, SplitRequestSupersededMidFlight) {
  core::TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // force small tracks -> splits
  start(cfg);
  // A 30-sector write must split across several physical writes on the
  // 16-24 sector tracks; while it is in flight, overwrite its head range.
  bool big_acked = false;
  driver->submit_write({devices[0], 100}, 30, make_pattern(30, 1),
                       [&] { big_acked = true; });
  bool small_acked = false;
  const auto small = make_pattern(4, 2);
  driver->submit_write({devices[0], 100}, 4, small, [&] { small_acked = true; });
  pump(big_acked);
  pump(small_acked);
  settle();
  // The overwrite wins on its range; the tail of the big write survives.
  std::vector<std::byte> got(4 * kSectorSize);
  data_disks[0]->store().read(100, 4, got);
  EXPECT_EQ(got, small);
  const auto big = make_pattern(30, 1);
  std::vector<std::byte> tail(kSectorSize);
  data_disks[0]->store().read(120, 1, tail);
  EXPECT_EQ(std::memcmp(tail.data(), big.data() + 20 * kSectorSize, kSectorSize), 0);
}

// ---------------------------------------------------------------------------
// Recovery equivalence: the depth knob is a pure performance lever. For the
// same crashed image, depth 1 (one read in flight, no prefetch) and depth 8
// (windowed probes, streamed prefetch) must recover the exact same state —
// same record counts, same surviving keys, byte-identical disk images —
// and that state must match an oracle kept outside the recovery code: the
// acked records' keys captured before the crash and a shadow of the acked
// writes in submission order.
// ---------------------------------------------------------------------------

/// Full snapshot of a platter, with unwritten sectors distinguished from
/// zero-filled ones so image comparison is exact.
struct DiskSnapshot {
  std::vector<std::byte> bytes;
  std::vector<bool> written;
  bool operator==(const DiskSnapshot&) const = default;
};

DiskSnapshot snapshot_disk(const disk::DiskDevice& dev) {
  const disk::Lba total = dev.store().total_sectors();
  DiskSnapshot snap;
  snap.bytes.resize(static_cast<std::size_t>(total) * kSectorSize);
  snap.written.resize(static_cast<std::size_t>(total));
  for (disk::Lba l = 0; l < total; ++l) {
    if (!dev.store().is_written(l)) continue;
    snap.written[static_cast<std::size_t>(l)] = true;
    dev.store().read(l, 1,
                     std::span<std::byte>(snap.bytes).subspan(
                         static_cast<std::size_t>(l) * kSectorSize, kSectorSize));
  }
  return snap;
}

struct EquivOutcome {
  core::RecoveryStats stats;
  /// Keys of the acked records, read from the driver before the crash.
  std::set<std::uint64_t> acked_keys;
  std::set<std::uint64_t> live_keys;
  std::int64_t max_inflight_reads = 0;
  std::vector<DiskSnapshot> log_images;
  std::vector<DiskSnapshot> data_images;
  /// Sectors the data disks wrote from the remount until data_images
  /// were taken.
  std::uint64_t data_sectors_written = 0;
  /// The data images the acked writes imply, applied in submission order
  /// onto never-written platters.
  std::vector<DiskSnapshot> shadow_images;
};

/// Deterministic workload -> crash -> remount at `depth` over `log_units`
/// log disks; everything up to the remount is identical across calls, so
/// any divergence in the outcome is the recovery pipeline's doing.
/// `drain_adopted` adopts on live data disks and takes the data images
/// after an unmount has drained the adopted records.
EquivOutcome run_equivalence_scenario(std::uint32_t depth, bool write_back,
                                      std::size_t log_units = 1, bool drain_adopted = false) {
  sim::Simulator sim;
  obs::Obs obs(sim);
  const disk::DiskProfile profile = disk::small_test_disk();
  std::vector<std::unique_ptr<disk::DiskDevice>> log_disks;
  std::vector<disk::DiskDevice*> logs;
  for (std::size_t i = 0; i < log_units; ++i) {
    log_disks.push_back(std::make_unique<disk::DiskDevice>(sim, profile));
    core::format_log_disk(*log_disks.back());
    logs.push_back(log_disks.back().get());
  }
  std::vector<std::unique_ptr<disk::DiskDevice>> data_disks;
  for (int i = 0; i < 2; ++i)
    data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, profile));

  auto pump = [&sim](const bool& flag) {
    while (!flag)
      if (!sim.step()) throw std::runtime_error("equivalence scenario stalled");
  };

  EquivOutcome out;
  for (auto& d : data_disks) {
    const auto total = static_cast<std::size_t>(d->store().total_sectors());
    out.shadow_images.push_back(
        DiskSnapshot{std::vector<std::byte>(total * kSectorSize), std::vector<bool>(total)});
  }

  auto driver = std::make_unique<core::TrailDriver>(sim, logs, core::TrailConfig{});
  std::vector<io::DeviceId> devices;
  for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
  driver->mount();

  // All writes stay pending (data disks halted), with same-address
  // rewrites so write-back ordering is observable, then an unacked final
  // write that the crash cuts (torn on the platter, or never started).
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 24; ++i) {
    bool acked = false;
    const std::size_t disk_idx = static_cast<std::size_t>(i) % 2;
    const auto lba = static_cast<disk::Lba>((i % 6) * 4);
    const auto data = make_pattern(2, 1000 + static_cast<std::uint64_t>(i));
    driver->submit_write({devices[disk_idx], lba}, 2, data, [&] { acked = true; });
    pump(acked);
    DiskSnapshot& shadow = out.shadow_images[disk_idx];
    std::copy(data.begin(), data.end(),
              shadow.bytes.begin() + static_cast<std::ptrdiff_t>(lba * kSectorSize));
    shadow.written[lba] = shadow.written[lba + 1] = true;
  }
  for (const std::uint64_t key : driver->live_record_keys()) out.acked_keys.insert(key);
  const auto torn = make_pattern(8, 4242);
  driver->submit_write({devices[0], 900}, 8, torn, [] {});
  sim.run_until(sim.now() + profile.command_overhead + profile.sector_time(0) * 3);
  driver->crash();
  driver.reset();
  for (auto& d : log_disks) d->restart();
  std::uint64_t data_written_before = 0;
  for (auto& d : data_disks) {
    d->restart();
    // Adopting, keep the records live past the mount: their write-backs
    // must not drain before live_record_keys() is read.
    if (!write_back && !drain_adopted) d->crash_halt();
    data_written_before += d->stats().sectors_written;
  }

  core::TrailConfig rcfg;
  rcfg.recovery_pipeline_depth = depth;
  rcfg.recovery_write_back = write_back;
  driver = std::make_unique<core::TrailDriver>(sim, logs, rcfg);
  driver->attach_obs(&obs);
  devices.clear();
  for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
  driver->mount();

  out.stats = driver->last_recovery();
  out.max_inflight_reads = obs.metrics.gauge("recovery.inflight_reads").max();
  for (const std::uint64_t key : driver->live_record_keys()) out.live_keys.insert(key);
  for (auto& d : log_disks) out.log_images.push_back(snapshot_disk(*d));
  if (log_units == 1) {  // verify_log follows one disk's chain only
    const audit::Report fsck = audit::verify_log(*log_disks[0]);
    EXPECT_TRUE(fsck.ok()) << "depth " << depth << " fsck:\n" << fsck.to_string();
  }
  if (drain_adopted) driver->unmount();
  for (auto& d : data_disks) {
    out.data_images.push_back(snapshot_disk(*d));
    out.data_sectors_written += d->stats().sectors_written;
  }
  out.data_sectors_written -= data_written_before;
  if (write_back)
    driver->unmount();
  else if (!drain_adopted)
    driver->crash();  // the halted data disks could never drain
  return out;
}

/// Distinct data sectors the acked writes touched.
std::uint64_t shadow_sector_count(const EquivOutcome& out) {
  std::uint64_t sectors = 0;
  for (const DiskSnapshot& shadow : out.shadow_images)
    sectors += static_cast<std::uint64_t>(
        std::count(shadow.written.begin(), shadow.written.end(), true));
  return sectors;
}

/// Both depths recovered the same state, and it is the one the acked
/// writes imply.
void expect_equivalent(const EquivOutcome& d1, const EquivOutcome& d8, bool write_back) {
  ASSERT_EQ(d1.acked_keys, d8.acked_keys) << "the pre-crash workloads diverged";
  ASSERT_GE(d1.acked_keys.size(), 24u);  // a write may split across two records
  for (const EquivOutcome* out : {&d1, &d8}) {
    EXPECT_EQ(out->stats.records_found, out->acked_keys.size());
    // Written back, nothing stays live; adopted, exactly the acked records do.
    if (write_back)
      EXPECT_TRUE(out->live_keys.empty());
    else
      EXPECT_EQ(out->live_keys, out->acked_keys);
  }
  // Locate reads one track at a time per unit whatever the depth.
  EXPECT_EQ(d1.stats.tracks_scanned, d8.stats.tracks_scanned);
  EXPECT_EQ(d1.stats.locate_time, d8.stats.locate_time);
  EXPECT_EQ(d1.stats.records_dropped_torn, d8.stats.records_dropped_torn);
  EXPECT_EQ(d1.stats.oldest_torn_key, d8.stats.oldest_torn_key);
  EXPECT_EQ(d1.stats.sectors_written_back, d8.stats.sectors_written_back);
  EXPECT_EQ(d1.log_images, d8.log_images) << "log images diverged";
  if (!write_back) return;
  // The write-back writes every sector the acked writes touched, once.
  const std::uint64_t shadow_sectors = shadow_sector_count(d8);
  EXPECT_EQ(d8.stats.sectors_written_back, shadow_sectors);
  EXPECT_EQ(d1.data_sectors_written, shadow_sectors);
  EXPECT_EQ(d8.data_sectors_written, shadow_sectors);
  ASSERT_EQ(d1.data_images.size(), d1.shadow_images.size());
  for (std::size_t i = 0; i < d1.data_images.size(); ++i) {
    EXPECT_EQ(d1.data_images[i], d1.shadow_images[i]) << "depth 1, data disk " << i;
    EXPECT_EQ(d8.data_images[i], d8.shadow_images[i]) << "depth 8, data disk " << i;
  }
}

TEST(RecoveryEquivalence, PipelinedRebuildAndWritebackMatchSerial) {
  const EquivOutcome d1 = run_equivalence_scenario(1, /*write_back=*/true);
  const EquivOutcome d8 = run_equivalence_scenario(8, /*write_back=*/true);
  expect_equivalent(d1, d8, /*write_back=*/true);
  EXPECT_EQ(d1.max_inflight_reads, 1) << "depth 1 keeps one read in flight";
}

TEST(RecoveryEquivalence, PipelinedAdoptionMatchesSerial) {
  // Fig. 4b shape: skip phase 3 so the recovered records are adopted as
  // pending — the pending set itself must be depth-invariant.
  const EquivOutcome d1 = run_equivalence_scenario(1, /*write_back=*/false);
  const EquivOutcome d8 = run_equivalence_scenario(8, /*write_back=*/false);
  expect_equivalent(d1, d8, /*write_back=*/false);
}

TEST(RecoveryEquivalence, AdoptedRecordsDrainEachSectorOnce) {
  // Adopting on live data disks, the background write-back must write
  // each distinct sector once with its newest content, even though the
  // same-address rewrites make the adopted records overlap.
  const EquivOutcome out =
      run_equivalence_scenario(8, /*write_back=*/false, /*log_units=*/1, /*drain_adopted=*/true);
  EXPECT_EQ(out.stats.records_found, out.acked_keys.size());
  EXPECT_EQ(out.stats.sectors_written_back, 0u) << "adopting writes nothing back at mount";
  EXPECT_EQ(out.data_sectors_written, shadow_sector_count(out));
  ASSERT_EQ(out.data_images.size(), out.shadow_images.size());
  for (std::size_t i = 0; i < out.data_images.size(); ++i)
    EXPECT_EQ(out.data_images[i], out.shadow_images[i]) << "data disk " << i;
}

TEST(RecoveryEquivalence, TwoLogUnitsMatchAcrossDepths) {
  // The chain crosses log disks via encoded prev pointers; locate runs
  // both units' machines at once, so depth 1 holds one read per unit.
  const EquivOutcome d1 = run_equivalence_scenario(1, /*write_back=*/true, /*log_units=*/2);
  const EquivOutcome d8 = run_equivalence_scenario(8, /*write_back=*/true, /*log_units=*/2);
  expect_equivalent(d1, d8, /*write_back=*/true);
  EXPECT_EQ(d1.stats.records_dropped_torn, 1u) << "the crash tore the final record";
  EXPECT_EQ(d1.max_inflight_reads, 2) << "depth 1 locates both units concurrently";
}

// ---------------------------------------------------------------------------
// Fig. 4's layout on the paper's log disk: one record per track, so the
// chain never stays on a track and a deeper pipeline has nothing to
// prefetch. Depth 8 must rebuild no slower, and read no more, than depth 1.
// ---------------------------------------------------------------------------

constexpr int kPaperPrefill = 64;
constexpr int kPaperPending = 32;

struct PaperLayoutRebuild {
  core::RecoveryStats stats;
  std::uint64_t stream_sectors = 0;
  std::vector<std::uint64_t> live_keys;
};

/// Prefill the ring (records written back and freed), leave
/// kPaperPending acked records on the log behind halted data disks,
/// crash, and remount at `depth`, adopting the records so their keys stay
/// readable.
PaperLayoutRebuild rebuild_at_paper_layout(std::uint32_t depth) {
  sim::Simulator sim;
  obs::Obs obs(sim);
  disk::DiskDevice log_disk(sim, disk::st41601n());
  core::format_log_disk(log_disk);
  std::vector<std::unique_ptr<disk::DiskDevice>> data_disks;
  for (int i = 0; i < 2; ++i)
    data_disks.push_back(std::make_unique<disk::DiskDevice>(sim, disk::small_test_disk()));
  auto pump = [&sim](const bool& flag) {
    while (!flag)
      if (!sim.step()) throw std::runtime_error("paper-layout scenario stalled");
  };
  auto write = [&](core::TrailDriver& driver, io::DeviceId dev, disk::Lba lba) {
    bool acked = false;
    driver.submit_write({dev, lba}, 1, make_pattern(1, lba), [&acked] { acked = true; });
    pump(acked);
  };

  TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // one record per track
  cfg.max_requests_per_physical = 1;
  auto driver = std::make_unique<core::TrailDriver>(sim, log_disk, cfg);
  std::vector<io::DeviceId> devices;
  for (auto& d : data_disks) devices.push_back(driver->add_data_disk(*d));
  driver->mount();
  for (int i = 0; i < kPaperPrefill; ++i)
    write(*driver, devices[static_cast<std::size_t>(i) % 2], static_cast<disk::Lba>(i));
  bool drained = false;
  driver->drain([&drained] { drained = true; });
  pump(drained);
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < kPaperPending; ++i)
    write(*driver, devices[static_cast<std::size_t>(i) % 2], static_cast<disk::Lba>(500 + i));
  driver->crash();
  driver.reset();
  log_disk.restart();
  for (auto& d : data_disks) {
    d->restart();
    d->crash_halt();  // the adopted records stay live past the mount
  }

  TrailConfig rcfg;
  rcfg.recovery_pipeline_depth = depth;
  rcfg.recovery_write_back = false;
  driver = std::make_unique<core::TrailDriver>(sim, log_disk, rcfg);
  driver->attach_obs(&obs);
  for (auto& d : data_disks) (void)driver->add_data_disk(*d);
  driver->mount();
  PaperLayoutRebuild out;
  out.stats = driver->last_recovery();
  out.stream_sectors = obs.metrics.counter("recovery.stream_sectors").value();
  out.live_keys = driver->live_record_keys();
  driver->crash();  // the halted data disks could never drain
  return out;
}

TEST(RecoveryPaperLayout, Depth8RebuildsNoSlowerThanDepth1) {
  const PaperLayoutRebuild d1 = rebuild_at_paper_layout(1);
  const PaperLayoutRebuild d8 = rebuild_at_paper_layout(8);
  EXPECT_EQ(d1.stats.records_found, static_cast<std::uint32_t>(kPaperPending));
  EXPECT_EQ(d8.live_keys, d1.live_keys) << "the recovered chains differ";
  EXPECT_LE(d8.stats.rebuild_time.ms(), d1.stats.rebuild_time.ms());
  EXPECT_LE(d8.stream_sectors, d1.stream_sectors);
}

}  // namespace
}  // namespace trail::testing
