// Batched, CSCAN-ordered write-back dispatch (§4.2–§4.3): in-queue
// coalescing of adjacent/overlapping dirty ranges into single device
// commands, per-constituent skip semantics (settled sub-ranges drop out
// of a merged command; duplicates are absorbed by overlapping survivors),
// and the pin/settlement accounting that must balance through it all.
//
// The data disk is deliberately slow (large command overhead) so queued
// write-backs pile up behind the first dispatch and the coalescer has
// something to merge.
#include <gtest/gtest.h>

#include <cstring>

#include "audit/check.hpp"
#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using disk::kSectorSize;

class WritebackBatchTest : public TrailFixture {
 protected:
  WritebackBatchTest() : TrailFixture(1, disk::small_test_disk(), slow_data_profile()) {}

  static disk::DiskProfile slow_data_profile() {
    disk::DiskProfile p = disk::small_test_disk();
    p.command_overhead = sim::millis_f(200.0);  // write-backs queue up behind it
    return p;
  }

  void expect_clean_audit() {
    audit::Report report;
    driver->run_audit(report, /*quiescent=*/true);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
};

TEST_F(WritebackBatchTest, AdjacentWritebacksCoalesceIntoFewerCommands) {
  start();
  // Eight adjacent single-sector writes: the first write-back dispatches
  // alone (device idle), the other seven merge into one queued batch.
  for (std::uint32_t i = 0; i < 8; ++i)
    write_sync(io::BlockAddr{devices[0], 100 + i}, make_pattern(1, 1000 + i));
  settle();

  const auto& s = driver->stats();
  EXPECT_EQ(s.writebacks, 8u);
  EXPECT_EQ(s.writebacks_dispatched, 8u);
  EXPECT_EQ(s.writebacks_skipped, 0u);
  EXPECT_EQ(s.writeback_sectors, 8u);
  EXPECT_EQ(s.writeback_commands, 2u);  // solo first + the coalesced seven
  verify_expected_on_data_disks();
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  expect_clean_audit();
}

TEST_F(WritebackBatchTest, MergedBatchAbsorbsOverlappingDuplicate) {
  start();
  const io::BlockAddr addr{devices[0], 100};
  // A dispatches alone; B and C (same range) merge in the queue. At the
  // batch's dispatch B survives and materializes the *latest* content —
  // C's bytes — so C is absorbed and skipped, yet both records settle.
  write_sync(addr, make_pattern(2, 1));
  write_sync(addr, make_pattern(2, 2));
  write_sync(addr, make_pattern(2, 3));
  settle();

  const auto& s = driver->stats();
  EXPECT_EQ(s.writebacks, 3u);
  EXPECT_EQ(s.writebacks_dispatched, 2u);
  EXPECT_EQ(s.writebacks_skipped, 1u);
  EXPECT_EQ(s.writeback_commands, 2u);
  verify_expected_on_data_disks();  // platter holds C's pattern
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  EXPECT_EQ(driver->buffers().pending_records(), 0u);
  expect_clean_audit();
}

TEST_F(WritebackBatchTest, SettledSubRangeDropsOutOfMergedDispatch) {
  // A sub-range of a coalesced dispatch is settled by a newer overlapping
  // write *before* dispatch. Filling the first batch to the range cap
  // forces the overlapping newer range into a second batch; the first
  // batch's dispatch-time snapshot carries the newer version, so by the
  // time the second batch reaches the device its overlapping sub-range is
  // settled and drops out, while its other sub-range is written once.
  start();

  // U occupies the device so everything below queues behind it (the small
  // test disk has 1,520 sectors; 1400 is far from the burst at 100).
  write_sync(io::BlockAddr{devices[0], 1400}, make_pattern(1, 9));
  // Batch α = 32 single-sector ranges [100,132) — full at the cap.
  for (std::uint32_t i = 0; i < 32; ++i)
    write_sync(io::BlockAddr{devices[0], 100 + i}, make_pattern(1, 10 + i));
  // A newer write to 131 cannot join α (cap) — starts batch γ; a write to
  // 132 extends γ.
  write_sync(io::BlockAddr{devices[0], 131}, make_pattern(1, 50));
  write_sync(io::BlockAddr{devices[0], 132}, make_pattern(1, 51));
  settle();

  const auto& s = driver->stats();
  EXPECT_EQ(s.writebacks, 35u);
  // α's 131 survivor snapshots the newer content at dispatch, settling it
  // before γ reaches the device: γ dispatches 132 alone.
  EXPECT_EQ(s.writebacks_skipped, 1u);
  EXPECT_EQ(s.writebacks_dispatched, 34u);
  EXPECT_EQ(s.writeback_commands, 3u);  // U, α, γ-minus-the-settled-range
  // LBA 131 was written once, already carrying the newer bytes.
  verify_expected_on_data_disks();
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  EXPECT_EQ(driver->buffers().pending_records(), 0u);
  expect_clean_audit();
}

TEST_F(WritebackBatchTest, WritebackCommandsCarryAtMost32Ranges) {
  start();
  // Each burst's first write-back dispatches alone (device idle) and the
  // rest queue behind it. 32 queued adjacent ranges fit one command; a
  // 33rd spills into a second one.
  for (std::uint32_t i = 0; i < 33; ++i)
    write_sync(io::BlockAddr{devices[0], 100 + i}, make_pattern(1, 4000 + i));
  settle();
  EXPECT_EQ(driver->stats().writeback_commands, 2u);  // solo + 32

  for (std::uint32_t i = 0; i < 34; ++i)
    write_sync(io::BlockAddr{devices[0], 300 + i}, make_pattern(1, 4100 + i));
  settle();

  const auto& s = driver->stats();
  EXPECT_EQ(s.writebacks, 67u);
  EXPECT_EQ(s.writebacks_dispatched, 67u);
  EXPECT_EQ(s.writeback_commands, 5u);  // + solo, 32, 1
  verify_expected_on_data_disks();
  EXPECT_EQ(driver->buffers().pinned_sectors(), 0u);
  expect_clean_audit();
}

TEST_F(WritebackBatchTest, ReadsPreemptQueuedWritebackBatches) {
  start();
  // Fill the write-back queue behind a slow in-flight command, then issue
  // a read to an unbuffered LBA: it must dispatch before the coalesced
  // write batch (§4.3 read-over-write priority).
  for (std::uint32_t i = 0; i < 4; ++i)
    write_sync(io::BlockAddr{devices[0], 100 + i}, make_pattern(1, 3000 + i));
  const auto before = driver->stats().reads;
  (void)read_sync(io::BlockAddr{devices[0], 1200}, 1);
  const auto& s = driver->stats();
  EXPECT_EQ(s.reads, before + 1);
  // The read completed while coalesced write-backs were still queued.
  EXPECT_GT(s.writebacks, s.writebacks_dispatched + s.writebacks_skipped);
  settle();
  verify_expected_on_data_disks();
  expect_clean_audit();
}

}  // namespace
}  // namespace trail::testing
