#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "io/device_queue.hpp"
#include "io/scheduler.hpp"
#include "io/standard_driver.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"

namespace trail::io {
namespace {

const std::vector<std::byte> kSector(disk::kSectorSize, std::byte{0x5A});

PendingIo make_write(disk::Lba lba, std::function<void()> cb = {}, int priority = 0) {
  return PendingIo::write(lba, kSector, std::move(cb), priority);
}

TEST(PendingIoWrite, RejectsPartialOrEmptySectors) {
  const std::span<const std::byte> sector(kSector);
  EXPECT_THROW((void)PendingIo::write(0, sector.first(100), {}, 0), std::invalid_argument);
  EXPECT_THROW((void)PendingIo::write(0, sector.first(0), {}, 0), std::invalid_argument);
  EXPECT_EQ(PendingIo::write(7, sector, {}, 0).count, 1u);
}

TEST(FifoScheduler, PopsInSubmissionOrder) {
  IoScheduler sched(Order::kFifo);
  for (disk::Lba i = 0; i < 5; ++i) sched.push(make_write(100 - i));
  EXPECT_EQ(sched.size(), 5u);
  for (disk::Lba i = 0; i < 5; ++i) EXPECT_EQ(sched.pop_next(/*head=*/0).lba, 100 - i);
  EXPECT_TRUE(sched.empty());
}

TEST(FifoScheduler, PriorityClassesDrainInOrder) {
  IoScheduler sched(Order::kFifo);
  sched.push(make_write(1, {}, /*priority=*/1));
  sched.push(make_write(2, {}, /*priority=*/0));
  EXPECT_EQ(sched.pop_next(0).priority, 0) << "reads (class 0) before writes (class 1)";
  EXPECT_EQ(sched.pop_next(0).priority, 1);
}

TEST(ClookScheduler, ServesAscendingFromHeadThenWraps) {
  IoScheduler sched(Order::kClook);
  for (const disk::Lba lba : {50u, 10u, 70u, 30u, 90u}) sched.push(make_write(lba));
  // Head at 40: expect 50, 70, 90, then wrap to 10, 30.
  std::vector<disk::Lba> order;
  while (!sched.empty()) order.push_back(sched.pop_next(40).lba);
  EXPECT_EQ(order, (std::vector<disk::Lba>{50, 70, 90, 10, 30}));
}

TEST(ClookScheduler, ExactHeadPositionIncluded) {
  IoScheduler sched(Order::kClook);
  sched.push(make_write(40));
  sched.push(make_write(39));
  EXPECT_EQ(sched.pop_next(40).lba, 40u);
  EXPECT_EQ(sched.pop_next(40).lba, 39u);
}

class DeviceQueueTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  disk::DiskDevice dev{sim, disk::small_test_disk()};
};

TEST_F(DeviceQueueTest, DispatchesOneAtATime) {
  DeviceQueue queue(dev, Order::kFifo);
  int done = 0;
  for (int i = 0; i < 4; ++i) queue.submit(make_write(static_cast<disk::Lba>(i * 10),
                                                      [&done] { ++done; }));
  EXPECT_EQ(queue.queued(), 3u) << "one on the device, three queued";
  sim.run();
  EXPECT_EQ(done, 4);
  EXPECT_TRUE(queue.idle());
}

TEST_F(DeviceQueueTest, SettledRangeSkippedAtDispatch) {
  obs::Obs obs(sim);
  DeviceQueue queue(dev, Order::kFifo);
  queue.attach_obs(&obs, 0, "io.queue_depth");
  bool blocker_done = false, skipped = false, done = false;
  queue.submit(make_write(0, [&] { blocker_done = true; }));
  PendingIo io;
  io.lba = 50;
  io.count = 1;
  io.priority = 1;
  PendingIo::Range range;
  range.lba = 50;
  range.count = 1;
  range.settled = [] { return true; };
  range.skipped = [&] { skipped = true; };
  range.fill = [](std::span<std::byte> out) {
    std::fill(out.begin(), out.end(), std::byte{0xAB});
  };
  range.done = [&] { done = true; };
  io.ranges.push_back(std::move(range));
  queue.submit(std::move(io));
  sim.run();
  EXPECT_TRUE(blocker_done);
  EXPECT_TRUE(skipped) << "a settled range must release its enqueue through `skipped`";
  EXPECT_FALSE(done) << "a settled range never reaches the platter, so `done` must not fire";
  EXPECT_FALSE(dev.store().is_written(50)) << "settled range must not reach the disk";
  EXPECT_EQ(obs.metrics.counter("io.dispatch_skips").value(), 1u);
  EXPECT_TRUE(queue.idle());
}

TEST_F(DeviceQueueTest, OnlyWritebackClassesCoalesce) {
  // Four adjacent one-sector writes queue up behind a read. At class 0
  // each stays its own device command; at class 1 they fold into one.
  DeviceQueue queue(dev, Order::kFifo);
  std::vector<std::byte> out(disk::kSectorSize);
  int done = 0;
  auto burst = [&](disk::Lba base, int priority) {
    PendingIo blocker;
    blocker.lba = 1000;
    blocker.count = 1;
    blocker.out = out;
    queue.submit(std::move(blocker));
    for (disk::Lba lba = base; lba < base + 4; ++lba)
      queue.submit(make_write(lba, [&done] { ++done; }, priority));
    EXPECT_EQ(queue.queued(), priority == 0 ? 4u : 1u);
    sim.run();
    return dev.stats().writes;
  };
  const std::uint64_t class0_commands = burst(10, /*priority=*/0);
  EXPECT_EQ(class0_commands, 4u);
  EXPECT_EQ(burst(20, /*priority=*/1) - class0_commands, 1u);
  EXPECT_EQ(done, 8) << "every coalesced range still completes";
  EXPECT_TRUE(queue.idle());
}

class StandardDriverTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  disk::DiskDevice d0{sim, disk::small_test_disk()};
  disk::DiskDevice d1{sim, disk::small_test_disk()};
  StandardDriver driver;
};

TEST_F(StandardDriverTest, WriteReadRoundTripAcrossDevices) {
  const DeviceId id0 = driver.add_device(d0);
  const DeviceId id1 = driver.add_device(d1);
  std::vector<std::byte> a(disk::kSectorSize, std::byte{1});
  std::vector<std::byte> b(disk::kSectorSize, std::byte{2});
  int done = 0;
  driver.submit_write({id0, 5}, 1, a, [&] { ++done; });
  driver.submit_write({id1, 5}, 1, b, [&] { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  std::vector<std::byte> out(disk::kSectorSize);
  bool read_done = false;
  driver.submit_read({id1, 5}, 1, out, [&] { read_done = true; });
  sim.run();
  EXPECT_TRUE(read_done);
  EXPECT_EQ(out, b);
}

TEST_F(StandardDriverTest, UnknownDeviceThrows) {
  (void)driver.add_device(d0);
  std::vector<std::byte> buf(disk::kSectorSize);
  EXPECT_THROW(driver.submit_write({DeviceId{3, 9}, 0}, 1, buf, {}), std::out_of_range);
  EXPECT_THROW(driver.submit_read({DeviceId{7, 0}, 0}, 1, buf, {}), std::out_of_range);
}

TEST_F(StandardDriverTest, DrainWaitsForAllQueues) {
  const DeviceId id0 = driver.add_device(d0);
  const DeviceId id1 = driver.add_device(d1);
  std::vector<std::byte> data(disk::kSectorSize, std::byte{3});
  for (int i = 0; i < 3; ++i) {
    driver.submit_write({id0, static_cast<disk::Lba>(i * 8)}, 1, data, {});
    driver.submit_write({id1, static_cast<disk::Lba>(i * 8)}, 1, data, {});
  }
  bool drained = false;
  driver.drain([&] { drained = true; });
  EXPECT_FALSE(drained);
  sim.run();
  EXPECT_TRUE(drained);
  // Drain on an idle driver completes immediately.
  bool again = false;
  driver.drain([&] { again = true; });
  EXPECT_TRUE(again);
}

TEST_F(StandardDriverTest, DrainWaitsForWriteSubmittedFromCompletion) {
  const DeviceId id = driver.add_device(d0);
  std::vector<std::byte> data(disk::kSectorSize, std::byte{4});
  bool second_done = false, drained = false, drained_after_second = false;
  driver.submit_write({id, 0}, 1, data, [&] {
    driver.submit_write({id, 100}, 1, data, [&] { second_done = true; });
  });
  driver.drain([&] {
    drained = true;
    drained_after_second = second_done;
  });
  sim.run();
  EXPECT_TRUE(drained);
  EXPECT_TRUE(drained_after_second)
      << "a write submitted from a completion is accepted before the drain may fire";
}

TEST_F(StandardDriverTest, DrainWaitsForInFlightReads) {
  const DeviceId id = driver.add_device(d0);
  std::vector<std::byte> out(disk::kSectorSize);
  bool read_done = false, drained = false, drained_after_read = false;
  driver.submit_read({id, 40}, 1, out, [&] { read_done = true; });
  driver.drain([&] {
    drained = true;
    drained_after_read = read_done;
  });
  EXPECT_FALSE(drained);
  sim.run();
  EXPECT_TRUE(drained);
  EXPECT_TRUE(drained_after_read);
}

TEST_F(StandardDriverTest, ElevatorReducesSeekVersusFifo) {
  // Property: with a backlog of random writes, C-LOOK's total service time
  // is below FIFO's on the same workload.
  auto run_with = [](Order order) {
    sim::Simulator sim;
    disk::DiskDevice dev(sim, disk::wd_caviar_10g());
    StandardDriver driver(order);
    const DeviceId id = driver.add_device(dev);
    sim::Rng rng(77);
    std::vector<std::byte> data(disk::kSectorSize, std::byte{9});
    int done = 0;
    const int n = 60;
    for (int i = 0; i < n; ++i) {
      driver.submit_write(
          {id, static_cast<disk::Lba>(
                   rng.uniform(0, static_cast<std::int64_t>(dev.geometry().total_sectors()) - 2))},
          1, data, [&done] { ++done; });
    }
    sim.run();
    EXPECT_EQ(done, n);
    return dev.stats().seek;
  };
  const auto fifo_seek = run_with(Order::kFifo);
  const auto clook_seek = run_with(Order::kClook);
  EXPECT_LT(clook_seek.ns(), fifo_seek.ns() / 2)
      << "elevator should at least halve total seek time on a 60-deep backlog";
}

}  // namespace
}  // namespace trail::io
