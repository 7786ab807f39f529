#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
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

// ---- IoScheduler vs the linear-scan reference ----------------------------
//
// ListScheduler is the list-per-class scheduler IoScheduler's ordered index
// replaced, kept verbatim in behaviour: merge into the first mergeable
// batch in queue order, cascade by rescanning from the front, CSCAN by a
// full scan keeping the first of equal LBAs. Every dispatch decision of
// IoScheduler must equal it.
class ListScheduler {
 public:
  explicit ListScheduler(Order order) : order_(order) {}

  void push(PendingIo io) {
    Bucket& bucket = classes_[io.priority];
    if (io.priority >= 1 && try_merge(io, bucket)) return;
    bucket.push_back(std::move(io));
    ++size_;
  }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  PendingIo pop_next(disk::Lba head_position) {
    auto cls = classes_.begin();
    while (cls->second.empty()) cls = classes_.erase(cls);
    Bucket& bucket = cls->second;
    auto pick = bucket.begin();
    if (cls->first >= 1 || order_ == Order::kClook) {
      auto ahead = bucket.end();
      for (auto it = bucket.begin(); it != bucket.end(); ++it) {
        if (it->lba < pick->lba) pick = it;
        if (it->lba >= head_position && (ahead == bucket.end() || it->lba < ahead->lba)) ahead = it;
      }
      if (ahead != bucket.end()) pick = ahead;
    }
    PendingIo io = std::move(*pick);
    bucket.erase(pick);
    --size_;
    return io;
  }

  /// Two queued write-back batches share an envelope LBA or overlap, which
  /// only happens once the range cap has refused a merge.
  [[nodiscard]] bool has_overlapping_writebacks() const {
    for (const auto& [cls, bucket] : classes_) {
      if (cls < 1) continue;
      for (auto a = bucket.begin(); a != bucket.end(); ++a)
        for (auto b = std::next(a); b != bucket.end(); ++b)
          if (a->lba < b->lba + b->count && b->lba < a->lba + a->count) return true;
    }
    return false;
  }

 private:
  using Bucket = std::list<PendingIo>;
  static constexpr std::size_t kMaxRanges = 32;

  static bool mergeable(const PendingIo& a, const PendingIo& b) {
    if (a.ranges.empty() || b.ranges.empty()) return false;
    if (a.ranges.size() + b.ranges.size() > kMaxRanges) return false;
    return a.lba <= b.lba + b.count && b.lba <= a.lba + a.count;
  }
  static void merge_into(PendingIo& target, PendingIo io) {
    const disk::Lba end = std::max(target.lba + target.count, io.lba + io.count);
    target.lba = std::min(target.lba, io.lba);
    target.count = static_cast<std::uint32_t>(end - target.lba);
    for (auto& r : io.ranges) target.ranges.push_back(std::move(r));
    if (!target.on_dispatch) target.on_dispatch = std::move(io.on_dispatch);
  }
  bool try_merge(PendingIo& io, Bucket& bucket) {
    auto target = std::find_if(bucket.begin(), bucket.end(),
                               [&](const PendingIo& q) { return mergeable(q, io); });
    if (target == bucket.end()) return false;
    merge_into(*target, std::move(io));
    for (auto it = bucket.begin(); it != bucket.end();) {
      if (it == target || !mergeable(*target, *it)) {
        ++it;
        continue;
      }
      merge_into(*target, std::move(*it));
      bucket.erase(it);
      --size_;
      it = bucket.begin();
    }
    return true;
  }

  Order order_;
  std::map<int, Bucket> classes_;
  std::size_t size_ = 0;
};

/// What a popped request looks like from outside: its envelope, class
/// and the tags of its ranges in order (a read's tag is its own).
struct Popped {
  disk::Lba lba = 0;
  std::uint32_t count = 0;
  int priority = 0;
  std::vector<int> tags;
  std::vector<std::pair<disk::Lba, std::uint32_t>> ranges;
  bool operator==(const Popped&) const = default;
};

/// Requests whose `done`/`on_complete` report a tag, so the order of the
/// ranges inside a popped batch is observable.
class Tagged {
 public:
  PendingIo write(disk::Lba lba, std::uint32_t count, int priority, int tag) {
    const std::vector<std::byte> bytes(std::size_t{count} * disk::kSectorSize);
    return PendingIo::write(lba, bytes, [this, tag] { fired_.push_back(tag); }, priority);
  }
  PendingIo read(disk::Lba lba, std::uint32_t count, int tag) {
    PendingIo io;
    io.lba = lba;
    io.count = count;
    io.on_complete = [this, tag] { fired_.push_back(tag); };
    return io;
  }
  Popped observe(PendingIo io) {
    fired_.clear();
    Popped p{io.lba, io.count, io.priority, {}, {}};
    if (io.ranges.empty()) io.on_complete();
    for (const auto& r : io.ranges) {
      p.ranges.emplace_back(r.lba, r.count);
      r.done();
    }
    p.tags = fired_;
    return p;
  }

 private:
  std::vector<int> fired_;
};

/// Both schedulers fed the same requests in the same order.
struct SchedulerPair {
  explicit SchedulerPair(Order order) : ref(order), sut(order) {}
  void write(disk::Lba lba, std::uint32_t count, int priority) {
    ref.push(ref_tags.write(lba, count, priority, next_tag));
    sut.push(sut_tags.write(lba, count, priority, next_tag++));
  }
  void read(disk::Lba lba, std::uint32_t count) {
    ref.push(ref_tags.read(lba, count, next_tag));
    sut.push(sut_tags.read(lba, count, next_tag++));
  }
  /// Pop both, require the same request, and return it.
  Popped pop(disk::Lba head) {
    const Popped want = ref_tags.observe(ref.pop_next(head));
    const Popped got = sut_tags.observe(sut.pop_next(head));
    EXPECT_EQ(got, want) << "head " << head << ": popped lba " << got.lba << " count "
                         << got.count << " class " << got.priority << ", reference lba "
                         << want.lba << " count " << want.count << " class " << want.priority;
    return want;
  }

  ListScheduler ref;
  IoScheduler sut;
  Tagged ref_tags, sut_tags;
  int next_tag = 0;
};

TEST(SchedulerDifferential, RandomPushPopMatchesListScan) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    SchedulerPair pair(seed % 2 == 0 ? Order::kFifo : Order::kClook);
    // A small LBA space and multi-sector writes: the write-back class
    // fills its 32-range cap, so equal and overlapping envelopes coexist.
    const auto space = static_cast<std::int64_t>(96 + 32 * (seed % 4));
    bool saw_full_batch = false, saw_overlap = false;
    for (int step = 0; step < 1500; ++step) {
      const bool filling = step < 1000;
      if (!pair.ref.empty() && !rng.chance(filling ? 0.35 : 0.9)) {
        const Popped p = pair.pop(static_cast<disk::Lba>(rng.uniform(0, space + 16)));
        saw_full_batch = saw_full_batch || p.tags.size() == 32;
      } else {
        const auto lba = static_cast<disk::Lba>(rng.uniform(0, space));
        const auto count = static_cast<std::uint32_t>(rng.uniform(1, 8));
        switch (rng.uniform(0, 5)) {
          case 0: pair.read(lba, count); break;
          case 1: pair.write(lba, count, 0); break;
          default: pair.write(lba, count, 1); break;
        }
      }
      ASSERT_EQ(pair.sut.size(), pair.ref.size());
      saw_overlap = saw_overlap || pair.ref.has_overlapping_writebacks();
      if (::testing::Test::HasFailure()) return;
    }
    while (!pair.ref.empty()) {
      const Popped p = pair.pop(static_cast<disk::Lba>(rng.uniform(0, space + 16)));
      saw_full_batch = saw_full_batch || p.tags.size() == 32;
    }
    EXPECT_TRUE(pair.sut.empty());
    EXPECT_TRUE(saw_full_batch) << "the 32-range cap was never reached";
    EXPECT_TRUE(saw_overlap) << "no two write-back envelopes ever overlapped";
  }
}

TEST(SchedulerDifferential, MergesIntoEarliestQueuedCandidate) {
  // 10 and 12 do not touch; 11 touches both. The new write folds into the
  // earlier-queued of the two, whichever LBA that is, and the cascade
  // appends the other.
  for (const bool low_first : {true, false}) {
    SCOPED_TRACE(low_first ? "low LBA queued first" : "high LBA queued first");
    SchedulerPair pair(Order::kFifo);
    pair.write(low_first ? 10 : 12, 1, 1);   // tag 0
    pair.write(low_first ? 12 : 10, 1, 1);   // tag 1
    pair.write(11, 1, 1);                    // tag 2
    ASSERT_EQ(pair.sut.size(), 1u);
    const Popped p = pair.pop(0);
    EXPECT_EQ(p.lba, 10u);
    EXPECT_EQ(p.count, 3u);
    EXPECT_EQ(p.tags, (std::vector<int>{0, 2, 1}));
  }
  // Two batches at one LBA: the earlier one is full (32 ranges), so the
  // cap filters it out and the write joins the later one.
  SchedulerPair pair(Order::kFifo);
  for (int i = 0; i < 33; ++i) pair.write(100, 1, 1);  // tags 0..31, then 32 alone
  pair.write(100, 1, 1);                                // tag 33 joins tag 32's batch
  ASSERT_EQ(pair.sut.size(), 2u);
  EXPECT_EQ(pair.pop(0).tags.size(), 32u);
  EXPECT_EQ(pair.pop(0).tags, (std::vector<int>{32, 33}));
}

TEST(SchedulerDifferential, CscanTieGoesToEarlierArrival) {
  // Two overlapping write-back batches with the same envelope LBA: at a
  // head at or before them, and after a wrap, the earlier arrival wins.
  for (const disk::Lba head : {disk::Lba{0}, disk::Lba{100}, disk::Lba{500}}) {
    SCOPED_TRACE("head " + std::to_string(head));
    SchedulerPair pair(Order::kClook);
    for (int i = 0; i < 32; ++i) pair.write(100, 2, 1);  // tags 0..31: one full batch
    pair.write(100, 1, 1);                                // tag 32: a second batch at 100
    pair.write(300, 1, 1);                                // tag 33: elsewhere
    ASSERT_EQ(pair.sut.size(), 3u);
    const Popped first = pair.pop(head);
    EXPECT_EQ(first.lba, 100u);
    EXPECT_EQ(first.tags.size(), 32u) << "the earlier batch at LBA 100 goes first";
    EXPECT_EQ(pair.pop(head).tags, (std::vector<int>{32}));
    EXPECT_EQ(pair.pop(head).tags, (std::vector<int>{33}));
  }
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
