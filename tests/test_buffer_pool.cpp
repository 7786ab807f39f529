#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "db/buffer_pool.hpp"
#include "db/page_file.hpp"
#include "db/wal.hpp"
#include "disk/disk_device.hpp"
#include "disk/profile.hpp"
#include "io/standard_driver.hpp"
#include "sim/simulator.hpp"

namespace trail::db {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() {
    dev = std::make_unique<disk::DiskDevice>(sim, disk::wd_caviar_10g());
    dev_id = driver.add_device(*dev);
    pool = std::make_unique<BufferPool>(sim, 4);
    file = std::make_unique<PageFile>(driver, io::BlockAddr{dev_id, 0}, 64);
    fid = pool->register_file(*file);
  }

  /// Fetch a page, run `mutate` on it, wait for completion.
  void with_page(PageNo page, const std::function<void(std::span<std::byte>)>& mutate) {
    bool done = false;
    pool->fetch(fid, page, [&](std::span<std::byte> p) {
      mutate(p);
      done = true;
    });
    while (!done) ASSERT_TRUE(sim.step());
  }

  sim::Simulator sim;
  io::StandardDriver driver;
  std::unique_ptr<disk::DiskDevice> dev;
  io::DeviceId dev_id;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PageFile> file;
  std::uint32_t fid{};
};

TEST_F(BufferPoolTest, MissThenHit) {
  with_page(3, [](std::span<std::byte>) {});
  EXPECT_EQ(pool->stats().misses, 1u);
  EXPECT_EQ(pool->stats().hits, 0u);
  with_page(3, [](std::span<std::byte>) {});
  EXPECT_EQ(pool->stats().hits, 1u);
  EXPECT_EQ(pool->resident_pages(), 1u);
}

TEST_F(BufferPoolTest, ConcurrentFetchesOfLoadingPageCoalesce) {
  int called = 0;
  pool->fetch(fid, 7, [&](std::span<std::byte>) { ++called; });
  pool->fetch(fid, 7, [&](std::span<std::byte>) { ++called; });  // still loading
  sim.run();
  EXPECT_EQ(called, 2);
  EXPECT_EQ(pool->stats().misses, 1u) << "second fetch must piggyback on the load";
}

TEST_F(BufferPoolTest, LruEvictionAtCapacity) {
  for (PageNo p = 0; p < 6; ++p) with_page(p, [](std::span<std::byte>) {});
  EXPECT_LE(pool->resident_pages(), 4u);
  EXPECT_GE(pool->stats().evictions, 2u);
  // Page 0 (least recent) was evicted: refetching misses.
  const auto misses = pool->stats().misses;
  with_page(0, [](std::span<std::byte>) {});
  EXPECT_EQ(pool->stats().misses, misses + 1);
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0xEE};
    pool->mark_dirty(fid, 1);
  });
  // Push it out of the pool.
  for (PageNo p = 10; p < 16; ++p) with_page(p, [](std::span<std::byte>) {});
  sim.run();
  EXPECT_GE(pool->stats().dirty_writebacks, 1u);
  // The platter carries the change.
  std::vector<std::byte> sector(disk::kSectorSize);
  dev->store().read(8, 1, sector);  // page 1 = sectors 8..15
  EXPECT_EQ(sector[0], std::byte{0xEE});
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x77};
    pool->mark_dirty(fid, 1);
  });
  pool->pin(fid, 1);
  for (PageNo p = 10; p < 20; ++p) with_page(p, [](std::span<std::byte>) {});
  sim.run();
  // Still resident with its content (NO-STEAL: uncommitted data never
  // reaches the disk).
  const auto hits = pool->stats().hits;
  with_page(1, [&](std::span<std::byte> p) { EXPECT_EQ(p[0], std::byte{0x77}); });
  EXPECT_EQ(pool->stats().hits, hits + 1);
  std::vector<std::byte> sector(disk::kSectorSize);
  dev->store().read(8, 1, sector);
  EXPECT_NE(sector[0], std::byte{0x77}) << "pinned dirty page must not be flushed";
  pool->unpin(fid, 1);
  EXPECT_THROW(pool->unpin(fid, 1), std::logic_error);
}

TEST_F(BufferPoolTest, FlushDirtySkipsPinned) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x11};
    pool->mark_dirty(fid, 1);
  });
  with_page(2, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x22};
    pool->mark_dirty(fid, 2);
  });
  pool->pin(fid, 2);
  bool flushed = false;
  pool->flush_dirty([&] { flushed = true; });
  while (!flushed) ASSERT_TRUE(sim.step());
  EXPECT_EQ(pool->dirty_pages(), 1u) << "the pinned page stays dirty";
  std::vector<std::byte> sector(disk::kSectorSize);
  dev->store().read(8, 1, sector);
  EXPECT_EQ(sector[0], std::byte{0x11});
  dev->store().read(16, 1, sector);
  EXPECT_NE(sector[0], std::byte{0x22});
  pool->unpin(fid, 2);
}

// A rewrite that lands while the page's write is in flight must keep the
// frame dirty: the write carries the bytes from before the rewrite.
TEST_F(BufferPoolTest, RewriteDuringCheckpointWriteStaysDirty) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0xAA};
    pool->mark_dirty(fid, 1);
  });
  bool flushed = false;
  pool->flush_dirty([&] { flushed = true; });
  bool rewritten = false;
  pool->fetch(fid, 1, [&](std::span<std::byte> p) {
    EXPECT_FALSE(flushed) << "the rewrite must land while the write is in flight";
    p[0] = std::byte{0xBB};
    pool->mark_dirty(fid, 1);
    rewritten = true;
  });
  while (!flushed) ASSERT_TRUE(sim.step());
  ASSERT_TRUE(rewritten);
  EXPECT_EQ(pool->dirty_pages(), 1u) << "the checkpoint wrote the old bytes";
  // Evict page 1, then refetch it: the rewrite must survive.
  for (PageNo p = 10; p < 16; ++p) with_page(p, [](std::span<std::byte>) {});
  sim.run();
  with_page(1, [&](std::span<std::byte> p) { EXPECT_EQ(p[0], std::byte{0xBB}); });
}

TEST_F(BufferPoolTest, RewriteDuringEvictionWriteKeepsFrame) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0xAA};
    pool->mark_dirty(fid, 1);
  });
  for (PageNo p = 10; p < 13; ++p) with_page(p, [](std::span<std::byte>) {});
  // The fifth frame makes page 1, the LRU tail, a dirty victim.
  pool->fetch(fid, 13, [](std::span<std::byte>) {});
  ASSERT_EQ(pool->stats().dirty_writebacks, 1u);
  bool rewritten = false;
  pool->fetch(fid, 1, [&](std::span<std::byte> p) {
    EXPECT_EQ(pool->stats().evictions, 0u) << "the rewrite must land while the write is in flight";
    p[0] = std::byte{0xBB};
    pool->mark_dirty(fid, 1);
    rewritten = true;
  });
  sim.run();
  ASSERT_TRUE(rewritten);
  // Evict page 1, then refetch it: the rewrite must survive.
  for (PageNo p = 20; p < 26; ++p) with_page(p, [](std::span<std::byte>) {});
  sim.run();
  with_page(1, [&](std::span<std::byte> p) { EXPECT_EQ(p[0], std::byte{0xBB}); });
}

TEST_F(BufferPoolTest, ResetDropsEverything) {
  with_page(1, [&](std::span<std::byte> p) {
    p[0] = std::byte{0x55};
    pool->mark_dirty(fid, 1);
  });
  pool->reset();
  EXPECT_EQ(pool->resident_pages(), 0u);
  // Dirty content was discarded (host crash semantics).
  with_page(1, [&](std::span<std::byte> p) { EXPECT_NE(p[0], std::byte{0x55}); });
}

// WAL rule on both page-write routes: a dirty page reaches the driver
// only once the WAL is durable through the frame's flush LSN. The driver
// wrapper notes the WAL's durable LSN at the moment each data-page write
// is submitted.
class RecordingDriver : public io::BlockDriver {
 public:
  struct PageWrite {
    disk::Lba lba;
    Lsn durable_at_submit;
  };

  explicit RecordingDriver(io::BlockDriver& inner) : inner_(inner) {}

  void watch(io::DeviceId data_device, const LogManager& wal) {
    data_device_ = data_device;
    wal_ = &wal;
  }

  void submit_write(io::BlockAddr addr, std::uint32_t count, std::span<const std::byte> data,
                    Completion cb) override {
    if (wal_ != nullptr && addr.device == data_device_)
      writes.push_back(PageWrite{addr.lba, wal_->durable_lsn()});
    inner_.submit_write(addr, count, data, std::move(cb));
  }
  void submit_read(io::BlockAddr addr, std::uint32_t count, std::span<std::byte> out,
                   Completion cb) override {
    inner_.submit_read(addr, count, out, std::move(cb));
  }
  void drain(Completion cb) override { inner_.drain(std::move(cb)); }

  /// The durable LSN noted when `page`'s write was submitted, if it was.
  [[nodiscard]] std::optional<Lsn> durable_at(PageNo page) const {
    for (const PageWrite& w : writes)
      if (w.lba == static_cast<disk::Lba>(page) * kSectorsPerPage) return w.durable_at_submit;
    return std::nullopt;
  }

  std::vector<PageWrite> writes;

 private:
  io::BlockDriver& inner_;
  io::DeviceId data_device_;
  const LogManager* wal_ = nullptr;
};

class BufferPoolWalRuleTest : public ::testing::Test {
 protected:
  BufferPoolWalRuleTest() {
    log_dev = std::make_unique<disk::DiskDevice>(sim, disk::wd_caviar_10g());
    data_dev = std::make_unique<disk::DiskDevice>(sim, disk::wd_caviar_10g());
    const io::DeviceId log_id = inner.add_device(*log_dev);
    const io::DeviceId data_id = inner.add_device(*data_dev);
    WalConfig config;
    config.region_base = io::BlockAddr{log_id, 0};
    config.region_sectors = 1024;
    wal = std::make_unique<LogManager>(sim, driver, config);
    driver.watch(data_id, *wal);
    pool = std::make_unique<BufferPool>(sim, 4, wal.get());
    file = std::make_unique<PageFile>(driver, io::BlockAddr{data_id, 0}, 64);
    fid = pool->register_file(*file);
  }

  void load(PageNo page) {
    bool done = false;
    pool->fetch(fid, page, [&](std::span<std::byte>) { done = true; });
    while (!done) ASSERT_TRUE(sim.step());
  }

  /// Log a record, dirty `page` under it and return the frame's flush
  /// LSN (everything appended so far).
  Lsn dirty_under_new_record(PageNo page) {
    load(page);
    WalRecord rec;
    rec.type = WalRecordType::kCommit;
    rec.txn = page;
    wal->append(rec);
    pool->mark_dirty(fid, page);
    return wal->next_lsn();
  }

  sim::Simulator sim;
  io::StandardDriver inner;
  RecordingDriver driver{inner};
  std::unique_ptr<disk::DiskDevice> log_dev;
  std::unique_ptr<disk::DiskDevice> data_dev;
  std::unique_ptr<LogManager> wal;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PageFile> file;
  std::uint32_t fid{};
};

TEST_F(BufferPoolWalRuleTest, EvictionWritesPageOnlyAfterWalIsDurable) {
  const Lsn flush_lsn = dirty_under_new_record(1);
  ASSERT_LT(wal->durable_lsn(), flush_lsn) << "the record must still be buffered";
  for (PageNo p = 10; p < 16; ++p) load(p);  // page 1 becomes the dirty victim
  sim.run();
  ASSERT_EQ(pool->stats().dirty_writebacks, 1u);
  const auto durable = driver.durable_at(1);
  ASSERT_TRUE(durable.has_value()) << "the victim was never written back";
  EXPECT_GE(*durable, flush_lsn);
}

TEST_F(BufferPoolWalRuleTest, CheckpointWritesPageOnlyAfterWalIsDurable) {
  const Lsn flush_lsn = dirty_under_new_record(2);
  ASSERT_LT(wal->durable_lsn(), flush_lsn) << "the record must still be buffered";
  bool flushed = false;
  pool->flush_dirty([&] { flushed = true; });
  while (!flushed) ASSERT_TRUE(sim.step());
  ASSERT_EQ(pool->stats().checkpoint_writes, 1u);
  const auto durable = driver.durable_at(2);
  ASSERT_TRUE(durable.has_value()) << "the checkpoint never wrote the page";
  EXPECT_GE(*durable, flush_lsn);
  EXPECT_EQ(pool->dirty_pages(), 0u);
}

}  // namespace
}  // namespace trail::db
