#include "io/standard_driver.hpp"

namespace trail::io {

namespace {
constexpr std::uint8_t kDataDiskMajor = 3;
}

DeviceId StandardDriver::add_device(disk::DiskDevice& device) {
  queues_.push_back(std::make_unique<DeviceQueue>(device, order_));
  return DeviceId{kDataDiskMajor, static_cast<std::uint8_t>(queues_.size() - 1)};
}

DeviceQueue& StandardDriver::queue_of(DeviceId id) {
  if (id.major() != kDataDiskMajor || id.minor() >= queues_.size())
    throw std::out_of_range("StandardDriver: unknown device");
  return *queues_[id.minor()];
}

BlockDriver::Completion StandardDriver::track(Completion cb) {
  ++outstanding_;
  return [this, cb = std::move(cb)] {
    if (cb) cb();
    if (--outstanding_ != 0) return;
    const auto waiters = std::move(drain_waiters_);
    drain_waiters_.clear();
    for (const auto& w : waiters)
      if (w) w();
  };
}

void StandardDriver::submit_write(BlockAddr addr, std::uint32_t count,
                                  std::span<const std::byte> data, Completion cb) {
  DeviceQueue& queue = queue_of(addr.device);
  PendingIo io = PendingIo::write(addr.lba, data.first(std::size_t{count} * disk::kSectorSize),
                                  std::move(cb), /*priority=*/0);
  io.ranges.front().done = track(std::move(io.ranges.front().done));
  queue.submit(std::move(io));
}

void StandardDriver::submit_read(BlockAddr addr, std::uint32_t count, std::span<std::byte> out,
                                 Completion cb) {
  DeviceQueue& queue = queue_of(addr.device);
  PendingIo io;
  io.lba = addr.lba;
  io.count = count;
  io.out = out;
  io.on_complete = track(std::move(cb));
  queue.submit(std::move(io));
}

void StandardDriver::drain(Completion cb) {
  // All writes are synchronous: once every accepted request has completed
  // we are drained.
  if (outstanding_ == 0) {
    if (cb) cb();
    return;
  }
  drain_waiters_.push_back(std::move(cb));
}

}  // namespace trail::io
