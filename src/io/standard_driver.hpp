// StandardDriver — the baseline "Linux disk subsystem" of the paper's
// evaluation: synchronous writes go straight through a per-device elevator
// queue to the data disk and complete only when on the platter, paying
// seek + rotational latency. This is the comparator in Fig. 3 and the
// EXT2 / EXT2+GC rows of Table 2.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "disk/disk_device.hpp"
#include "io/block.hpp"
#include "io/device_queue.hpp"

namespace trail::io {

class StandardDriver final : public BlockDriver {
 public:
  explicit StandardDriver(Order order = Order::kClook) : order_(order) {}

  /// Register a data disk; returns its DeviceId (major 3 — "IDE disk" — and
  /// minors assigned in order, echoing the paper's prototype).
  DeviceId add_device(disk::DiskDevice& device);

  void submit_write(BlockAddr addr, std::uint32_t count, std::span<const std::byte> data,
                    Completion cb) override;
  void submit_read(BlockAddr addr, std::uint32_t count, std::span<std::byte> out,
                   Completion cb) override;
  void drain(Completion cb) override;

 private:
  [[nodiscard]] DeviceQueue& queue_of(DeviceId id);
  /// Count `cb`'s request as outstanding until it has completed (and run
  /// `cb`, which may submit more); the last completion releases drains.
  [[nodiscard]] Completion track(Completion cb);

  Order order_;
  std::vector<std::unique_ptr<DeviceQueue>> queues_;
  std::size_t outstanding_ = 0;  // accepted requests not yet completed
  std::vector<Completion> drain_waiters_;
};

}  // namespace trail::io
