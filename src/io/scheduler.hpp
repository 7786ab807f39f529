// The per-device I/O scheduler: one queue, one ordering function.
//
// Requests wait in priority classes; a lower class always dispatches
// first. Class 0 carries reads (and recovery's log reads, and the
// standard baseline's sync writes) and is served in the constructor's
// Order: arrival order, or the C-LOOK elevator of the paper's Linux
// baseline. Trail keeps its reads there, above all write-backs ("data
// disk reads are given higher priority than data disk writes", §4.3).
// Classes >= 1 carry write-backs: always CSCAN-swept by LBA, and the only
// classes whose adjacent/overlapping queued writes coalesce into one
// multi-range device command (§4.2), up to kMaxWritebackRanges = 32
// ranges per command (scheduler.cpp).
//
// Each class is one ordered map keyed by (envelope LBA, arrival seq); in
// a class-0 kFifo bucket the key's LBA is 0, so the map iterates in
// arrival order. The CSCAN pick is lower_bound({head, 0}), wrapping to
// begin(): the lowest LBA at or past the head, the earliest arrival on a
// tie. A merge looks only at keys within the new envelope's reach (a walk
// back from its end, bounded by the class's largest envelope) and takes
// the touching batch with the smallest seq. A merged batch keeps its seq,
// so seq order is queue order: every merge target and pick is the first
// one in queue order, found in O(log n + batches in reach).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "disk/types.hpp"

namespace trail::io {

/// In-class service order of class 0.
enum class Order { kFifo, kClook };

/// One sector-run request awaiting dispatch to a DiskDevice: a read when
/// `ranges` is empty, else a write of the ranges' union.
struct PendingIo {
  disk::Lba lba = 0;
  std::uint32_t count = 0;
  std::span<std::byte> out;  // read destination (caller-owned)
  int priority = 0;          // lower value = dispatched first
  std::function<void()> on_complete;  // read completion

  /// One constituent range of a write. Each range keeps its own
  /// lifecycle closures so a merged device command still settles every
  /// record exactly once and releases exactly the pins its enqueue took.
  struct Range {
    disk::Lba lba = 0;
    std::uint32_t count = 0;
    /// Pure predicate, checked at dispatch: the range's content is already
    /// durable (superseded by a newer overlapping write that hit the
    /// platter first), so it drops out of the merged command.
    std::function<bool()> settled;
    /// Cleanup when the range drops out of its dispatch (settled, or
    /// absorbed by overlapping survivors of the same batch): release the
    /// enqueue's pins and count the skip.
    std::function<void()> skipped;
    /// Snapshot the *latest* content of the range into `out` at dispatch
    /// time, which is how superseded queued write-backs collapse into one
    /// physical write (§4.2).
    std::function<void(std::span<std::byte> out)> fill;
    /// The platter write covering the range completed.
    std::function<void()> done;
  };

  /// Non-empty marks a write. `lba`/`count` then describe the envelope of
  /// the batch; the union of the ranges is contiguous and equals it
  /// (merging only ever joins adjacent/overlapping envelopes).
  std::vector<Range> ranges;
  /// Called once per physical device command issued for this batch, with
  /// the number of constituent ranges it carries and its sector count.
  std::function<void(std::uint32_t ranges, std::uint32_t sectors)> on_dispatch;

  /// A single-range write of `bytes` (whole sectors, copied now) at `lba`;
  /// `done` fires once they are on the platter. Throws
  /// std::invalid_argument unless `bytes` is a non-zero number of sectors.
  static PendingIo write(disk::Lba lba, std::span<const std::byte> bytes,
                         std::function<void()> done, int priority);
};

class IoScheduler {
 public:
  explicit IoScheduler(Order order) : order_(order) {}

  /// Queue `io`. A write at class >= 1 first tries to fold into the
  /// earliest-queued batch of its class whose envelope it touches or
  /// overlaps, within the range cap, cascading while the grown envelope
  /// bridges to further batches.
  void push(PendingIo io);
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Remove and return the next request to dispatch, given the head's
  /// current position. Must only be called when !empty().
  PendingIo pop_next(disk::Lba head_position);

 private:
  /// (envelope LBA, arrival seq); the LBA is 0 in a class-0 kFifo bucket.
  using Key = std::pair<disk::Lba, std::uint64_t>;
  using Index = std::map<Key, PendingIo>;
  struct Bucket {
    Index index;
    /// Upper bound on the envelope count of every queued write, so a
    /// merge's walk back from the new envelope's end knows where to stop.
    std::uint32_t max_count = 0;
  };

  bool try_merge(PendingIo& io, Bucket& bucket);
  static Index::iterator earliest_mergeable(Bucket& bucket, const PendingIo& io);

  Order order_;
  std::map<int, Bucket> classes_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace trail::io
