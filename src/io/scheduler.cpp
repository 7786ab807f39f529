#include "io/scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace trail::io {

namespace {

/// Most constituent ranges one coalesced write-back command carries.
constexpr std::size_t kMaxWritebackRanges = 32;

/// Batch envelopes touch or overlap, and the merged batch would stay
/// within kMaxWritebackRanges. Adjacency (a.end == b.lba) is enough: the
/// merged sub-range union stays contiguous, so DeviceQueue can issue it
/// as one command.
bool mergeable(const PendingIo& a, const PendingIo& b) {
  if (a.ranges.empty() || b.ranges.empty()) return false;
  if (a.ranges.size() + b.ranges.size() > kMaxWritebackRanges) return false;
  return a.lba <= b.lba + b.count && b.lba <= a.lba + a.count;
}

/// Fold `io`'s ranges into `target`, growing the envelope. Keeps
/// `target`'s ranges first so the dispatch-time absorb rule ("a range
/// fully covered by earlier survivors is redundant") sees them in
/// submission order within each original batch.
void merge_into(PendingIo& target, PendingIo io) {
  const disk::Lba end = std::max(target.lba + target.count, io.lba + io.count);
  target.lba = std::min(target.lba, io.lba);
  target.count = static_cast<std::uint32_t>(end - target.lba);
  for (auto& r : io.ranges) target.ranges.push_back(std::move(r));
  if (!target.on_dispatch) target.on_dispatch = std::move(io.on_dispatch);
}

}  // namespace

PendingIo PendingIo::write(disk::Lba lba, std::span<const std::byte> bytes,
                           std::function<void()> done, int priority) {
  if (bytes.empty() || bytes.size() % disk::kSectorSize != 0)
    throw std::invalid_argument("PendingIo::write: not a whole, non-zero number of sectors");
  auto image = std::make_shared<std::vector<std::byte>>(bytes.begin(), bytes.end());
  PendingIo io;
  io.lba = lba;
  io.count = static_cast<std::uint32_t>(bytes.size() / disk::kSectorSize);
  io.priority = priority;
  Range range;
  range.lba = lba;
  range.count = io.count;
  range.fill = [image](std::span<std::byte> out) {
    std::memcpy(out.data(), image->data(), image->size());
  };
  range.done = std::move(done);
  io.ranges.push_back(std::move(range));
  return io;
}

void IoScheduler::push(PendingIo io) {
  Bucket& bucket = classes_[io.priority];
  if (io.priority >= 1 && try_merge(io, bucket)) return;
  const disk::Lba key_lba = io.priority == 0 && order_ == Order::kFifo ? 0 : io.lba;
  bucket.max_count = std::max(bucket.max_count, io.count);
  bucket.index.emplace(Key{key_lba, next_seq_++}, std::move(io));
  ++size_;
}

IoScheduler::Index::iterator IoScheduler::earliest_mergeable(Bucket& bucket,
                                                             const PendingIo& io) {
  // A queued envelope [q.lba, q.lba + q.count) touches [lo, hi) iff
  // q.lba <= hi and q.lba + q.count >= lo, so walk down from the last key
  // at or below hi until no envelope can reach lo any more.
  const disk::Lba lo = io.lba;
  const disk::Lba hi = io.lba + io.count;
  auto best = bucket.index.end();
  for (auto it = bucket.index.upper_bound(Key{hi, UINT64_MAX}); it != bucket.index.begin();) {
    --it;
    if (it->first.first + bucket.max_count < lo) break;
    if (mergeable(it->second, io) &&
        (best == bucket.index.end() || it->first.second < best->first.second))
      best = it;
  }
  return best;
}

bool IoScheduler::try_merge(PendingIo& io, Bucket& bucket) {
  auto target = earliest_mergeable(bucket, io);
  if (target == bucket.index.end()) return false;
  // Take the target out while it grows; it goes back under its new
  // envelope LBA and its old seq.
  auto node = bucket.index.extract(target);
  PendingIo& batch = node.mapped();
  merge_into(batch, std::move(io));
  // Cascade: the grown envelope may now bridge to further queued batches.
  for (auto it = earliest_mergeable(bucket, batch); it != bucket.index.end();
       it = earliest_mergeable(bucket, batch)) {
    merge_into(batch, std::move(it->second));
    bucket.index.erase(it);
    --size_;
  }
  node.key().first = batch.lba;
  bucket.max_count = std::max(bucket.max_count, batch.count);
  bucket.index.insert(std::move(node));
  return true;
}

PendingIo IoScheduler::pop_next(disk::Lba head_position) {
  auto cls = classes_.begin();
  while (cls->second.index.empty()) cls = classes_.erase(cls);
  Bucket& bucket = cls->second;
  // CSCAN: the lowest LBA at or beyond the head, else wrap to the lowest;
  // ties go to the earlier arrival. Every key of a class-0 kFifo bucket
  // has LBA 0, so there this is the oldest request.
  auto pick = bucket.index.lower_bound(Key{head_position, 0});
  if (pick == bucket.index.end()) pick = bucket.index.begin();
  PendingIo io = std::move(bucket.index.extract(pick).mapped());
  if (bucket.index.empty()) bucket.max_count = 0;
  --size_;
  return io;
}

}  // namespace trail::io
