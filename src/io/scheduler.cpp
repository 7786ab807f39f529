#include "io/scheduler.hpp"

#include <algorithm>
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
  bucket.push_back(std::move(io));
  ++size_;
}

bool IoScheduler::try_merge(PendingIo& io, Bucket& bucket) {
  auto target = std::find_if(bucket.begin(), bucket.end(),
                             [&](const PendingIo& q) { return mergeable(q, io); });
  if (target == bucket.end()) return false;
  merge_into(*target, std::move(io));
  // Cascade: the grown envelope may now bridge to further queued batches.
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

PendingIo IoScheduler::pop_next(disk::Lba head_position) {
  auto cls = classes_.begin();
  while (cls->second.empty()) cls = classes_.erase(cls);
  Bucket& bucket = cls->second;
  Bucket::iterator pick = bucket.begin();  // arrival order: class 0 never merges
  if (cls->first >= 1 || order_ == Order::kClook) {
    // CSCAN: the lowest LBA at or beyond the head, else wrap to the lowest.
    Bucket::iterator ahead = bucket.end();
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

}  // namespace trail::io
