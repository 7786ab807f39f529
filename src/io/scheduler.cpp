#include "io/scheduler.hpp"

#include <algorithm>
#include <list>
#include <map>

namespace trail::io {

namespace {

/// Shared base: requests bucketed by priority class; subclasses define the
/// in-class pick rule.
class SchedulerBase : public IoScheduler {
 public:
  void push(PendingIo io) override {
    classes_[io.priority].push_back(std::move(io));
    ++size_;
  }
  [[nodiscard]] bool empty() const override { return size_ == 0; }
  [[nodiscard]] std::size_t size() const override { return size_; }

  PendingIo pop_next(disk::Lba head_position) override {
    auto it = classes_.begin();
    while (it != classes_.end() && it->second.empty()) it = classes_.erase(it);
    PendingIo io = pick(it->first, it->second, head_position);
    --size_;
    return io;
  }

 protected:
  using Bucket = std::list<PendingIo>;
  virtual PendingIo pick(int priority, Bucket& bucket, disk::Lba head_position) = 0;

  static PendingIo pick_fifo(Bucket& bucket) {
    auto it = std::min_element(bucket.begin(), bucket.end(),
                               [](const PendingIo& a, const PendingIo& b) { return a.seq < b.seq; });
    PendingIo io = std::move(*it);
    bucket.erase(it);
    return io;
  }

  static PendingIo pick_cscan(Bucket& bucket, disk::Lba head_position) {
    // Next LBA at or beyond the head, else wrap to the smallest LBA.
    Bucket::iterator best = bucket.end();
    Bucket::iterator smallest = bucket.begin();
    for (auto it = bucket.begin(); it != bucket.end(); ++it) {
      if (it->lba < smallest->lba) smallest = it;
      if (it->lba >= head_position && (best == bucket.end() || it->lba < best->lba)) best = it;
    }
    if (best == bucket.end()) best = smallest;
    PendingIo io = std::move(*best);
    bucket.erase(best);
    return io;
  }

  [[nodiscard]] Bucket* bucket_for(int priority) {
    auto it = classes_.find(priority);
    return it == classes_.end() ? nullptr : &it->second;
  }

  void drop_queued(Bucket& bucket, Bucket::iterator it) {
    bucket.erase(it);
    --size_;
  }

 private:
  std::map<int, Bucket> classes_;
  std::size_t size_ = 0;
};

class FifoScheduler final : public SchedulerBase {
 protected:
  PendingIo pick(int /*priority*/, Bucket& bucket, disk::Lba /*head_position*/) override {
    return pick_fifo(bucket);
  }
};

class ClookScheduler final : public SchedulerBase {
 protected:
  PendingIo pick(int /*priority*/, Bucket& bucket, disk::Lba head_position) override {
    return pick_cscan(bucket, head_position);
  }
};

/// Most constituent dirty ranges one coalesced write-back command carries.
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
  target.seq = std::min(target.seq, io.seq);
  for (auto& r : io.ranges) target.ranges.push_back(std::move(r));
  if (!target.on_dispatch) target.on_dispatch = std::move(io.on_dispatch);
}

/// Trail data-disk policy: reads (and recovery writes) at class 0 drain in
/// arrival order before any write-back; write-back classes are CSCAN-swept
/// by envelope LBA and coalesce in-queue.
class WritebackScheduler final : public SchedulerBase {
 public:
  bool try_merge(PendingIo& io) override {
    if (io.ranges.empty()) return false;
    Bucket* bucket = bucket_for(io.priority);
    if (bucket == nullptr) return false;
    Bucket::iterator target = bucket->end();
    for (auto it = bucket->begin(); it != bucket->end(); ++it) {
      if (mergeable(*it, io)) {
        target = it;
        break;
      }
    }
    if (target == bucket->end()) return false;
    merge_into(*target, std::move(io));
    // Cascade: the grown envelope may now bridge to further queued batches.
    bool merged = true;
    while (merged) {
      merged = false;
      for (auto it = bucket->begin(); it != bucket->end(); ++it) {
        if (it == target || !mergeable(*target, *it)) continue;
        PendingIo other = std::move(*it);
        drop_queued(*bucket, it);
        merge_into(*target, std::move(other));
        merged = true;
        break;
      }
    }
    return true;
  }

 protected:
  PendingIo pick(int priority, Bucket& bucket, disk::Lba head_position) override {
    if (priority <= 0) return pick_fifo(bucket);
    return pick_cscan(bucket, head_position);
  }
};

}  // namespace

std::unique_ptr<IoScheduler> make_fifo_scheduler() { return std::make_unique<FifoScheduler>(); }
std::unique_ptr<IoScheduler> make_clook_scheduler() { return std::make_unique<ClookScheduler>(); }
std::unique_ptr<IoScheduler> make_writeback_scheduler() {
  return std::make_unique<WritebackScheduler>();
}

}  // namespace trail::io
