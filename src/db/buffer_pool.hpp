// Database buffer cache: a single pool of 4 KB frames over all page
// files (the paper's "database buffer cache, which is set to 300 MBytes"
// — sized down here and made configurable so data-disk read traffic
// appears at realistic ratios).
//
// Policy notes:
//  * LRU eviction over unpinned frames.
//  * NO-STEAL: frames pinned by an in-flight transaction are never
//    evicted or checkpoint-flushed, so pages on disk only ever contain
//    committed data and crash recovery is redo-only.
//  * WAL rule: every page write (eviction or checkpoint) flushes the WAL
//    through the frame's flush LSN first.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "db/page_file.hpp"
#include "db/types.hpp"
#include "db/wal.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace trail::audit {
class Report;
}

namespace trail::db {

struct BufferPoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_writebacks = 0;  // eviction-driven page writes
  std::uint64_t checkpoint_writes = 0;
};

class BufferPool {
 public:
  /// `wal` may be null (no WAL rule enforcement — tests only).
  BufferPool(sim::Simulator& sim, std::size_t capacity_pages, LogManager* wal = nullptr);
  ~BufferPool() { *alive_ = false; }

  std::uint32_t register_file(PageFile& file);

  /// Optional observability: hit/miss/eviction counters, a resident-page
  /// gauge, page-load spans and dirty-eviction instants on the cache lane.
  void attach_obs(obs::Obs* obs);

  /// Fetch a page and hand its frame bytes to `use`. The span is valid
  /// for the duration of the callback only; to mutate, write through it
  /// and call mark_dirty before returning.
  void fetch(std::uint32_t file_id, PageNo page,
             std::function<void(std::span<std::byte>)> use);

  void mark_dirty(std::uint32_t file_id, PageNo page);

  /// NO-STEAL pins: a pinned frame is not evicted or checkpoint-flushed.
  void pin(std::uint32_t file_id, PageNo page);
  void unpin(std::uint32_t file_id, PageNo page);

  /// Write every dirty unpinned frame to disk; `done` fires when all are
  /// on disk (checkpoint phase 2 — WAL must already be flushed).
  void flush_dirty(std::function<void()> done);

  /// Drop every frame (boot / after offline recovery rewrote the disk).
  void reset();

  /// Invariant audit ("pool.frames"): LRU <-> frame-map agreement, frame
  /// sizing, WAL-rule flush LSNs. With `quiescent` (post-checkpoint, no
  /// transaction active) additionally requires zero pins and no frame
  /// mid-load/mid-flush. See DESIGN.md §9.
  void audit(audit::Report& report, bool quiescent = false) const;

  [[nodiscard]] const BufferPoolStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t resident_pages() const { return frames_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t dirty_pages() const;

 private:
  struct FrameKey {
    std::uint32_t file;
    PageNo page;
    bool operator==(const FrameKey&) const = default;
  };
  struct FrameKeyHash {
    std::size_t operator()(const FrameKey& k) const {
      return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(k.file) << 32) | k.page);
    }
  };
  struct Frame {
    std::vector<std::byte> data;
    bool dirty = false;
    /// Bumped by every mark_dirty. A page write clears `dirty` at
    /// completion only if this still equals its value at submit: a
    /// rewrite while the write is in flight keeps the frame dirty.
    std::uint64_t write_gen = 0;
    Lsn flush_lsn = 0;  // WAL must be durable to here before page write
    bool loading = false;
    bool flushing = false;
    std::uint32_t pins = 0;
    std::vector<std::function<void(std::span<std::byte>)>> waiters;  // during load
    std::list<FrameKey>::iterator lru_pos;
  };

  using FrameMap = std::unordered_map<FrameKey, std::unique_ptr<Frame>, FrameKeyHash>;

  void touch(const FrameKey& key, Frame& frame);
  void maybe_evict();
  /// Evict a resident frame and count it.
  void drop(FrameMap::iterator it);
  /// The one page write (eviction and checkpoint): mark the frame
  /// flushing, flush the WAL through its flush_lsn, write the page, clear
  /// `dirty` unless a mark_dirty raced the write, then run `then`.
  void write_back(const FrameKey& key, Frame& frame, std::function<void()> then);
  Frame& frame_at(std::uint32_t file_id, PageNo page);

  sim::Simulator& sim_;
  std::size_t capacity_;
  LogManager* wal_;
  std::vector<PageFile*> files_;
  FrameMap frames_;
  std::list<FrameKey> lru_;  // front = most recent
  BufferPoolStats stats_;
  obs::Obs* obs_ = nullptr;
  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_dirty_wb_ = nullptr;
  obs::Gauge* g_resident_ = nullptr;
  /// Guards outstanding device completions across host-crash teardown.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace trail::db
