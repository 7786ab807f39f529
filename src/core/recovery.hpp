// Crash recovery (§3.3, Fig. 4).
//
// Three phases, each timed separately for the Fig. 4 breakdown. The
// RecoveryManager runs the first two:
//
//  1. LOCATE the youngest active write record: per-track scans driven by
//     a binary search over each log disk's circular track ring. FIFO
//     track allocation guarantees that per-track newest (epoch,
//     sequence_id) keys form a circularly monotone sequence per disk
//     (gaps only beyond the stamped arc), so O(lg N) track scans find
//     each disk's maximum; the global youngest is the max across disks.
//     A sequential full scan exists both as the paper's baseline
//     (ablation) and as a defensive fallback.
//
//  2. REBUILD the pending-record set: walk prev_sect back from the
//     youngest record — across log disks via encoded log pointers — no
//     further than the youngest record's log_head bound. Torn tail
//     records (payload CRC mismatch — possible only for unacknowledged
//     final physical writes) are dropped.
//
//  3. WRITE BACK pending records to the data disks: the newest content
//     of every sector, once. This phase belongs to the mounting
//     TrailDriver, which adopts the records as live state on its own
//     write-back path and, by default, waits for them to drain before
//     resuming. Optional (Fig. 4b): it may instead resume service at
//     once, since a persistent copy already exists on the log disk.
//
// Locate and rebuild run as one asynchronous pipeline (DESIGN.md §12).
// Reads go through a per-unit io::DeviceQueue so the elevator can order
// what is outstanding: every unit's locate runs concurrently with one
// track scan in flight, and the rebuild walks the chain through a cache
// of read windows. A cached window serves a record only if it holds the
// header and the whole payload; otherwise the walk reads a window
// anchored at the record. The pipeline depth bounds only the rebuild's
// prefetch: once at least half of the chain's steps so far stayed on
// their track, a miss also reads up to depth-1 ring-backward whole
// tracks; 1 means no prefetch. Every depth locates identically, recovers
// the same pending set and leaves byte-identical images.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/format_tool.hpp"
#include "core/log_format.hpp"
#include "core/track_allocator.hpp"
#include "disk/disk_device.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace trail::io {
class DeviceQueue;
}

namespace trail::core {

struct RecoveredRecord {
  RecordHeader header;
  std::uint8_t log_unit = 0;
  disk::Lba header_lba = 0;
  disk::TrackId track = 0;
  /// Unescaped payload image, header.batch_size sectors.
  std::vector<std::byte> payload;
};

struct RecoveryStats {
  sim::Duration locate_time;
  std::uint32_t tracks_scanned = 0;
  bool sequential_fallback = false;
  sim::Duration rebuild_time;
  std::uint32_t records_found = 0;
  std::uint32_t records_dropped_torn = 0;
  /// record_key of the oldest torn record dropped in phase 2 (torn records
  /// are always the newest on their log, so this is the earliest point at
  /// which this log's history is incomplete). Valid only when
  /// records_dropped_torn > 0. A sharded mount takes the minimum across
  /// shards as the global consistency cut.
  std::uint64_t oldest_torn_key = 0;
  /// Intact records discarded by a sharded mount's cross-shard
  /// consistency cut (mount_finish_async's cut_before). Always 0 for a
  /// standalone driver.
  std::uint32_t records_cut = 0;
  /// Phase 3, filled in by the mounting driver when it writes back:
  /// adoption to drain, and the distinct data sectors written.
  sim::Duration writeback_time;
  std::uint64_t sectors_written_back = 0;
};

class RecoveryManager {
 public:
  /// Probes used to find a binary-search anchor before falling back.
  static constexpr std::size_t kAnchorProbes = 64;

  RecoveryManager(sim::Simulator& sim, std::vector<disk::DiskDevice*> log_disks);
  ~RecoveryManager();

  /// Optional observability: per-phase spans ("recovery.locate" /
  /// "recovery.rebuild"), a per-track-scan probe instant, and
  /// track/record counters on the recovery lane. The prefix and lane let
  /// a sharded mount scope each shard's recovery (prefix "shard.k.", a
  /// lane inside the shard's tid block).
  void attach_obs(obs::Obs* obs, std::string metric_prefix = "",
                  std::uint32_t tid = obs::kRecoveryTid) {
    obs_ = obs;
    metric_prefix_ = std::move(metric_prefix);
    tid_ = tid;
  }

  struct Outcome {
    RecoveryStats stats;
    /// Pending records in ascending key order. Non-empty payloads.
    std::vector<RecoveredRecord> pending;
  };

  /// Start phases 1–2 (locate + rebuild) for the crashed epoch and
  /// return; `done` fires (from a device completion) with the pending
  /// records. Records of *earlier* epochs can also be pending when a
  /// previous recovery adopted them instead of writing them back, so the
  /// epoch is an upper bound and ordering uses record_key. Never steps
  /// the simulator itself, so a sharded mount can start every shard's
  /// recovery and let them interleave on virtual time.
  /// `sequential_locate` and `pipeline_depth` are
  /// TrailConfig::recovery_sequential_locate and recovery_pipeline_depth.
  void start(std::uint32_t target_epoch, bool sequential_locate, std::uint32_t pipeline_depth,
             std::function<void(Outcome)> done);

 private:
  struct Unit {
    disk::DiskDevice* device = nullptr;
    TrackRing ring;
  };
  struct TrackKey {
    bool present = false;
    std::uint64_t key = 0;  // record_key(epoch, sequence_id)
    std::uint8_t unit = 0;
    disk::Lba header_lba = 0;
  };
  struct Pipe;  // the locate + rebuild pipeline (defined in recovery.cpp)

  sim::Simulator& sim_;
  std::vector<Unit> units_;
  obs::Obs* obs_ = nullptr;
  std::string metric_prefix_;
  std::uint32_t tid_ = obs::kRecoveryTid;
  std::shared_ptr<Pipe> pipe_;
  /// Read queues for the locate/rebuild pipeline. Owned here, not by the
  /// Pipe: a queue completion may release the last Pipe reference while
  /// the queue's pump() is still on the stack, so the queue must outlive
  /// the Pipe.
  std::vector<std::unique_ptr<io::DeviceQueue>> read_queues_;
};

}  // namespace trail::core
