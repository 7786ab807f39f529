#include "core/recovery.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/crc32.hpp"
#include "io/device_queue.hpp"
#include "sim/steps.hpp"

namespace trail::core {

RecoveryManager::RecoveryManager(sim::Simulator& sim, std::vector<disk::DiskDevice*> log_disks)
    : sim_(sim) {
  if (log_disks.empty() || log_disks.size() > kMaxLogUnits)
    throw std::invalid_argument("RecoveryManager: 1..15 log disks required");
  for (disk::DiskDevice* device : log_disks) {
    const disk::Geometry& geom = device->geometry();
    units_.push_back(Unit{device, TrackRing(geom.track_count(),
                                            LogDiskLayout(geom).reserved_tracks())});
  }
}

// ---------------------------------------------------------------------------
// Locate + rebuild pipeline.
//
// Reads are submitted through a per-unit C-LOOK DeviceQueue. Every unit's
// locate runs concurrently, and each keeps one track scan in flight, as
// §3.3's binary search reads one track after another: grid probes until
// one anchors, then the rotated binary search, or the sequential scan
// when nothing anchors. The rebuild walks the chain through a cache of
// read windows: a miss fetches a window anchored at the record and, once
// the chain shows its tracks hold several records, up to depth-1
// ring-backward whole tracks, which C-LOOK serves as one ascending
// forward sweep — the fast direction — while the walk consumes parsed
// records out of the cache at zero cost. depth == 1 is the same machine
// with no prefetch. The locate does not depend on depth at all, and the
// rebuilt chain is depth-invariant: the walk consumes the same sectors.
// ---------------------------------------------------------------------------
struct RecoveryManager::Pipe : std::enable_shared_from_this<RecoveryManager::Pipe> {
  explicit Pipe(RecoveryManager& mgr) : m(mgr) {}

  RecoveryManager& m;
  std::uint32_t target_epoch = 0;
  bool sequential_locate = false;
  std::uint32_t depth = 1;
  std::function<void(Outcome)> done;
  Outcome outcome;
  bool failed = false;

  std::uint32_t inflight = 0;
  std::uint32_t max_inflight = 0;

  // ---- phase 1 state ----
  sim::TimePoint locate_start{};
  std::optional<obs::ScopedSpan> locate_span;
  /// One unit's locate. Offsets (lo, hi, slo, shi) count clockwise ring
  /// positions from the anchor; during the bisect, `result` is the key
  /// at offset lo.
  struct Loc {
    std::uint8_t unit = 0;
    std::size_t n = 0;     // usable ring size
    std::size_t next = 0;  // next grid probe, then next sequential-scan index
    std::size_t anchor_idx = 0;
    TrackKey anchor_key;  // present once a grid probe anchored
    std::size_t lo = 0, hi = 0;
    std::size_t slo = 0, shi = 0;
    TrackKey slo_key;
    TrackKey result;
  };
  std::vector<Loc> loc;
  std::size_t loc_units_done = 0;

  // ---- phase 2 state ----
  sim::TimePoint rebuild_start{};
  std::optional<obs::ScopedSpan> rebuild_span;
  bool walk_done = false;
  std::uint8_t unit = 0;
  disk::Lba lba = 0;
  bool have_bound = false;
  std::uint32_t bound_ptr = 0;
  std::uint64_t prev_key = 0;
  std::vector<RecoveredRecord> chain;  // youngest -> oldest

  static constexpr disk::TrackId kNoTrack = static_cast<disk::TrackId>(-1);
  /// One read command's image; every window it covers points into it.
  struct Fetch {
    std::vector<std::byte> image;
    bool ready = false;
  };
  /// Sectors [base, base + count) of one track, `off` bytes into `fetch`.
  struct Window {
    disk::Lba base = 0;
    std::uint32_t count = 0;
    std::size_t off = 0;
    std::shared_ptr<Fetch> fetch;
  };
  std::map<std::pair<std::uint8_t, disk::TrackId>, Window> cache;
  std::vector<disk::TrackId> walk_track;  // per unit: track the walk last consumed
  std::uint64_t same_track_steps = 0;     // chain steps whose prev_sect stays on the track

  [[noreturn]] void fail(const char* msg) {
    failed = true;
    throw std::runtime_error(msg);
  }

  // ---- read submission ----
  /// `cb` must own the buffer behind `out`: the queue holds it until the
  /// read completes.
  void issue_read(std::uint8_t u, disk::Lba rlba, std::uint32_t count, std::span<std::byte> out,
                  std::function<void()> cb) {
    ++inflight;
    if (inflight > max_inflight) {
      max_inflight = inflight;
      if (m.obs_ != nullptr)
        m.obs_->metrics.gauge(m.metric_prefix_ + "recovery.inflight_reads").set(max_inflight);
    }
    io::PendingIo io;
    io.lba = rlba;
    io.count = count;
    io.out = out;
    // weak: the queues live for the manager's lifetime, so a shared self
    // here would pin the Pipe forever when a corrupt chain aborts the
    // walk with entries still queued.
    io.on_complete = [weak = weak_from_this(), cb = std::move(cb)]() mutable {
      const auto self = weak.lock();
      if (!self) return;
      --self->inflight;
      if (self->failed) return;
      cb();
    };
    m.read_queues_[u]->submit(std::move(io));
  }

  void note_scan(disk::TrackId track) {
    ++outcome.stats.tracks_scanned;
    if (m.obs_ != nullptr) {
      m.obs_->metrics.counter(m.metric_prefix_ + "recovery.tracks_scanned").inc();
      if (m.obs_->tracer.enabled())
        m.obs_->tracer.instant_value("recovery.probe", "recovery", track, m.tid_);
    }
  }

  /// Read + parse the track at ring index `index`; hand the newest
  /// in-epoch key to `cb`.
  void scan_async(std::uint8_t u, std::size_t index, std::function<void(TrackKey)> cb) {
    const Unit& un = m.units_[u];
    const disk::TrackId track = un.ring.track_at(index);
    const disk::Geometry& geom = un.device->geometry();
    const std::uint32_t spt = geom.spt_of_track(track);
    const disk::Lba base = geom.first_lba_of_track(track);
    auto buf =
        std::make_shared<std::vector<std::byte>>(static_cast<std::size_t>(spt) * disk::kSectorSize);
    std::span<std::byte> out(*buf);
    issue_read(u, base, spt, out, [this, u, track, base, spt, buf, cb = std::move(cb)] {
                 note_scan(track);
                 TrackKey best;
                 for (std::uint32_t s = 0; s < spt; ++s) {
                   const std::span<const std::byte> sector(
                       buf->data() + static_cast<std::size_t>(s) * disk::kSectorSize,
                       disk::kSectorSize);
                   const auto hdr = parse_record_header(sector);
                   if (!hdr || hdr->epoch > target_epoch) continue;
                   if (!best.present || record_key(*hdr) > best.key) {
                     best.present = true;
                     best.key = record_key(*hdr);
                     best.unit = u;
                     best.header_lba = base + s;
                   }
                 }
                 cb(best);
               });
  }

  /// Scan the track `offset` ring positions clockwise from the anchor.
  void scan_offset(const Loc& L, std::size_t offset, std::function<void(TrackKey)> cb) {
    scan_async(L.unit, (L.anchor_idx + offset) % L.n, std::move(cb));
  }

  // ---- phase 1: locate ----
  void start_locate() {
    locate_start = m.sim_.now();
    locate_span.emplace(m.obs_ != nullptr ? &m.obs_->tracer : nullptr, "recovery.locate",
                        "recovery", m.tid_);
    loc.resize(m.units_.size());  // never resized again: the chains hold Loc&
    for (std::size_t u = 0; u < loc.size(); ++u) {
      loc[u].unit = static_cast<std::uint8_t>(u);
      loc[u].n = m.units_[u].ring.size();
    }
    for (Loc& L : loc) locate_unit(L);
  }

  /// Grid probes until one finds an in-epoch record, then the rotated
  /// binary search. A short or empty log anchors nowhere and falls back
  /// to the sequential scan, as does the ablation.
  void locate_unit(Loc& L) {
    const std::size_t probes = sequential_locate ? 0 : std::min(kAnchorProbes, L.n);
    sim::loop_while(
        [&L, probes] { return !L.anchor_key.present && L.next < probes; },
        [this, &L, probes](sim::Next next) {
          const std::size_t idx = L.next++ * L.n / probes;
          scan_async(L.unit, idx, [&L, idx, next](TrackKey key) {
            if (key.present) {
              L.anchor_idx = idx;
              L.anchor_key = key;
            }
            next();
          });
        },
        [this, &L](bool) {
          if (L.anchor_key.present)
            bisect(L);
          else
            scan_all(L);
        });
  }

  /// Rotated binary search for the last clockwise offset from the anchor
  /// whose track key is >= the anchor's.
  void bisect(Loc& L) {
    L.lo = 0;
    L.result = L.anchor_key;
    L.hi = L.n;
    sim::loop_while(
        [&L] { return L.hi - L.lo > 1; },
        [this, &L](sim::Next next) {
          const std::size_t mid = L.lo + (L.hi - L.lo) / 2;
          scan_offset(L, mid, [this, &L, mid, next](TrackKey key) {
            if (key.present) {
              narrow(L, mid, key);
              next();
            } else {
              bisect_gap(L, mid, next);
            }
          });
        },
        [this](bool) { finish_unit(); });
  }

  /// `mid` was never stamped: bisect for the last stamped offset in
  /// (lo, mid] — "stamped?" is monotone there (one circular arc) — then
  /// continue the outer search with `next`.
  void bisect_gap(Loc& L, std::size_t mid, sim::Next next) {
    L.slo = L.lo;
    L.shi = mid;
    L.slo_key = TrackKey{};
    sim::loop_while(
        [&L] { return L.shi - L.slo > 1; },
        [this, &L](sim::Next step) {
          const std::size_t pos = L.slo + (L.shi - L.slo) / 2;
          scan_offset(L, pos, [&L, pos, step](TrackKey key) {
            if (key.present) {
              L.slo = pos;
              L.slo_key = key;
            } else {
              L.shi = pos;
            }
            step();
          });
        },
        [this, &L, next = std::move(next)](bool) {
          if (L.slo == L.lo)
            L.hi = L.lo + 1;  // nothing stamped in (lo, mid]: the arc ends at lo
          else
            narrow(L, L.slo, L.slo_key);
          next();
        });
  }

  void narrow(Loc& L, std::size_t offset, const TrackKey& key) {
    if (key.key >= L.anchor_key.key) {
      L.lo = offset;
      L.result = key;
    } else {
      L.hi = offset;
    }
  }

  /// Every track of the ring in order: the paper's O(N) baseline.
  void scan_all(Loc& L) {
    outcome.stats.sequential_fallback = true;
    L.next = 0;
    sim::loop_while(
        [&L] { return L.next < L.n; },
        [this, &L](sim::Next next) {
          scan_async(L.unit, L.next++, [&L, next](TrackKey key) {
            if (key.present && (!L.result.present || key.key > L.result.key)) L.result = key;
            next();
          });
        },
        [this](bool) { finish_unit(); });
  }

  void finish_unit() {
    if (++loc_units_done == loc.size()) finish_locate();
  }

  void finish_locate() {
    outcome.stats.locate_time = m.sim_.now() - locate_start;
    locate_span->finish();
    TrackKey youngest;
    for (const Loc& L : loc)
      if (L.result.present && (!youngest.present || L.result.key > youngest.key))
        youngest = L.result;
    if (!youngest.present) {
      complete();  // nothing was logged in the crashed epoch
      return;
    }
    start_rebuild(youngest);
  }

  // ---- phase 2: rebuild ----
  void start_rebuild(const TrackKey& youngest) {
    rebuild_start = m.sim_.now();
    rebuild_span.emplace(m.obs_ != nullptr ? &m.obs_->tracer : nullptr, "recovery.rebuild",
                         "recovery", m.tid_);
    unit = youngest.unit;
    lba = youngest.header_lba;
    walk_track.assign(m.units_.size(), kNoTrack);
    resume_streaming();
  }

  /// Chain-walk step: validate + classify one record, push it when
  /// intact, and advance (unit, lba) or mark the walk done.
  void step_record(const RecordHeader& hdr, std::vector<std::byte> payload,
                   std::uint32_t payload_crc) {
    RecoveryStats& stats = outcome.stats;
    if (!chain.empty() || stats.records_dropped_torn > 0) {
      if (record_key(hdr) >= prev_key) fail("recovery: record keys not decreasing along chain");
    }
    prev_key = record_key(hdr);
    const bool intact = payload_crc == hdr.payload_crc;
    if (!intact) {
      // Only the final (unacknowledged) physical write can be torn; by
      // then we must not have collected any intact newer record.
      if (!chain.empty()) fail("recovery: torn record below an intact one");
      ++stats.records_dropped_torn;
      // Keys strictly decrease along the walk, so the last torn record
      // seen carries the oldest torn key.
      stats.oldest_torn_key = record_key(hdr);
    } else {
      if (!have_bound) {
        // The newest *intact* record's log_head bounds the backward walk.
        have_bound = true;
        bound_ptr = hdr.log_head;
      }
      RecoveredRecord rec;
      rec.log_unit = unit;
      rec.header_lba = lba;
      rec.track = m.units_.at(unit).device->geometry().track_of_lba(lba);
      // Restore the original first byte of every payload sector.
      for (std::uint32_t i = 0; i < hdr.batch_size; ++i)
        unescape_payload_sector(
            std::span<std::byte>(payload.data() + static_cast<std::size_t>(i) * disk::kSectorSize,
                                 disk::kSectorSize),
            hdr.entries[i].first_data_byte);
      rec.payload = std::move(payload);
      rec.header = hdr;
      chain.push_back(std::move(rec));
    }
    const std::uint32_t self_ptr = encode_log_ptr(unit, static_cast<std::uint32_t>(lba));
    if ((have_bound && self_ptr == bound_ptr)    // reached the oldest live record
        || hdr.prev_sect == kNoPrevRecord) {     // first record of the epoch
      walk_done = true;
      return;
    }
    const std::uint8_t next_unit = log_ptr_unit(hdr.prev_sect);
    if (next_unit >= m.units_.size()) fail("recovery: prev_sect names an unknown log disk");
    const Unit& next = m.units_[next_unit];
    const disk::Lba next_lba = log_ptr_lba(hdr.prev_sect);
    const disk::Geometry& geom = next.device->geometry();
    if (next_lba >= geom.total_sectors() || !next.ring.contains(geom.track_of_lba(next_lba)))
      fail("recovery: prev_sect names a sector outside the log ring");
    if (next_unit == unit && geom.track_of_lba(next_lba) == geom.track_of_lba(lba))
      ++same_track_steps;
    unit = next_unit;
    lba = next_lba;
  }

  /// Validate a chain header.
  RecordHeader parse_chain_header(std::span<const std::byte> sector) {
    const auto hdr = parse_record_header(sector);
    if (!hdr || hdr->epoch > target_epoch)
      fail("recovery: prev_sect chain reached an invalid record header");
    return *hdr;
  }

  // The walk consumes parsed records out of the window cache. A cached
  // window serves a record only if it holds the header and the whole
  // payload; otherwise the walk drops it and fetches a window anchored at
  // the record, which holds all of it because no record crosses its track.
  void resume_streaming() {
    for (;;) {
      if (walk_done) {
        if (inflight == 0) finish_rebuild();  // else: prefetch stragglers drain first
        return;
      }
      const disk::Geometry& geom = m.units_.at(unit).device->geometry();
      const disk::TrackId track = geom.track_of_lba(lba);
      const auto it = cache.find(std::make_pair(unit, track));
      if (it != cache.end()) {
        const Window& w = it->second;
        if (!w.fetch->ready) return;  // its completion resumes us
        // Demanded windows are anchored at the record that missed, and
        // track reuse after freeing makes in-track placement non-monotone,
        // so a revisit can land on either side of a cached window.
        if (holds(w, lba, 1)) {
          // The walk rarely returns to a consumed track (see above), so the
          // previous one is almost always dead; evicting it bounds the cache.
          if (walk_track[unit] != kNoTrack && walk_track[unit] != track)
            cache.erase(std::make_pair(unit, walk_track[unit]));
          walk_track[unit] = track;
          const std::byte* at = w.fetch->image.data() + w.off +
                                static_cast<std::size_t>(lba - w.base) * disk::kSectorSize;
          const RecordHeader hdr =
              parse_chain_header(std::span<const std::byte>(at, disk::kSectorSize));
          // The writer places every record inside one free run of one track.
          if (lba + 1 + hdr.batch_size >
              geom.first_lba_of_track(track) + geom.spt_of_track(track))
            fail("recovery: record payload crosses its track");
          if (holds(w, lba, 1 + hdr.batch_size)) {
            const std::span<const std::byte> payload(at + disk::kSectorSize,
                                                     hdr.batch_size * disk::kSectorSize);
            step_record(hdr, std::vector<std::byte>(payload.begin(), payload.end()),
                        crc32(payload));
            continue;
          }
        }
        cache.erase(it);
      }
      demand_fetch(unit, track);
      return;
    }
  }

  static bool holds(const Window& w, disk::Lba first, std::uint32_t sectors) {
    return first >= w.base && first + sectors <= w.base + w.count;
  }

  /// The walk missed at (u, lba): read [record, record + payload bound),
  /// clamped to the track — Trail stamps records at rotationally chosen
  /// offsets, so no cheaper anchored range is sure to hold the record —
  /// plus, when the prefetch gate is open, up to depth-1 ring-backward
  /// whole tracks.
  void demand_fetch(std::uint8_t u, disk::TrackId track) {
    const Unit& un = m.units_[u];
    const disk::Geometry& geom = un.device->geometry();
    const auto window = static_cast<std::uint32_t>(std::min<disk::Lba>(
        1 + kMaxTrailBatch, geom.first_lba_of_track(track) + geom.spt_of_track(track) - lba));
    fetch(u, lba, window, {track});
    // Ring-backward prefetch of *full* older tracks pays one transfer-
    // rate sweep to avoid a rotational wait per record — worth it only
    // when tracks hold several records. Open it once at least half the
    // chain's steps so far stayed on their track, so a one-record-per-
    // track log pays one window per record.
    const std::uint64_t records_seen = chain.size() + outcome.stats.records_dropped_torn;
    if (records_seen == 0 || 2 * same_track_steps < records_seen) return;
    // The walk only visits ring tracks: step_record refuses any other
    // prev_sect.
    std::vector<disk::TrackId> batch;
    const std::size_t n = un.ring.size();
    const std::size_t pos = un.ring.index_of(track);
    for (std::size_t back = 1; back < depth && back < n; ++back) {
      const disk::TrackId t = un.ring.track_at((pos + n - back) % n);
      if (!cache.contains(std::make_pair(u, t))) batch.push_back(t);
    }
    // Ascending physical order, adjacent tracks fused into one command:
    // the sweep crosses track boundaries on the skew and streams at
    // transfer rate instead of re-reaching sector 0 on every track.
    std::sort(batch.begin(), batch.end());
    std::size_t i = 0;
    while (i < batch.size()) {
      std::size_t j = i + 1;
      while (j < batch.size() && batch[j] == batch[j - 1] + 1) ++j;
      const disk::Lba base = geom.first_lba_of_track(batch[i]);
      const disk::Lba end =
          geom.first_lba_of_track(batch[j - 1]) + geom.spt_of_track(batch[j - 1]);
      fetch(u, base, static_cast<std::uint32_t>(end - base),
            std::vector<disk::TrackId>(batch.begin() + static_cast<std::ptrdiff_t>(i),
                                       batch.begin() + static_cast<std::ptrdiff_t>(j)));
      i = j;
    }
  }

  /// One read command of `count` sectors from `base`, cached as one window
  /// per track of `tracks` (ascending, physically contiguous), each a view
  /// into the shared image.
  void fetch(std::uint8_t u, disk::Lba base, std::uint32_t count,
             const std::vector<disk::TrackId>& tracks) {
    const disk::Geometry& geom = m.units_[u].device->geometry();
    auto f = std::make_shared<Fetch>();
    f->image.resize(static_cast<std::size_t>(count) * disk::kSectorSize);
    for (const disk::TrackId t : tracks) {
      const disk::Lba lo = std::max(base, geom.first_lba_of_track(t));
      const disk::Lba hi =
          std::min(base + count, geom.first_lba_of_track(t) + geom.spt_of_track(t));
      cache.insert_or_assign(std::make_pair(u, t),
                             Window{lo, static_cast<std::uint32_t>(hi - lo),
                                    static_cast<std::size_t>(lo - base) * disk::kSectorSize, f});
    }
    issue_read(u, base, count, f->image, [this, f, count] {
      if (m.obs_ != nullptr) {
        m.obs_->metrics.counter(m.metric_prefix_ + "recovery.stream_commands").inc();
        m.obs_->metrics.counter(m.metric_prefix_ + "recovery.stream_sectors").inc(count);
      }
      f->ready = true;
      resume_streaming();
    });
  }

  void finish_rebuild() {
    std::reverse(chain.begin(), chain.end());  // ascending key
    outcome.stats.records_found = static_cast<std::uint32_t>(chain.size());
    outcome.stats.rebuild_time = m.sim_.now() - rebuild_start;
    rebuild_span->finish();
    outcome.pending = std::move(chain);
    if (m.obs_ != nullptr) {
      m.obs_->metrics.counter(m.metric_prefix_ + "recovery.records_found")
          .inc(outcome.stats.records_found);
      // Leave a flight-recorder trail of what was rebuilt: one summary per
      // recovered record (id = sequence, shard = log unit), flagged
      // kFlagRecovered so a post-recovery dump separates replay from new
      // traffic.
      for (const RecoveredRecord& rec : outcome.pending) {
        obs::FlightRecord fr;
        fr.id = rec.header.sequence_id;
        fr.shard = rec.log_unit;
        fr.sectors = rec.header.batch_size;
        fr.flags = obs::FlightRecord::kFlagRecovered;
        fr.submit_ns = m.sim_.now().ns();
        m.obs_->flight.push(fr);
      }
    }
    complete();
  }

  void complete() {
    auto d = std::move(done);
    Outcome out = std::move(outcome);
    m.pipe_.reset();  // the caller's shared_ptr keeps us alive through d()
    d(std::move(out));
  }
};

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

// The pipeline references the manager back; if the manager dies with
// reads still in flight, the orphaned completions (which keep the state
// block alive via shared_ptr) must become no-ops.
RecoveryManager::~RecoveryManager() {
  if (pipe_) pipe_->failed = true;
}

void RecoveryManager::start(std::uint32_t target_epoch, bool sequential_locate,
                            std::uint32_t pipeline_depth, std::function<void(Outcome)> done) {
  pipe_ = std::make_shared<Pipe>(*this);
  Pipe& p = *pipe_;
  p.target_epoch = target_epoch;
  p.sequential_locate = sequential_locate;
  p.depth = std::max<std::uint32_t>(1, pipeline_depth);
  p.done = std::move(done);
  // Recreate the read queues per start: a previous aborted recovery may
  // have left dead entries (whose weak Pipe references no longer lock).
  read_queues_.clear();
  for (Unit& unit : units_)
    read_queues_.push_back(std::make_unique<io::DeviceQueue>(*unit.device, io::Order::kClook));
  if (obs_ != nullptr)
    obs_->metrics.gauge(metric_prefix_ + "recovery.pipeline_depth").set(p.depth);
  p.start_locate();
}

}  // namespace trail::core
