#include "core/track_allocator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "audit/check.hpp"

namespace trail::core {

TrackRing::TrackRing(disk::TrackId track_count, std::vector<disk::TrackId> reserved)
    : track_count_(track_count), reserved_(std::move(reserved)) {
  std::sort(reserved_.begin(), reserved_.end());
  reserved_.erase(std::unique(reserved_.begin(), reserved_.end()), reserved_.end());
  reserved_.erase(std::lower_bound(reserved_.begin(), reserved_.end(), track_count_),
                  reserved_.end());
}

bool TrackRing::is_reserved(disk::TrackId track) const {
  return std::binary_search(reserved_.begin(), reserved_.end(), track);
}

bool TrackRing::contains(disk::TrackId track) const {
  return track < track_count_ && !is_reserved(track);
}

disk::TrackId TrackRing::track_at(std::size_t index) const {
  // Step past every reserved track at or below the candidate.
  auto track = static_cast<disk::TrackId>(index);
  for (const disk::TrackId r : reserved_) {
    if (r > track) break;
    ++track;
  }
  return track;
}

std::size_t TrackRing::index_of(disk::TrackId track) const {
  if (!contains(track)) throw std::out_of_range("TrackRing: track not on the ring");
  return track - static_cast<std::size_t>(
                     std::lower_bound(reserved_.begin(), reserved_.end(), track) -
                     reserved_.begin());
}

disk::TrackId TrackRing::next(disk::TrackId track) const {
  if (!contains(track)) throw std::out_of_range("TrackRing: track not on the ring");
  do track = (track + 1) % track_count_;
  while (is_reserved(track));
  return track;
}

TrackAllocator::TrackAllocator(const disk::Geometry& geometry,
                               std::vector<disk::TrackId> reserved)
    : geometry_(geometry), ring_(geometry.track_count(), std::move(reserved)) {
  if (ring_.size() < 2)
    throw std::invalid_argument("TrackAllocator: need at least two usable tracks");
  tail_ = ring_.track_at(0);
  live_.emplace(tail_, TrackState{std::vector<bool>(geometry_.spt_of_track(tail_), false), 0, 0});
}

TrackAllocator::TrackState& TrackAllocator::state(disk::TrackId track) {
  auto it = live_.find(track);
  if (it == live_.end()) throw std::logic_error("TrackAllocator: track has no live state");
  return it->second;
}

std::uint32_t TrackAllocator::current_spt() const { return geometry_.spt_of_track(tail_); }

std::optional<TrackAllocator::FreeRun> TrackAllocator::free_run_from(std::uint32_t from) const {
  auto it = live_.find(tail_);
  if (it == live_.end()) throw std::logic_error("TrackAllocator: tail has no state");
  const auto& occ = it->second.occupied;
  const auto spt = static_cast<std::uint32_t>(occ.size());
  for (std::uint32_t s = from; s < spt; ++s) {
    if (!occ[s]) {
      std::uint32_t len = 0;
      while (s + len < spt && !occ[s + len]) ++len;
      return FreeRun{s, len};
    }
  }
  return std::nullopt;
}

void TrackAllocator::occupy(std::uint32_t sector, std::uint32_t count, std::uint32_t records) {
  TrackState& st = state(tail_);
  if (sector + count > st.occupied.size())
    throw std::out_of_range("TrackAllocator::occupy: beyond end of track");
  for (std::uint32_t i = 0; i < count; ++i) {
    if (st.occupied[sector + i])
      throw std::logic_error("TrackAllocator::occupy: sector already occupied");
    st.occupied[sector + i] = true;
  }
  st.used += count;
  st.live_records += records;
}

double TrackAllocator::current_utilization() const {
  auto it = live_.find(tail_);
  if (it == live_.end()) throw std::logic_error("TrackAllocator: tail has no state");
  return static_cast<double>(it->second.used) / static_cast<double>(it->second.occupied.size());
}

std::optional<disk::TrackId> TrackAllocator::advance() {
  const disk::TrackId next = ring_.next(tail_);
  if (live_.contains(next)) return std::nullopt;  // ring exhausted: log full

  // Retire the current tail's statistics; free it right away if all its
  // records have already been committed.
  auto it = live_.find(tail_);
  if (it != live_.end()) {
    if (it->second.used > 0) {
      ++finished_tracks_;
      finished_used_sectors_ += it->second.used;
      finished_total_sectors_ += it->second.occupied.size();
    }
    if (it->second.live_records == 0) live_.erase(it);
  }

  ++advances_;
  tail_ = next;
  live_.emplace(tail_, TrackState{std::vector<bool>(geometry_.spt_of_track(tail_), false), 0, 0});
  return tail_;
}

void TrackAllocator::release_record(disk::TrackId track) {
  auto it = live_.find(track);
  if (it == live_.end() || it->second.live_records == 0)
    throw std::logic_error("TrackAllocator::release_record: no live records on track");
  --it->second.live_records;
  if (it->second.live_records == 0 && track != tail_) live_.erase(it);
}

void TrackAllocator::adopt_live_track(disk::TrackId track, std::uint32_t used_sectors,
                                      std::uint32_t records) {
  if (is_reserved(track)) throw std::invalid_argument("adopt_live_track: reserved track");
  const std::uint32_t spt = geometry_.spt_of_track(track);
  TrackState st{std::vector<bool>(spt, false), 0, 0};
  const std::uint32_t used = std::min(used_sectors, spt);
  // Recovery only knows how many sectors carry live data, not the exact
  // layout; conservatively mark a prefix (the track is never appended to
  // again, so only the live-record count matters).
  for (std::uint32_t i = 0; i < used; ++i) st.occupied[i] = true;
  st.used = used;
  st.live_records = records;
  live_[track] = std::move(st);
}

void TrackAllocator::set_tail_after(disk::TrackId track) { set_tail(ring_.next(track)); }

void TrackAllocator::set_tail(disk::TrackId track) {
  if (!ring_.contains(track)) throw std::invalid_argument("set_tail: track not usable");
  if (live_.contains(track) && live_.at(track).live_records > 0)
    throw std::logic_error("set_tail: track has live records");
  // Drop the old tail's state once it carries no live records: the
  // pristine initial tail, or an adopted track whose records have since
  // been written back.
  auto it = live_.find(tail_);
  if (it != live_.end() && it->second.live_records == 0) live_.erase(it);
  live_.erase(track);  // settled leftover state, if any
  tail_ = track;
  live_.emplace(tail_, TrackState{std::vector<bool>(geometry_.spt_of_track(tail_), false), 0, 0});
}

void TrackAllocator::audit(audit::Report& report) const {
  audit::Check& check = report.check("alloc.tracks");
  check.require(ring_.contains(tail_), "tail is not a usable track");
  check.require(live_.contains(tail_), "tail track has no occupancy state");
  for (const auto& [track, st] : live_) {
    const disk::Lba lba = geometry_.first_lba_of_track(track);
    check.require(!is_reserved(track), "reserved track carries live state", lba);
    if (!check.require(ring_.contains(track), "live state on a non-usable track", lba))
      continue;
    if (!check.require(st.occupied.size() == geometry_.spt_of_track(track),
                       "occupancy bitmap size disagrees with the track geometry", lba))
      continue;
    const auto used = static_cast<std::uint32_t>(
        std::count(st.occupied.begin(), st.occupied.end(), true));
    check.require(used == st.used, "used-sector count disagrees with the occupancy bitmap",
                  lba);
    // advance() / release_record() reclaim a settled track the moment it
    // stops being the tail.
    check.require(st.live_records > 0 || track == tail_,
                  "settled non-tail track not reclaimed", lba);
  }
}

double TrackAllocator::mean_finished_track_utilization() const {
  if (finished_total_sectors_ == 0) return 0.0;
  return static_cast<double>(finished_used_sectors_) /
         static_cast<double>(finished_total_sectors_);
}

}  // namespace trail::core
