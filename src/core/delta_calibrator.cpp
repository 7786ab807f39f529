#include "core/delta_calibrator.hpp"

#include <stdexcept>

namespace trail::core {

DeltaCalibrator::Result DeltaCalibrator::run(sim::Simulator& sim, disk::DiskDevice& device,
                                             disk::TrackId probe_track, std::uint32_t max_delta) {
  const disk::Geometry& geom = device.geometry();
  const std::uint32_t spt = geom.spt_of_track(probe_track);
  if (max_delta > spt - 2) max_delta = spt - 2;
  const disk::Lba track_base = geom.first_lba_of_track(probe_track);

  // The success discriminator: a probe that did not pay (almost) a full
  // rotation. Everything below half a rotation beyond the fixed floor of
  // overhead + transfer counts as success.
  const sim::Duration rotation = device.profile().rotation_time();
  const sim::Duration floor =
      device.profile().command_overhead + device.profile().sector_time(probe_track);
  const sim::Duration success_bound = floor + rotation / 2;

  Result result;
  result.probe_track = probe_track;
  disk::SectorBuf scratch{};  // read destination / zeroed write payload

  bool found = false;
  for (std::uint32_t delta = 0; delta <= max_delta; ++delta) {
    // Phase 1: position the head by reading sector 0 of the probe track.
    bool positioned = false;
    device.read(track_base, 1, scratch, [&] { positioned = true; });
    sim.step_until([&] { return positioned; }, "DeltaCalibrator position");

    // Phase 2: the head just passed sector 0; write at sector 1 + δ.
    const std::uint32_t target = (1 + delta) % spt;
    const sim::TimePoint issued = sim.now();
    bool written = false;
    sim::TimePoint completed;
    device.write(track_base + target, 1, scratch, [&] {
      written = true;
      completed = sim.now();
    });
    sim.step_until([&] { return written; }, "DeltaCalibrator probe write");

    const sim::Duration latency = completed - issued;
    result.probe_latency.push_back(latency);
    if (!found && latency < success_bound) {
      found = true;
      result.delta_sectors = delta;
      result.delta_time = device.profile().sector_time(probe_track) * delta;
    }
  }
  if (!found) throw std::runtime_error("DeltaCalibrator: no delta avoided the rotation penalty");
  return result;
}

}  // namespace trail::core
