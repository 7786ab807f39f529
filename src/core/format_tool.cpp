#include "core/format_tool.hpp"

#include <memory>
#include <stdexcept>

#include "sim/steps.hpp"

namespace trail::core {

LogDiskLayout::LogDiskLayout(const disk::Geometry& geometry) : geometry_(geometry) {
  const disk::TrackId n = geometry.track_count();
  if (n < 4) throw std::invalid_argument("LogDiskLayout: disk too small");
  replica_tracks_ = {0, n / 2, n - 1};
}

disk::TrackId LogDiskLayout::replica_track(int replica) const {
  return replica_tracks_.at(static_cast<std::size_t>(replica));
}

disk::Lba LogDiskLayout::header_lba(int replica) const {
  return geometry_.first_lba_of_track(replica_track(replica));
}

disk::Lba LogDiskLayout::geometry_lba(int replica) const { return header_lba(replica) + 1; }

void format_log_disk(disk::DiskDevice& device) {
  device.store().wipe();
  const LogDiskLayout layout(device.geometry());
  disk::SectorBuf header_sector{};
  disk::SectorBuf geometry_sector{};
  serialize_disk_header(LogDiskHeader{0, 1}, header_sector);
  serialize_geometry(device.geometry(), device.profile().rpm, geometry_sector);
  for (int r = 0; r < layout.replica_count(); ++r) {
    device.store().write(layout.header_lba(r), 1, header_sector);
    device.store().write(layout.geometry_lba(r), 1, geometry_sector);
  }
}

bool is_trail_log_disk(const disk::DiskDevice& device) {
  const LogDiskLayout layout(device.geometry());
  disk::SectorBuf sector{};
  for (int r = 0; r < layout.replica_count(); ++r) {
    device.store().read(layout.header_lba(r), 1, sector);
    if (parse_disk_header(sector)) return true;
  }
  return false;
}

void write_disk_headers(disk::DiskDevice& device, const LogDiskHeader& header,
                        std::function<void()> done) {
  struct State {
    LogDiskLayout layout;
    disk::SectorBuf sector{};
    int replica = 0;
  };
  auto st = std::make_shared<State>(State{LogDiskLayout(device.geometry())});
  serialize_disk_header(header, st->sector);
  sim::loop_while([st] { return st->replica < st->layout.replica_count(); },
                  [&device, st](sim::Next next) {
                    device.write(st->layout.header_lba(st->replica++), 1, st->sector,
                                 std::move(next));
                  },
                  [done = std::move(done)](bool) {
                    if (done) done();
                  });
}

void read_disk_header(disk::DiskDevice& device,
                      std::function<void(std::optional<LogDiskHeader>)> done) {
  // Read replicas in order until one parses.
  struct State {
    LogDiskLayout layout;
    disk::SectorBuf sector{};
    int replica = 0;
    std::optional<LogDiskHeader> header{};
  };
  auto st = std::make_shared<State>(State{LogDiskLayout(device.geometry())});
  sim::loop_while([st] { return !st->header && st->replica < st->layout.replica_count(); },
                  [&device, st](sim::Next next) {
                    device.read(st->layout.header_lba(st->replica++), 1, st->sector,
                                [st, next = std::move(next)] {
                                  st->header = parse_disk_header(st->sector);
                                  next();
                                });
                  },
                  [st, done = std::move(done)](bool) {
                    if (done) done(st->header);
                  });
}

}  // namespace trail::core
