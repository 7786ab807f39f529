#include "audit/log_verifier.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/crc32.hpp"
#include "core/format_tool.hpp"
#include "core/log_format.hpp"
#include "core/track_allocator.hpp"

namespace trail::audit {

namespace {

std::string replica_name(const char* what, int replica) {
  return std::string(what) + " replica " + std::to_string(replica);
}

}  // namespace

Report verify_log(const disk::SectorStore& store, const disk::Geometry& geometry,
                  const VerifyOptions& options, LogImage* image) {
  Report report;
  const core::LogDiskLayout layout(geometry);

  Check& c_header = report.check("log.disk_header");
  Check& c_geom = report.check("log.geometry_block");
  Check& c_class = report.check("log.sector_classes");
  Check& c_entries = report.check("log.record_entries");
  Check& c_crc = report.check("log.payload_crc");
  Check& c_keys = report.check("log.record_keys");
  Check& c_chain = report.check("log.chain");

  // ---- replicated log_disk_header + geometry blocks (§3.2, §4.1) ----
  std::vector<core::LogDiskHeader> headers;
  disk::SectorBuf sector{};
  for (int r = 0; r < layout.replica_count(); ++r) {
    store.read(layout.header_lba(r), 1, sector);
    if (const auto hdr = core::parse_disk_header(sector)) {
      c_header.pass();
      headers.push_back(*hdr);
    } else {
      c_header.fail(replica_name("disk header", r) + " damaged", layout.header_lba(r),
                    Severity::kWarning);
    }

    store.read(layout.geometry_lba(r), 1, sector);
    if (const auto geom = core::parse_geometry(sector)) {
      const bool matches = geom->geometry.surfaces() == geometry.surfaces() &&
                           geom->geometry.track_count() == geometry.track_count() &&
                           geom->geometry.total_sectors() == geometry.total_sectors();
      if (matches)
        c_geom.pass();
      else
        c_geom.fail(replica_name("geometry block", r) + " disagrees with the device geometry",
                    layout.geometry_lba(r));
    } else {
      c_geom.fail(replica_name("geometry block", r) + " damaged", layout.geometry_lba(r),
                  Severity::kWarning);
    }
  }
  if (headers.empty())
    c_header.fail("no intact disk header replica: the disk is unidentifiable");
  for (std::size_t r = 1; r < headers.size(); ++r) {
    // Replicas are stamped sequentially; a crash mid-stamp legally leaves
    // them disagreeing, so this is a warning, not corruption.
    if (!(headers[r] == headers[0])) {
      c_header.fail("intact disk header replicas disagree (crash mid-stamp?)",
                    Finding::kNoLba, Severity::kWarning);
      break;
    }
  }

  // ---- full-disk census: first-byte discipline + record collection ----
  const core::TrackRing ring(geometry.track_count(), layout.reserved_tracks());
  std::set<disk::Lba> metadata_lbas;
  for (int r = 0; r < layout.replica_count(); ++r) {
    metadata_lbas.insert(layout.header_lba(r));
    metadata_lbas.insert(layout.geometry_lba(r));
  }

  std::vector<ParsedRecord> records;
  for (disk::Lba lba = 0; lba < geometry.total_sectors(); ++lba) {
    if (!store.is_written(lba)) continue;
    store.read(lba, 1, sector);
    const disk::TrackId track = geometry.track_of_lba(lba);

    if (ring.is_reserved(track)) {
      // Reserved tracks hold only the replicated metadata sectors; the
      // format tool wiped everything else.
      if (!metadata_lbas.contains(lba))
        c_class.fail("unexpected write on a reserved metadata track", lba);
      else
        c_class.pass();
      continue;
    }

    if (sector[0] == core::kHeaderFirstByte) {
      auto hdr = core::parse_record_header(sector);
      if (!hdr) {
        c_class.fail("0xFF first byte but the sector is not an intact record header", lba);
        continue;
      }
      c_class.pass();
      ParsedRecord rec;
      rec.header_lba = lba;
      rec.header = std::move(*hdr);
      const disk::Lba track_end =
          geometry.first_lba_of_track(track) + geometry.spt_of_track(track);
      if (lba + 1 + rec.header.batch_size <= track_end) {
        // Stream the payload one sector at a time through the incremental
        // CRC instead of staging the whole image in a temporary vector.
        core::Crc32 crc;
        disk::SectorBuf payload_sector{};
        for (std::uint32_t s = 0; s < rec.header.batch_size; ++s) {
          store.read(lba + 1 + s, 1, payload_sector);
          crc.update(payload_sector);
        }
        rec.payload_intact = crc.value() == rec.header.payload_crc;
      } else {
        c_entries.fail("record payload crosses its track", lba);
      }
      records.push_back(std::move(rec));
    } else if (sector[0] == core::kDataFirstByte) {
      c_class.pass();  // escaped payload (or zero fill)
    } else {
      c_class.fail("written sector violates the 0xFF/0x00 first-byte discipline", lba);
    }
  }

  // ---- entry-array / payload-layout agreement per record ----
  // First-byte violations are only classified after the chain walk: a
  // stale record's payload region is legally clobbered by track reuse,
  // so the 0x00 discipline is an error only for live-chain records.
  std::vector<std::pair<const ParsedRecord*, disk::Lba>> escape_violations;
  for (const ParsedRecord& rec : records) {
    bool layout_ok = true;
    bool any_direct = false;
    bool any_block = false;
    std::uint64_t prev_cookie = 0;
    bool cookie_ok = true;
    for (std::uint32_t i = 0; i < rec.header.batch_size; ++i) {
      const core::RecordEntry& e = rec.header.entries[i];
      if (e.log_lba != rec.header_lba + 1 + i) layout_ok = false;
      if (e.data_major == core::kDirectLogMajor) {
        if (any_direct && e.data_lba != prev_cookie + disk::kSectorSize) cookie_ok = false;
        prev_cookie = e.data_lba;
        any_direct = true;
      } else {
        any_block = true;
      }
      // Save/restore consistency: the on-disk payload sector must carry
      // the forced 0x00 first byte (the original lives in
      // first_data_byte and is restored only in memory).
      if (e.log_lba < geometry.total_sectors() && store.is_written(e.log_lba)) {
        store.read(e.log_lba, 1, sector);
        if (sector[0] != core::kDataFirstByte) escape_violations.emplace_back(&rec, e.log_lba);
      }
    }
    c_entries.require(layout_ok, "entry log_lba array disagrees with the contiguous payload "
                                 "layout", rec.header_lba);
    c_entries.require(!(any_direct && any_block),
                      "record mixes direct-log and block entries", rec.header_lba);
    if (any_direct)
      c_entries.require(cookie_ok, "direct-log cookies not contiguous within the record",
                        rec.header_lba);
  }

  // ---- global (epoch, sequence_id) uniqueness ----
  std::map<std::uint64_t, disk::Lba> by_key;
  for (const ParsedRecord& rec : records) {
    const std::uint64_t key = core::record_key(rec.header);
    const auto [it, inserted] = by_key.emplace(key, rec.header_lba);
    if (inserted)
      c_keys.pass();
    else
      c_keys.fail("duplicate (epoch, sequence_id) record key", rec.header_lba);
  }

  // ---- chain walk from the youngest intact record (§3.3 rebuild) ----
  if (!headers.empty()) {
    std::uint32_t stamped_epoch = 0;
    for (const core::LogDiskHeader& h : headers)
      stamped_epoch = std::max(stamped_epoch, h.epoch);
    for (const ParsedRecord& rec : records)
      if (rec.header.epoch > stamped_epoch)
        c_chain.fail("record carries an epoch newer than the stamped disk header",
                     rec.header_lba);
  }

  std::map<disk::Lba, const ParsedRecord*> by_lba;
  for (const ParsedRecord& rec : records) by_lba[rec.header_lba] = &rec;

  const ParsedRecord* youngest = nullptr;
  for (const ParsedRecord& rec : records) {
    if (!rec.payload_intact) continue;
    if (youngest == nullptr ||
        core::record_key(rec.header) > core::record_key(youngest->header))
      youngest = &rec;
  }

  std::set<disk::Lba> on_chain;
  if (youngest == nullptr) {
    c_chain.pass();  // empty (or fully torn) log: nothing to verify
  } else {
    const std::uint32_t bound = youngest->header.log_head;
    disk::Lba lba = youngest->header_lba;
    std::uint64_t prev_key = 0;
    bool first = true;
    bool ok = true;
    while (true) {
      if (on_chain.size() > records.size()) {
        c_chain.fail("prev_sect chain longer than the record census (cycle)", lba);
        ok = false;
        break;
      }
      const auto it = by_lba.find(lba);
      if (it == by_lba.end()) {
        c_chain.fail("prev_sect points at a non-record sector", lba);
        ok = false;
        break;
      }
      const ParsedRecord& rec = *it->second;
      const std::uint64_t key = core::record_key(rec.header);
      if (!first && key >= prev_key) {
        c_chain.fail("(epoch, sequence_id) not strictly decreasing along prev_sect",
                     rec.header_lba);
        ok = false;
        break;
      }
      prev_key = key;
      first = false;
      if (!on_chain.insert(rec.header_lba).second) {
        c_chain.fail("prev_sect chain revisits a record (cycle)", rec.header_lba);
        ok = false;
        break;
      }
      const std::uint32_t self =
          core::encode_log_ptr(0, static_cast<std::uint32_t>(rec.header_lba));
      if (self == bound) break;  // reached the oldest live record
      if (rec.header.prev_sect == core::kNoPrevRecord) {
        c_chain.fail("chain ended (prev_sect sentinel) before reaching the log_head bound",
                     rec.header_lba);
        ok = false;
        break;
      }
      if (core::log_ptr_unit(rec.header.prev_sect) != 0) {
        // Multi-log-disk chain: out of a single-disk verifier's scope.
        c_chain.fail("chain crosses to another log disk (verify that disk too)",
                     rec.header_lba, Severity::kWarning);
        break;
      }
      lba = core::log_ptr_lba(rec.header.prev_sect);
    }
    if (ok) c_chain.pass(on_chain.size());
  }

  // ---- payload CRCs, severity-classified by chain membership ----
  const std::uint64_t youngest_key =
      youngest != nullptr ? core::record_key(youngest->header) : 0;
  for (const auto& [rec, payload_lba] : escape_violations) {
    if (on_chain.contains(rec->header_lba)) {
      c_entries.fail("payload sector escaped first byte is not 0x00", payload_lba);
    } else if (core::record_key(rec->header) > youngest_key) {
      c_entries.fail("torn-tail payload sector lost the 0x00 escape byte", payload_lba,
                     options.allow_torn_tail ? Severity::kWarning : Severity::kError);
    } else {
      c_entries.fail("stale record payload overwritten by track reuse", payload_lba,
                     Severity::kWarning);
    }
  }
  for (const ParsedRecord& rec : records) {
    if (rec.payload_intact) {
      c_crc.pass();
      continue;
    }
    if (on_chain.contains(rec.header_lba)) {
      c_crc.fail("torn payload on a live-chain record", rec.header_lba);
    } else if (core::record_key(rec.header) > youngest_key) {
      // The unacknowledged tail of a crashed epoch: recovery drops it.
      c_crc.fail("torn tail record (crash cut the final physical write)", rec.header_lba,
                 options.allow_torn_tail ? Severity::kWarning : Severity::kError);
    } else {
      // Stale record partially overwritten by track reuse: legal.
      c_crc.fail("off-chain torn payload (stale / partially overwritten record)",
                 rec.header_lba, Severity::kWarning);
    }
  }

  if (image != nullptr) {
    std::stable_sort(records.begin(), records.end(),
                     [](const ParsedRecord& a, const ParsedRecord& b) {
                       return core::record_key(a.header) < core::record_key(b.header);
                     });
    image->headers = std::move(headers);
    image->records = std::move(records);
  }
  return report;
}

Report verify_log(const disk::DiskDevice& device, const VerifyOptions& options,
                  LogImage* image) {
  return verify_log(device.store(), device.geometry(), options, image);
}

}  // namespace trail::audit
