// fsck.trail — offline verification of every §3.2 on-disk invariant of
// the self-describing log, reported through the trail::audit check
// registry (one named check per invariant class, with per-sector
// findings).
//
// The verifier reads the raw platter (SectorStore) directly: it is a
// maintenance tool that runs with the driver unmounted, and the only
// offline reader of a log image. It keeps going past the first chain
// error and reports *every* violation it can attribute — that is what
// makes it usable as a corruption tripwire in tests and CI. Callers that
// render or test an image (the log_inspector tour) ask for the census it
// parsed through the optional LogImage out-parameter.
//
// Checks (see DESIGN.md §9 for the invariant catalogue):
//   log.disk_header     — replica parse + quorum agreement
//   log.geometry_block  — geometry replicas parse + match the device
//   log.sector_classes  — first-byte discipline over every written sector
//   log.record_entries  — entry array / payload layout agreement
//   log.payload_crc     — payload image CRCs (chain members are errors,
//                         off-chain torn records are warnings: partial
//                         overwrite by track reuse is legal)
//   log.record_keys     — global (epoch, sequence_id) uniqueness
//   log.chain           — prev_sect walk: acyclic, key-monotone, bounded
//                         by the youngest record's log_head
#pragma once

#include <vector>

#include "audit/check.hpp"
#include "core/log_format.hpp"
#include "disk/disk_device.hpp"
#include "disk/geometry.hpp"
#include "disk/sector_store.hpp"

namespace trail::audit {

struct VerifyOptions {
  /// A crashed image may legally end in a torn final record (the power
  /// cut interrupted an unacknowledged physical write); report such a
  /// chain-tail tear as a warning instead of an error.
  bool allow_torn_tail = true;
};

/// One record header the census parsed, and where it lives.
struct ParsedRecord {
  core::RecordHeader header;
  disk::Lba header_lba = 0;
  bool payload_intact = false;  // payload CRC verified
};

/// What the census read back from the image.
struct LogImage {
  /// Intact disk-header replicas, in replica order.
  std::vector<core::LogDiskHeader> headers;
  /// Every parsed record header (any epoch), ascending by record_key.
  std::vector<ParsedRecord> records;
};

/// Walk a log-disk image and check every §3.2 invariant. `geometry` must
/// be the disk's real geometry (the reserved replica tracks are derived
/// from it exactly as the format tool placed them). A non-null `image`
/// receives the census; the checks and findings do not depend on it.
[[nodiscard]] Report verify_log(const disk::SectorStore& store,
                                const disk::Geometry& geometry,
                                const VerifyOptions& options = {},
                                LogImage* image = nullptr);

/// Convenience overload over a whole device.
[[nodiscard]] Report verify_log(const disk::DiskDevice& device,
                                const VerifyOptions& options = {},
                                LogImage* image = nullptr);

}  // namespace trail::audit
